"""Dense float64 tensors with reverse-mode differentiation.

Every value flowing through the pipeline lives in a `Tensor`: a row-major
numpy float64 array plus an optional gradient buffer and a per-forward tape.
Ops build the tape as closures; `backward()` walks it once in reverse
topological order and then discards it. Slices always copy, there is no
view aliasing, and everything is deterministic.

Each op is one function (`add`, `mul`, `matmul`, `tslice`, ...) with one
spelling: `Tensor` has no operator sugar, so `a * b` or `x[i]` raises
`TypeError`. Only `add` and `mul` take a plain number or array for either
operand; every other op takes `Tensor`s.

The hot kernels allocate once and work in place, with the out-of-place
formulas' ufuncs and operand order, so every bit is unchanged: `attend`'s
softmax runs inside its `q @ kᵀ` result, `affine` adds the bias into its
matmul result, and `gelu` and `layer_norm` build values and gradients in
their own buffers. A gradient a backward computes afresh for one parent is
passed as owned, and a first gradient keeps it uncopied; views (`reshape`,
`transpose`, `concat` slices) and `add`'s pass-through `g` are copied.
"""

from __future__ import annotations

import numpy as np

_F64 = np.dtype(np.float64)   # a Tensor's data: C-contiguous, in this dtype


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


def _as_f64(values) -> np.ndarray:
    # note: not ascontiguousarray, which would promote 0-d scalars to (1,)
    arr = values if type(values) is np.ndarray and values.dtype is _F64 \
        else np.asarray(values, dtype=np.float64)
    return arr if arr.flags.c_contiguous else arr.copy()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add `grad` into `.grad`; an `owned` one may become the buffer."""
        if self.grad is not None:
            self.grad += grad
        elif owned and type(grad) is np.ndarray and grad.dtype == np.float64 \
                and grad.flags.c_contiguous:
            self.grad = grad
        else:
            self.grad = np.array(grad, dtype=np.float64, order="C")

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar.

        The tape is freed afterwards; leaf `.grad` buffers survive until
        `zero_grad` / the next optimizer step clears them.
        """
        if self.data.ndim != 0:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        # tape is per-forward: drop closures so intermediates can be collected
        for node in topo:
            if node._backward is not None:
                node._backward = None
                node._parents = ()
                if node is not self:
                    node.grad = None


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def randn(shape, rng: np.random.Generator, std: float = 1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * std)


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(out_data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._backward = True, parents, backward
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape), True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape), True)

    return _make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape), True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), True)

    return _make(out_data, (a, b), backward)


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: ranks {a.shape} @ {b.shape} unsupported")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} @ {b.shape} do not align")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, b.data.T), True)
        if b.requires_grad:
            b._accumulate(np.matmul(a.data.T, g), True)

    return _make(out_data, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape node (x: N x D_in, w: D_in x D_out, b: D_out)."""
    xs, ws = x.data.shape, w.data.shape
    if len(xs) != 2 or len(ws) != 2 or xs[1] != ws[0] or b.data.shape != (ws[1],):
        raise ShapeError(f"affine: shapes {xs} @ {ws} + {b.shape}")
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def backward(g):
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape), True)
        if x.requires_grad:
            x._accumulate(np.matmul(g, w.data.swapaxes(-1, -2)), True)
        if w.requires_grad:
            w._accumulate(np.matmul(x.data.swapaxes(-1, -2), g), True)

    return _make(out_data, (x, w, b), backward)


def attend(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
           mask: np.ndarray | None = None,
           past: tuple | None = None) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax(q @ kᵀ / √d_head + mask) @ v as one tape node.

    q: T_q x D, k and v: T_k x D; the node splits the rows into n_heads heads
    and merges them back, and returns (T_q x D out, heads x T_q x T_k
    weights). `past`, when given, is (K, V, n): tape-free heads x d_head x cap
    keys and heads x cap x d_head values whose first n rows precede k and v,
    which are written in place after them; the queries attend over views of
    all the rows, so no earlier row is copied. Values and gradients match the
    unfused op chain bit for bit, but no T_q x T_k array stays on the tape."""
    if q.ndim != 2 or k.shape != v.shape or k.ndim != 2 \
            or k.shape[1] != q.shape[1] or q.shape[1] % n_heads:
        raise ShapeError(f"attend: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"in {n_heads} heads")
    d = q.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x: np.ndarray) -> np.ndarray:   # T x D -> heads x T x d_head
        return np.ascontiguousarray(x.reshape(-1, n_heads, dh).transpose(1, 0, 2))

    def rows(x: np.ndarray) -> np.ndarray:    # heads x T x d_head -> T x D
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(-1, d)

    qh, vh = heads(q.data), heads(v.data)
    kt = k.data.reshape(-1, n_heads, dh).transpose(1, 2, 0)
    if past is None:
        kt = np.ascontiguousarray(kt)
    else:   # write the new rows in place, then attend over the filled prefix
        kbuf, vbuf, n = past
        kbuf[:, :, n:n + k.shape[0]], vbuf[:, n:n + k.shape[0]] = kt, vh
        kt, vh = kbuf[:, :, :n + k.shape[0]], vbuf[:, :n + k.shape[0]]
    new = slice(kt.shape[2] - k.shape[0], None)   # cached rows take no gradient
    weights = np.matmul(qh, kt)   # scores, then softmax weights, in place
    weights *= scale
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out_data = rows(np.matmul(weights, vh))

    def backward(g):
        g = heads(g)
        gy = np.matmul(g, vh.swapaxes(-1, -2))
        gy *= weights
        if v.requires_grad:
            v._accumulate(rows(np.matmul(weights.swapaxes(-1, -2), g)[:, new]), True)
        del g   # from here on the peak is gy plus a quarter of it
        s, b = gy.sum(axis=-1, keepdims=True), max(1, -(-gy.shape[1] // 4))
        for i in range(0, gy.shape[1], b):   # gy -= weights * s by row blocks
            gy[:, i:i + b] -= weights[:, i:i + b] * s[:, i:i + b]
        gy *= scale
        if q.requires_grad:
            q._accumulate(rows(np.matmul(gy, kt.swapaxes(-1, -2))), True)
        if k.requires_grad:
            k._accumulate(rows(np.matmul(qh.swapaxes(-1, -2), gy).swapaxes(1, 2)[:, new]),
                          True)

    return _make(out_data, (q, k, v), backward), weights


def transpose(a: Tensor) -> Tensor:
    """Matrix transpose (reverses the axes)."""
    out_data = np.ascontiguousarray(a.data.T)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out_data = a.data.reshape(shape).copy()
    except ValueError:
        raise ShapeError(f"reshape: {a.shape} -> {tuple(shape)} invalid")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(out_data, (a,), backward)


def concat(parts: list[Tensor]) -> Tensor:
    """Stack `parts` row-wise, along their first axis."""
    if not parts:
        raise ShapeError("concat: empty input list")
    try:
        out_data = np.concatenate([p.data for p in parts])
    except ValueError:
        raise ShapeError(f"concat: shapes {[p.shape for p in parts]} incompatible")

    def backward(g):
        lo = 0
        for p in parts:
            if p.requires_grad:
                p._accumulate(g[lo:lo + p.shape[0]])
            lo += p.shape[0]

    return _make(out_data, tuple(parts), backward)


def tslice(a: Tensor, key) -> Tensor:
    """Basic slicing/int indexing; result owns a copy (no aliasing)."""
    out_data = a.data[key]
    if not np.isscalar(out_data):
        out_data = out_data.copy()

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[key] += g

    return _make(np.asarray(out_data), (a,), backward)


# -- reductions --------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    """Sum of all elements."""
    out_data = a.data.sum()

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape))

    return _make(out_data, (a,), backward)


def tmean(a: Tensor) -> Tensor:
    """Mean of all elements."""
    return mul(tsum(a), 1.0 / a.data.size)


# -- nonlinearities ----------------------------------------------------------

def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    out_data = a.data - a.data.max(axis=-1, keepdims=True)
    out_data -= np.log(np.exp(out_data).sum(axis=-1, keepdims=True))
    sm = np.exp(out_data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g - sm * g.sum(axis=-1, keepdims=True), True)

    return _make(out_data, (a,), backward)


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine). Each
    sum over the count is np.mean's and np.var's arithmetic, bit for bit."""
    n = a.data.shape[-1]
    out_data = a.data - a.data.sum(axis=-1, keepdims=True) / n   # centred
    inv = 1.0 / np.sqrt((out_data * out_data).sum(axis=-1, keepdims=True) / n + eps)
    out_data *= inv

    def backward(g):
        if a.requires_grad:
            gym = (g * out_data).sum(axis=-1, keepdims=True) / n
            gx = g - g.sum(axis=-1, keepdims=True) / n
            gx -= out_data * gym
            gx *= inv
            a._accumulate(gx, True)

    return _make(out_data, (a,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    t = x * x   # tanh(C * (x + 0.044715 * x³)); float pow is ~100x slower
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = 0.5 * x
    out_data *= 1.0 + t

    def backward(g):
        if a.requires_grad:   # g * (0.5 * (1 + t) + 0.5 * x * dt)
            dt = t * t        # dt = (1 - t²) * C * (1 + 3 * 0.044715 * x²)
            np.subtract(1.0, dt, out=dt)
            dt *= _GELU_C
            gx = x * (3 * 0.044715)
            gx *= x
            gx += 1.0
            dt *= gx
            dt *= np.multiply(x, 0.5, out=gx)
            np.add(t, 1.0, out=gx)
            gx *= 0.5
            gx += dt
            gx *= g
            a._accumulate(gx, True)

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 0.5 * (1.0 + np.tanh(0.5 * a.data))  # overflow-free form

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data), True)

    return _make(out_data, (a,), backward)


def tlog(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data, True)

    return _make(out_data, (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where the input was inside [lo, hi]."""
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * inside, True)

    return _make(out_data, (a,), backward)


# -- gather / scatter style ops ---------------------------------------------

def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of `table` (VxD) at integer `ids` (N,) -> NxD."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be 1-D, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.shape}")
    out_data = table.data[ids].copy()

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            table._accumulate(full, True)

    return _make(out_data, (table,), backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Pick one column per row: (NxV, idx[N]) -> (N,)."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"take_rows: got {a.shape} with idx {idx.shape}")
    rows = np.arange(a.shape[0])
    out_data = a.data[rows, idx].copy()

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, (rows, idx), g)
            a._accumulate(full, True)

    return _make(out_data, (a,), backward)


def repeat_nn(a: Tensor, fh: int, fw: int) -> Tensor:
    """Nearest-neighbor upsample of a 2-D map by integer factors per axis."""
    if a.ndim != 2:
        raise ShapeError(f"repeat_nn: need 2-D input, got {a.shape}")
    out_data = np.repeat(np.repeat(a.data, fh, axis=0), fw, axis=1)
    h, w = a.shape

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(h, fh, w, fw).sum(axis=(1, 3)), True)

    return _make(out_data, (a,), backward)
