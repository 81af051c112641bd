"""Autodiff engine checks: forward oracles, finite differences, tape hygiene.

Every differentiable op gets a central finite-difference comparison against
an independent numeric gradient computed here (not via store.grad_check,
which has its own test). Forward values are checked against direct formula
oracles where one exists.
"""

import ctypes
import glob
import os

import numpy as np
import pytest

from seglang import tensor as T
from seglang.tensor import ShapeError, Tensor
from test_layers import softmax

H = 1e-5
TOL = 1e-5


def rel_err(a, n):
    return np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                              np.full_like(a, 1e-4)])


def fd_grad(loss_fn, arr, h=H):
    """Central differences w.r.t. every scalar of arr (mutated in place)."""
    g = np.zeros_like(arr)
    flat, gf = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gf[i] = (up - down) / (2.0 * h)
    return g


def check_op(op, arrays, seed=0):
    """Backward of weighted-sum(op(leaves)) vs finite differences, all leaves."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    w = rng.standard_normal(op(*leaves).shape)

    def loss():
        return float((op(*[Tensor(a.data, requires_grad=False)
                           for a in leaves]).data * w).sum())

    out = op(*leaves)
    T.tsum(out * Tensor(w)).backward()
    for leaf, arr in zip(leaves, arrays):
        numeric = fd_grad(loss, arr)
        assert leaf.grad is not None, "leaf got no gradient"
        err = rel_err(leaf.grad, numeric).max()
        assert err < TOL, f"rel err {err:.2e} on shape {arr.shape}"


# ---- forward oracles --------------------------------------------------------

def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(Tensor(a), Tensor(b)).data
    assert np.allclose(got, want, atol=1e-12)


def test_batched_matmul_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    got = T.matmul(Tensor(a), Tensor(b)).data
    for h in range(2):
        assert np.allclose(got[h], a[h] @ b[h], atol=1e-12)


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 7)) * 3
    got = softmax(Tensor(x)).data
    want = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-12)


def test_log_softmax_consistency():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 6))
    assert np.allclose(T.log_softmax(Tensor(x)).data,
                       np.log(softmax(Tensor(x)).data), atol=1e-12)


def test_sigmoid_tanh_form_matches_logistic():
    x = np.linspace(-20, 20, 41)
    got = T.sigmoid(Tensor(x)).data
    want = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(got, want, atol=1e-12)
    big = T.sigmoid(Tensor(np.array([1e4, -1e4]))).data
    assert np.all(np.isfinite(big))


def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 9)) * 5 + 2
    y = T.layer_norm(Tensor(x)).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)


def numpy_layer_norm(x, g, eps=1e-5):
    """The np.mean / np.var formula of layer_norm, kept as its oracle:
    (values, the input gradient for upstream gradient g)."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    out = (x - mu) * inv
    gm = g.mean(axis=-1, keepdims=True)
    gym = (g * out).mean(axis=-1, keepdims=True)
    return out, inv * (g - gm - out * gym)


@pytest.mark.parametrize("width", [8, 12, 16, 32, 48, 64, 256])
def test_layer_norm_is_bit_identical_to_mean_and_var(width):
    # one row (a cached decode step), a few rows, a prefill; unit, tiny and
    # huge scales, and large offsets that make the centring lose bits
    rng = np.random.default_rng(width)
    for rows in (1, 7, 150):
        for scale, offset in ((1.0, 0.0), (1e-3, 0.0), (1e3, 0.0),
                              (1.0, 1e3), (1e-2, -50.0)):
            x = rng.standard_normal((rows, width)) * scale + offset
            g = rng.standard_normal((rows, width))
            leaf = Tensor(x, requires_grad=True)
            out = T.layer_norm(leaf)
            T.tsum(out * Tensor(g)).backward()
            want, want_grad = numpy_layer_norm(x, g)
            assert np.array_equal(out.data, want)
            assert np.array_equal(leaf.grad, want_grad)


# ---- exactness on linear functions ------------------------------------------

def test_linear_function_gradient_is_exact():
    # d/dw sum(3 w) == 3 with no roundoff; the tape must reproduce it bitwise
    w = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    T.tsum(w * 3.0).backward()
    assert np.array_equal(w.grad, np.full((3, 4), 3.0))


def test_two_uses_accumulate():
    x = Tensor(np.ones(5), requires_grad=True)
    T.tsum(x + x).backward()
    assert np.array_equal(x.grad, np.full(5, 2.0))


# ---- finite-difference sweeps -----------------------------------------------

def test_elementwise_grads():
    rng = np.random.default_rng(10)
    a34 = rng.standard_normal((3, 4))
    b34 = rng.standard_normal((3, 4))
    check_op(lambda a, b: a + b, [a34.copy(), b34.copy()])
    check_op(lambda a, b: a * b, [a34.copy(), b34.copy()])
    check_op(lambda a, b: a - b, [a34.copy(), b34.copy()])
    denom = rng.standard_normal((3, 4))
    denom += np.sign(denom) + np.where(denom == 0, 1.0, 0.0)
    check_op(lambda a, b: a / b, [a34.copy(), denom])


def test_broadcast_grads():
    rng = np.random.default_rng(11)
    pairs = [((3, 4), (4,)), ((3, 4), (1, 4)), ((3, 1), (1, 4)), ((), (3, 4))]
    for sa, sb in pairs:
        a = rng.standard_normal(sa)
        b = rng.standard_normal(sb)
        check_op(lambda x, y: x * y + x + y, [a, b])


def test_matmul_grads():
    rng = np.random.default_rng(12)
    check_op(T.matmul, [rng.standard_normal((3, 4)),
                        rng.standard_normal((4, 2))])
    check_op(T.matmul, [rng.standard_normal((2, 3, 4)),
                        rng.standard_normal((2, 4, 2))])


def test_affine_grads():
    rng = np.random.default_rng(22)
    check_op(T.affine, [rng.standard_normal((5, 3)), rng.standard_normal((3, 4)),
                        rng.standard_normal(4)])


def test_attend_grads():
    rng = np.random.default_rng(23)
    causal = np.triu(np.full((4, 4), -1e9), k=1)
    check_op(lambda q, k, v: T.attend(q, k, v, 2, causal)[0],
             [rng.standard_normal((4, 6)) for _ in range(3)])
    # cross-attention: 3 queries over 5 keys, no mask
    check_op(lambda q, k, v: T.attend(q, k, v, 2)[0],
             [rng.standard_normal((3, 6)), rng.standard_normal((5, 6)),
              rng.standard_normal((5, 6))])


def test_shape_op_grads():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4, 2))
    check_op(lambda a: T.transpose(a, (2, 0, 1)), [x.copy()])
    check_op(lambda a: T.transpose(a), [rng.standard_normal((3, 5))])
    check_op(lambda a: T.reshape(a, (6, 4)), [x.copy()])
    check_op(lambda a, b: T.concat([a, b], axis=0),
             [rng.standard_normal((2, 3)), rng.standard_normal((4, 3))])
    check_op(lambda a, b: T.concat([a, b], axis=1),
             [rng.standard_normal((2, 3)), rng.standard_normal((2, 5))])
    check_op(lambda a: T.tslice(a, (slice(1, 3), slice(None))),
             [rng.standard_normal((4, 5))])
    check_op(lambda a: T.tslice(a, np.array([2, 0, 3])),
             [rng.standard_normal((4, 5))])


def test_reduction_grads():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 5))
    check_op(T.tsum, [x.copy()])
    check_op(lambda a: T.tsum(a, axis=0), [x.copy()])
    check_op(lambda a: T.tsum(a, axis=1), [x.copy()])
    check_op(T.tmean, [x.copy()])
    check_op(lambda a: T.tmean(a, axis=1), [x.copy()])


def test_nonlinearity_grads():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 6))
    check_op(softmax, [x.copy()])
    check_op(T.log_softmax, [x.copy()])
    check_op(T.layer_norm, [x.copy()])
    check_op(T.gelu, [x.copy()])
    check_op(T.sigmoid, [x.copy()])
    check_op(T.tlog, [np.abs(x) + 0.5])
    check_op(lambda a: T.clip(a, -0.5, 0.5), [x.copy()])


def test_gelu_matches_power_closed_form():
    # the cube is computed as x * x * x, not with numpy's float pow. The
    # error is measured relative to |x|: for x << 0, 1 + tanh cancels and
    # one-ulp differences in tanh grow to ~1e-13 relative to gelu(x) itself.
    x = np.random.default_rng(21).standard_normal((163, 256))
    want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                    * (x + 0.044715 * np.power(x, 3))))
    assert np.all(np.abs(T.gelu(Tensor(x)).data - want) <= 1e-13 * np.abs(x))


def test_gather_grads():
    rng = np.random.default_rng(16)
    table = rng.standard_normal((7, 3))
    ids = np.array([1, 4, 1, 0, 6])  # repeats must accumulate
    check_op(lambda t: T.embedding_lookup(t, ids), [table])
    logits = rng.standard_normal((5, 9))
    idx = np.array([3, 0, 8, 1, 1])
    check_op(lambda a: T.take_rows(a, idx), [logits])
    check_op(lambda a: T.repeat_nn(a, 2, 3), [rng.standard_normal((3, 4))])


def test_clip_gradient_gate_is_exact():
    x = Tensor(np.array([-2.0, 0.25, 2.0]), requires_grad=True)
    T.tsum(T.clip(x, 0.0, 1.0)).backward()
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


# ---- tape and container semantics -------------------------------------------

def test_slices_copy_not_alias():
    x = Tensor(np.arange(6, dtype=np.float64))
    piece = x[1:4]
    piece.data[:] = 99.0
    assert np.array_equal(x.data, np.arange(6, dtype=np.float64))


def test_numpy_returns_copy():
    x = Tensor(np.zeros(3))
    x.numpy()[0] = 5.0
    assert x.data[0] == 0.0


def test_backward_frees_tape_keeps_leaf_grads():
    x = Tensor(np.ones(4), requires_grad=True)
    mid = x * 2.0
    T.tsum(mid).backward()
    assert np.array_equal(x.grad, np.full(4, 2.0))
    assert mid.grad is None
    assert mid._parents == () and mid._backward is None


def test_first_gradient_from_a_view_is_stored_c_contiguous():
    # transpose's backward hands its parent a transposed view of its grad
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.tsum(T.transpose(x) * Tensor(np.arange(6.0).reshape(3, 2))).backward()
    assert x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, np.arange(6.0).reshape(3, 2).T)


def test_slice_backward_adds_into_an_existing_gradient():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    w = np.arange(12.0).reshape(4, 3)
    T.tsum(x * Tensor(w)).backward()
    # a second pass slices into the leaf's kept gradient, twice over row 1
    (T.tsum(x[1:3] * 2.0) + T.tsum(x[1])).backward()
    want = w.copy()
    want[1:3] += 2.0
    want[1] += 1.0
    assert np.array_equal(x.grad, want)


def test_forward_backward_twice_same_grads():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def run():
        x.grad = None
        T.tsum(softmax(x) * x).backward()
        return x.grad.copy()

    assert np.array_equal(run(), run())


def test_no_grad_leaf_stays_untouched():
    x = Tensor(np.ones(3), requires_grad=False)
    y = Tensor(np.ones(3), requires_grad=True)
    T.tsum(x * y).backward()
    assert x.grad is None
    assert y.grad is not None


def test_scalar_stays_zero_dim():
    t = Tensor(3.0)
    assert t.shape == ()
    assert t.item() == 3.0
    assert T.tsum(Tensor(np.ones((2, 2)))).shape == ()


# ---- error reporting --------------------------------------------------------

def test_shape_errors_name_the_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError, match="align"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError, match="ranks"):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="scalar"):
        Tensor(np.ones(3), requires_grad=True).backward()
    with pytest.raises(ShapeError, match="out of range"):
        T.embedding_lookup(Tensor(np.ones((4, 2))), [0, 4])
    with pytest.raises(ShapeError, match="reshape"):
        T.reshape(Tensor(np.ones((3, 3))), (2, 5))
    with pytest.raises(ShapeError):
        T.concat([])
    with pytest.raises(ShapeError, match="affine"):
        T.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))),
                 Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="attend"):
        T.attend(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))),
                 Tensor(np.ones((4, 2))), 1)


# ---- BLAS threads -----------------------------------------------------------

def test_openblas_runs_on_the_pinned_thread_count():
    # numpy wheels bundle OpenBLAS under numpy.libs; the library is already
    # loaded, so opening it again returns the handle numpy uses
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        pytest.skip("numpy has no bundled OpenBLAS with a thread query")
    get.restype = ctypes.c_int
    assert get() == int(os.environ["OPENBLAS_NUM_THREADS"])
