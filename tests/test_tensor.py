"""Autodiff engine checks: forward oracles, finite differences, tape hygiene.

Every differentiable op gets a central finite-difference comparison against
an independent numeric gradient computed here (not via store.grad_check,
which has its own test). Forward values are checked against direct formula
oracles where one exists.
"""

import ctypes
import glob
import os
import tracemalloc

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
    T.tsum(T.mul(out, Tensor(w))).backward()
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


def assert_bits_equal(got, want):
    """Equal shapes and bit patterns: tells -0.0 from 0.0, and NaNs apart."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("width", [8, 12, 16, 32, 48, 64, 256])
def test_layer_norm_is_bit_identical_to_mean_and_var(width):
    # one row (a cached decode step), a few rows, a prefill; unit, tiny and
    # huge scales, and large offsets that make the centring lose bits
    rng = np.random.default_rng(width)
    for rows in (1, 7, 150, 160):
        for scale, offset in ((1.0, 0.0), (1e-3, 0.0), (1e3, 0.0),
                              (1.0, 1e3), (1e-2, -50.0)):
            x = rng.standard_normal((rows, width)) * scale + offset
            g = rng.standard_normal((rows, width))
            leaf = Tensor(x, requires_grad=True)
            out = T.layer_norm(leaf)
            T.tsum(T.mul(out, Tensor(g))).backward()
            want, want_grad = numpy_layer_norm(x, g)
            assert_bits_equal(out.data, want)
            assert_bits_equal(leaf.grad, want_grad)


# ---- in-place kernels against their out-of-place formulas -------------------
# Each oracle is the formula the kernel had before it worked in place: the
# same ufuncs in the same operand order, so values and gradients agree bit
# for bit. The upstream gradient reaches the kernel exactly: tsum's backward
# hands mul a buffer of ones, and 1.0 * g == g.

def run_kernel(op, arrays, seed):
    """op(*leaves) and the leaves' gradients for a random upstream g."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    g = np.random.default_rng(seed).standard_normal(out.shape)
    T.tsum(T.mul(out, Tensor(g))).backward()
    return out.data, [leaf.grad for leaf in leaves], g


def old_gelu(x, g):
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x * x)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * dt)


@pytest.mark.parametrize("rows", [1, 7, 160])
def test_gelu_is_bit_identical_to_out_of_place_formula(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 256)) * 3
    x[0, :6] = (-0.0, 0.0, 40.0, -40.0, 1e-300, -1e-300)
    out, (grad,), g = run_kernel(T.gelu, [x], rows + 1)
    want, want_grad = old_gelu(x, g)
    assert_bits_equal(out, want)
    assert_bits_equal(grad, want_grad)


@pytest.mark.parametrize("rows", [1, 7, 160])
def test_affine_is_bit_identical_to_out_of_place_formula(rows):
    rng = np.random.default_rng(rows)
    x, w, b = (rng.standard_normal((rows, 48)), rng.standard_normal((48, 64)),
               rng.standard_normal(64))
    out, (gx, gw, gb), g = run_kernel(T.affine, [x, w, b], rows + 1)
    assert_bits_equal(out, np.matmul(x, w) + b)
    assert_bits_equal(gx, np.matmul(g, w.swapaxes(-1, -2)))
    assert_bits_equal(gw, np.matmul(x.swapaxes(-1, -2), g))
    assert_bits_equal(gb, g.sum(axis=0))


def old_attend(q, k, v, n_heads, mask, g, past_k=None, past_v=None):
    """(values, weights, [q, k, v gradients], scaled scores before the mask)
    of the unfused softmax."""
    d = q.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x):
        return np.ascontiguousarray(x.reshape(-1, n_heads, dh).transpose(1, 0, 2))

    def rows(x):
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(-1, d)

    qh, vh = heads(q), heads(v)
    kt = np.ascontiguousarray(k.reshape(-1, n_heads, dh).transpose(1, 2, 0))
    if past_k is not None:
        kt = np.concatenate((past_k, kt), axis=2)
        vh = np.concatenate((past_v, vh), axis=1)
    new = slice(kt.shape[2] - k.shape[0], None)
    scaled = np.matmul(qh, kt) * scale
    scores = scaled if mask is None else scaled + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = rows(np.matmul(weights, vh))
    gh = heads(g)
    gy = np.matmul(gh, vh.swapaxes(-1, -2)) * weights
    gv = rows(np.matmul(weights.swapaxes(-1, -2), gh)[:, new])
    gs = (gy - weights * gy.sum(axis=-1, keepdims=True)) * scale
    gq = rows(np.matmul(gs, kt.swapaxes(-1, -2)))
    gk = rows(np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(1, 2)[:, new])
    return out, weights, [gq, gk, gv], scaled


def causal(n_new, n_keys):
    at = np.arange(n_new)[:, None] + n_keys - n_new
    return np.where(np.arange(n_keys) > at, -1e9, 0.0)


def check_attend(q, k, v, n_heads, mask, seed, past=None):
    """Bit-compare attend with old_attend, and the rows it writes into a
    `past` (K buffer, V buffer, n) with the oracle's; returns its scores."""
    past_kv = (past[0][:, :, :past[2]].copy(), past[1][:, :past[2]].copy()) \
        if past else ()
    weights = []

    def op(*qkv):
        out, w = T.attend(*qkv, n_heads, mask, past)
        weights.append(w)
        return out

    out, grads, g = run_kernel(op, [q, k, v], seed)
    want, want_weights, want_grads, scores = old_attend(q, k, v, n_heads, mask, g,
                                                        *past_kv)
    assert_bits_equal(out, want)
    assert_bits_equal(weights[0], want_weights)
    for got, w in zip(grads, want_grads):
        assert_bits_equal(got, w)
    if past:
        end, dh = past[2] + len(k), k.shape[1] // n_heads
        assert_bits_equal(past[0][:, :, :end], np.concatenate(
            (past_kv[0], k.reshape(-1, n_heads, dh).transpose(1, 2, 0)), axis=2))
        assert_bits_equal(past[1][:, :end], np.concatenate(
            (past_kv[1], v.reshape(-1, n_heads, dh).transpose(1, 0, 2)), axis=1))
    return scores


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 7, 160])
@pytest.mark.parametrize("masked", [False, True])
def test_attend_is_bit_identical_to_out_of_place_formula(rows, masked):
    rng = np.random.default_rng(rows)
    q, k, v = (rng.standard_normal((rows, 32)) for _ in range(3))
    check_attend(q, k, v, 4, causal(rows, rows) if masked else None, rows)


@pytest.mark.parametrize("new_rows", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("masked", [False, True])
def test_attend_with_past_is_bit_identical_to_out_of_place_formula(new_rows, masked):
    # a cached prefix of 9 rows, then 1 to 5 new rows that attend over all,
    # in buffers with room to spare
    rng = np.random.default_rng(new_rows)
    kbuf, vbuf = np.empty((4, 8, 16)), np.empty((4, 16, 8))
    T.attend(*(Tensor(rng.standard_normal((9, 32))) for _ in range(3)), 4,
             causal(9, 9), (kbuf, vbuf, 0))
    q, k, v = (rng.standard_normal((new_rows, 32)) for _ in range(3))
    check_attend(q, k, v, 4, causal(new_rows, 9 + new_rows) if masked else None,
                 new_rows, (kbuf, vbuf, 9))


@pytest.mark.parametrize("masked", [False, True])
def test_attend_keeps_negative_zero_scores_bit_identical(masked):
    # products that underflow give -0.0 scores; a row of them and one mixed
    rng = np.random.default_rng(5)
    q, v = rng.standard_normal((6, 16)), rng.standard_normal((6, 16))
    k = np.abs(rng.standard_normal((6, 16))) * 1e-200
    q[1] = -1e-200
    q[3, :4] = -1e-200
    scores = check_attend(q, k, v, 4, causal(6, 6) if masked else None, 6)
    assert (np.signbit(scores) & (scores == 0.0)).any()


# ---- exactness on linear functions ------------------------------------------

def test_linear_function_gradient_is_exact():
    # d/dw sum(3 w) == 3 with no roundoff; the tape must reproduce it bitwise
    w = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    T.tsum(T.mul(w, 3.0)).backward()
    assert np.array_equal(w.grad, np.full((3, 4), 3.0))


def test_two_uses_accumulate():
    x = Tensor(np.ones(5), requires_grad=True)
    T.tsum(T.add(x, x)).backward()
    assert np.array_equal(x.grad, np.full(5, 2.0))


# ---- finite-difference sweeps -----------------------------------------------

def test_elementwise_grads():
    rng = np.random.default_rng(10)
    a34 = rng.standard_normal((3, 4))
    b34 = rng.standard_normal((3, 4))
    check_op(T.add, [a34.copy(), b34.copy()])
    check_op(T.mul, [a34.copy(), b34.copy()])
    denom = rng.standard_normal((3, 4))
    denom += np.sign(denom) + np.where(denom == 0, 1.0, 0.0)
    check_op(T.div, [a34.copy(), denom])


def test_broadcast_grads():
    rng = np.random.default_rng(11)
    pairs = [((3, 4), (4,)), ((3, 4), (1, 4)), ((3, 1), (1, 4)), ((), (3, 4))]
    for sa, sb in pairs:
        a = rng.standard_normal(sa)
        b = rng.standard_normal(sb)
        check_op(lambda x, y: T.add(T.add(T.mul(x, y), x), y), [a, b])


def test_matmul_grads():
    rng = np.random.default_rng(12)
    check_op(T.matmul, [rng.standard_normal((3, 4)),
                        rng.standard_normal((4, 2))])


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
    check_op(T.transpose, [rng.standard_normal((3, 5))])
    check_op(lambda a: T.reshape(a, (6, 4)), [x.copy()])
    check_op(lambda a, b: T.concat([a, b]),
             [rng.standard_normal((2, 3)), rng.standard_normal((4, 3))])
    check_op(lambda a: T.tslice(a, (slice(1, 3), slice(None))),
             [rng.standard_normal((4, 5))])
    check_op(lambda a: T.tslice(a, np.array([2, 0, 3])),
             [rng.standard_normal((4, 5))])


def test_reduction_grads():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 5))
    check_op(T.tsum, [x.copy()])
    check_op(T.tmean, [x.copy()])


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
    piece = T.tslice(x, slice(1, 4))
    piece.data[:] = 99.0
    assert np.array_equal(x.data, np.arange(6, dtype=np.float64))


def test_backward_frees_tape_keeps_leaf_grads():
    x = Tensor(np.ones(4), requires_grad=True)
    mid = T.mul(x, 2.0)
    T.tsum(mid).backward()
    assert np.array_equal(x.grad, np.full(4, 2.0))
    assert mid.grad is None
    assert mid._parents == () and mid._backward is None


def test_gradients_never_share_memory_and_accumulate_exactly():
    # add sends one g to both parents, reshape, transpose and concat send
    # views, tslice writes into its parent's buffer, and c is used twice
    rng = np.random.default_rng(30)
    leaves = [Tensor(rng.standard_normal(s), requires_grad=True)
              for s in ((2, 3), (2, 3), (3, 2))]
    w1, w2, w3 = (Tensor(rng.standard_normal(s)) for s in ((4, 3), (3, 2), (2,)))

    def loss():
        a, b, c = leaves
        s = T.add(a, b)
        cat = T.concat([s, T.transpose(c)])
        return T.add(T.add(T.tsum(T.mul(cat, w1)),
                           T.tsum(T.mul(T.reshape(s, (3, 2)), w2))),
                     T.tsum(T.mul(T.tslice(c, 1), w3)))

    loss().backward()
    first = [leaf.grad.copy() for leaf in leaves]
    grads = [leaf.grad for leaf in leaves]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    loss().backward()
    for leaf, g in zip(leaves, first):
        assert_bits_equal(leaf.grad, g + g)


def test_first_gradient_from_a_view_is_stored_c_contiguous():
    # transpose's backward hands its parent a transposed view of its grad
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.tsum(T.mul(T.transpose(x), Tensor(np.arange(6.0).reshape(3, 2)))).backward()
    assert x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, np.arange(6.0).reshape(3, 2).T)


def test_slice_backward_adds_into_an_existing_gradient():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    w = np.arange(12.0).reshape(4, 3)
    T.tsum(T.mul(x, Tensor(w))).backward()
    # a second pass slices into the leaf's kept gradient, twice over row 1
    T.add(T.tsum(T.mul(T.tslice(x, slice(1, 3)), 2.0)),
          T.tsum(T.tslice(x, 1))).backward()
    want = w.copy()
    want[1:3] += 2.0
    want[1] += 1.0
    assert np.array_equal(x.grad, want)


def test_forward_backward_twice_same_grads():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def run():
        x.grad = None
        T.tsum(T.mul(softmax(x), x)).backward()
        return x.grad.copy()

    assert np.array_equal(run(), run())


def test_no_grad_leaf_stays_untouched():
    x = Tensor(np.ones(3), requires_grad=False)
    y = Tensor(np.ones(3), requires_grad=True)
    T.tsum(T.mul(x, y)).backward()
    assert x.grad is None
    assert y.grad is not None


def test_scalar_stays_zero_dim():
    t = Tensor(3.0)
    assert t.shape == ()
    assert t.item() == 3.0
    assert T.tsum(Tensor(np.ones((2, 2)))).shape == ()


# ---- allocation guards -------------------------------------------------------
# numpy reports its buffers to tracemalloc; the inputs exist before tracing.

def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_attend_forward_peak_stays_under_two_score_arrays():
    # the softmax runs inside the one heads x T x T scores array
    rng = np.random.default_rng(31)
    rows, heads = 160, 4
    q, k, v = (Tensor(rng.standard_normal((rows, 64)), requires_grad=True)
               for _ in range(3))
    mask = causal(rows, rows)
    peak = traced_peak(lambda: T.attend(q, k, v, heads, mask))
    assert peak <= 2 * heads * rows * rows * 8


def test_attend_backward_peak_stays_under_one_and_a_half_score_arrays():
    # gy - weights * rowsum(gy) runs in place a quarter of the rows at a time,
    # so no second heads x T x T array is ever live next to gy
    rng = np.random.default_rng(31)
    rows, heads = 160, 4
    q, k, v = (Tensor(rng.standard_normal((rows, 64)), requires_grad=True)
               for _ in range(3))
    out, _ = T.attend(q, k, v, heads, causal(rows, rows))
    g = rng.standard_normal(out.shape)
    peak = traced_peak(lambda: out._backward(g))
    assert peak <= 1.5 * heads * rows * rows * 8


def test_gelu_forward_peak_stays_under_three_and_a_half_inputs():
    x = Tensor(np.random.default_rng(32).standard_normal((160, 256)),
               requires_grad=True)
    assert traced_peak(lambda: T.gelu(x)) <= 3.5 * x.data.nbytes


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


def test_each_op_has_one_spelling():
    # no operator sugar, no numpy() copy, no axis or batch arguments
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
    for sugar in (lambda: a + b, lambda: 1.0 + a, lambda: a * 2.0,
                  lambda: 2.0 * a, lambda: -a, lambda: a - b, lambda: 1.0 - a,
                  lambda: a / b, lambda: a @ b, lambda: a[0]):
        with pytest.raises(TypeError):
            sugar()
    assert not hasattr(a, "numpy")
    rng = np.random.default_rng(0)
    for removed in (lambda: T.tsum(a, axis=0), lambda: T.tmean(a, axis=1),
                    lambda: T.log_softmax(a, axis=-1),
                    lambda: T.concat([a, b], axis=1),
                    lambda: T.transpose(a, axes=(1, 0)),
                    lambda: T.zeros((2,), requires_grad=True),
                    lambda: T.randn((2,), rng, requires_grad=True)):
        with pytest.raises(TypeError):
            removed()
    with pytest.raises(ShapeError, match="ranks"):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))))


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
