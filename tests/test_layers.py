"""Building blocks: linear, attention (hand oracle), causal masking, patchify.

The fused tape ops `affine` and `attend` are checked bit for bit, forward and
backward, against the unfused op chains they replace, kept here as oracles
(with `softmax`, `permute` and the head-batched `bmm`, which only the attend
oracle uses).
"""

import numpy as np
import pytest

from seglang import layers
from seglang.layers import (NEG_INF, attention, block, init_attention,
                            init_block, init_linear, init_mlp, linear,
                            mlp_gelu, patchify)
from seglang import tensor as T
from seglang.store import ParamStore
from seglang.tensor import ShapeError, Tensor


def unfused_affine(x, w, b):
    return T.add(T.matmul(x, w), b)


def softmax(a, axis=-1):
    a = T._wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            gy = g * out_data
            a._accumulate(gy - out_data * gy.sum(axis=axis, keepdims=True))

    return T._make(out_data, (a,), backward)


def permute(a, axes):
    out_data = np.ascontiguousarray(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.transpose(g, inv))

    return T._make(out_data, (a,), backward)


def bmm(a, b):
    """Matrix product per head: heads x M x K @ heads x K x N."""
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, b.data.swapaxes(-1, -2)), True)
        if b.requires_grad:
            b._accumulate(np.matmul(a.data.swapaxes(-1, -2), g), True)

    return T._make(out_data, (a, b), backward)


def split_heads(x, n_heads):
    """T x D -> n_heads x T x d_head."""
    t, d = x.shape
    return permute(T.reshape(x, (t, n_heads, d // n_heads)), (1, 0, 2))


def merge_heads(x):
    """n_heads x T x d_head -> T x D."""
    h, t, dh = x.shape
    return T.reshape(permute(x, (1, 0, 2)), (t, h * dh))


def kv_buffers(rows, d=6, n_heads=2):
    """Empty K and V buffers in attend's head layout, with two spare rows."""
    dh = d // n_heads
    return np.empty((n_heads, dh, rows + 2)), np.empty((n_heads, rows + 2, dh))


def unfused_attend(q, k, v, n_heads, mask=None, past=None):
    if past is not None:   # (K buffer, V buffer, n) in attend's head layout
        kbuf, vbuf, n = past
        d, dh = k.shape[1], k.shape[1] // n_heads
        if n:   # out of place: the earlier rows concatenated before the new
            k = T.concat([Tensor(kbuf[:, :, :n].transpose(2, 0, 1).reshape(-1, d)), k])
            v = T.concat([Tensor(vbuf[:, :n].transpose(1, 0, 2).reshape(-1, d)), v])
        kbuf[:, :, :k.shape[0]] = k.data.reshape(-1, n_heads, dh).transpose(1, 2, 0)
        vbuf[:, :v.shape[0]] = v.data.reshape(-1, n_heads, dh).transpose(1, 0, 2)
    q, k, v = (split_heads(x, n_heads) for x in (q, k, v))
    scale = 1.0 / np.sqrt(q.shape[2])
    scores = T.mul(bmm(q, permute(k, (0, 2, 1))), scale)
    if mask is not None:
        scores = T.add(scores, Tensor(mask[None, :, :]))
    weights = softmax(scores, axis=-1)
    return merge_heads(bmm(weights, v)), weights.data


def run_with_grads(op, arrays, seed):
    """op(*leaves) -> (out, extra); backward of a weighted sum of out."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out, extra = op(*leaves)
    w = np.random.default_rng(seed).standard_normal(out.shape)
    T.tsum(T.mul(out, Tensor(w))).backward()
    return out.data, extra, [leaf.grad for leaf in leaves]


def assert_bit_equal(fused, unfused):
    (out_a, extra_a, grads_a), (out_b, extra_b, grads_b) = fused, unfused
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(extra_a, extra_b)
    for ga, gb in zip(grads_a, grads_b):
        assert ga.shape == gb.shape and np.array_equal(ga, gb)


def test_linear_matches_manual():
    rng = np.random.default_rng(0)
    store = ParamStore()
    init_linear(store, "fc", 4, 3, rng)
    x = rng.standard_normal((5, 4))
    got = linear(Tensor(x), store, "fc").data
    want = x @ store["fc.w"].data + store["fc.b"].data
    assert np.allclose(got, want, atol=1e-12)


def test_affine_is_bit_identical_to_matmul_add():
    rng = np.random.default_rng(30)
    arrays = [rng.standard_normal((7, 5)), rng.standard_normal((5, 6)),
              rng.standard_normal(6)]
    assert_bit_equal(
        run_with_grads(lambda x, w, b: (T.affine(x, w, b), None), arrays, 1),
        run_with_grads(lambda x, w, b: (unfused_affine(x, w, b), None),
                       arrays, 1))


@pytest.mark.parametrize("t_q,t_k,causal", [(9, 9, True), (3, 9, True),
                                            (4, 7, False), (6, 6, False)])
def test_attend_is_bit_identical_to_the_op_chain(t_q, t_k, causal):
    rng = np.random.default_rng(31 + t_q)
    # two heads of width 3: a scale that is not a power of two rounds
    arrays = [rng.standard_normal((t_q, 6)), rng.standard_normal((t_k, 6)),
              rng.standard_normal((t_k, 6))]
    mask = np.triu(np.full((t_q, t_k), NEG_INF), k=1 + t_k - t_q) \
        if causal else None
    assert_bit_equal(
        run_with_grads(lambda q, k, v: T.attend(q, k, v, 2, mask), arrays, 2),
        run_with_grads(lambda q, k, v: unfused_attend(q, k, v, 2, mask),
                       arrays, 2))


def test_attend_without_a_mask_equals_an_all_zero_mask():
    # adding 0.0 turns a -0.0 score into +0.0 and changes nothing else; exp
    # maps both to 1, so the values, weights and gradients are bit-equal
    rng = np.random.default_rng(36)
    q, k, v = (rng.standard_normal((t, 8)) for t in (3, 5, 5))
    q[0], k[0] = 0.0, 0.0
    q[0, 0], k[0, 0] = 1.0, -5e-324   # the score underflows to -0.0 once scaled
    scores = np.matmul(q[:, :4], k[:, :4].T) * 0.5   # head 0, scale 1/sqrt(4)
    assert (np.signbit(scores) & (scores == 0.0)).any()
    assert_bit_equal(
        run_with_grads(lambda q, k, v: T.attend(q, k, v, 2), [q, k, v], 3),
        run_with_grads(lambda q, k, v: T.attend(q, k, v, 2, np.zeros((3, 5))),
                       [q, k, v], 3))


@pytest.mark.parametrize("t_past,t_new,causal", [(4, 1, False), (4, 3, True),
                                                 (1, 6, True)])
def test_attend_with_past_equals_attend_over_all_keys(t_past, t_new, causal):
    # the cache keeps K and V in head layout; attending over it gives the
    # values, weights and new-row gradients of one pass over every key
    rng = np.random.default_rng(37 + t_new)
    q, k, v = (rng.standard_normal((t_new, 6)) for _ in range(3))
    k0, v0 = rng.standard_normal((t_past, 6)), rng.standard_normal((t_past, 6))
    t_k = t_past + t_new
    mask = np.triu(np.full((t_new, t_k), NEG_INF), k=1 + t_past) if causal else None

    def cached(q, k, v):
        kv = kv_buffers(t_k)
        T.attend(Tensor(k0), Tensor(k0), Tensor(v0), 2, None, (*kv, 0))
        out, weights = T.attend(q, k, v, 2, mask, (*kv, t_past))
        return out, (weights, kv)

    def full(q, k, v):
        k_all, v_all = T.concat([Tensor(k0), k]), T.concat([Tensor(v0), v])
        out, weights = T.attend(q, k_all, v_all, 2, mask)
        return out, (weights, k_all.data, v_all.data)

    got, (w_got, (kbuf, vbuf)), g_got = run_with_grads(cached, [q, k, v], 4)
    want, (w_want, k_all, v_all), g_want = run_with_grads(full, [q, k, v], 4)
    assert np.array_equal(got, want) and np.array_equal(w_got, w_want)
    assert all(np.array_equal(a, b) for a, b in zip(g_got, g_want))
    assert np.array_equal(kbuf[:, :, :t_k], k_all.reshape(t_k, 2, 3).transpose(1, 2, 0))
    assert np.array_equal(vbuf[:, :t_k], v_all.reshape(t_k, 2, 3).transpose(1, 0, 2))


def test_block_grads_match_the_unfused_tape(monkeypatch):
    # a causal block over cached past rows: every parameter and input
    # gradient equals the one the unfused op chains give, bit for bit
    rng = np.random.default_rng(33)
    store = ParamStore()
    init_block(store, "b", 6, rng)
    head, x = rng.standard_normal((3, 6)), rng.standard_normal((5, 6))
    w = rng.standard_normal((5, 6))

    def run():
        kv = kv_buffers(8)
        block(Tensor(head), store, "b", 2, causal=True, past=(*kv, 0))
        xt = Tensor(x, requires_grad=True)
        T.tsum(T.mul(block(xt, store, "b", 2, causal=True, past=(*kv, 3)),
                     Tensor(w))).backward()
        grads = {n: p.grad for n, p in store.params.items()}
        store.zero_grad()
        return xt.grad, grads

    fused_x, fused = run()
    monkeypatch.setattr(layers, "affine", unfused_affine)
    monkeypatch.setattr(layers, "attend", unfused_attend)
    chain_x, chain = run()
    assert np.array_equal(fused_x, chain_x)
    assert fused.keys() == chain.keys()
    assert all(np.array_equal(fused[n], chain[n]) for n in fused)


@pytest.mark.parametrize("t_past", [0, 3])
def test_causal_mask_is_the_triu_mask(monkeypatch, t_past):
    # the `key index > query position` mask equals the triu mask bit for
    # bit, so a block without query rows keeps its outputs and gradients; a
    # one-row step (cached or not) has no key in its future and skips the
    # mask, which the all-zero triu mask would only have added to
    rng = np.random.default_rng(34)
    store = ParamStore()
    init_block(store, "b", 6, rng)
    head = rng.standard_normal((t_past, 6))
    masks = []

    def run(x, w):
        kv = kv_buffers(t_past + len(x))
        if t_past:
            block(Tensor(head), store, "b", 2, causal=True, past=(*kv, 0))
        xt = Tensor(x, requires_grad=True)
        out = block(xt, store, "b", 2, causal=True, past=(*kv, t_past))
        T.tsum(T.mul(out, Tensor(w))).backward()
        grads = {n: p.grad for n, p in store.params.items()}
        store.zero_grad()
        return out.data, xt.grad, grads

    def triu_attend(q, k, v, n_heads, mask, past):
        t_k = k.shape[0] + past[2]
        want = np.triu(np.full((q.shape[0], t_k), NEG_INF), k=1 + t_k - q.shape[0])
        masks.append((mask, want))
        return T.attend(q, k, v, n_heads, want, past)

    for t_new in (5, 2, 1):
        x, w = rng.standard_normal((t_new, 6)), rng.standard_normal((t_new, 6))
        got = run(x, w)
        masks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(layers, "attend", triu_attend)
            want = run(x, w)
        assert len(masks) == (2 if t_past else 1)
        mask, triu = masks[-1]
        assert (mask is None) == (t_new == 1) and (mask is not None or not triu.any())
        assert all(np.array_equal(a, b) for a, b in masks if a is not None)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert all(np.array_equal(got[2][n], want[2][n]) for n in got[2])


@pytest.mark.parametrize("t_past", [0, 3])
def test_block_query_rows_match_the_full_block(t_past):
    rng = np.random.default_rng(35)
    store = ParamStore()
    init_block(store, "b", 6, rng)
    x = rng.standard_normal((t_past + 6, 6))
    rows = np.array([0, 2, 5])

    def run(rows):
        kbuf, vbuf = kv_buffers(len(x))
        if t_past:
            block(Tensor(x[:t_past]), store, "b", 2, causal=True, past=(kbuf, vbuf, 0))
        out = block(Tensor(x[t_past:]), store, "b", 2, causal=True,
                    past=(kbuf, vbuf, t_past), rows=rows)
        return out.data, (kbuf[:, :, :len(x)], vbuf[:, :len(x)])

    full, full_past = run(None)
    part, part_past = run(rows)
    assert part.shape == (3, 6)
    assert np.max(np.abs(part - full[rows])) <= 1e-12
    # the keys and values still cover every row
    for got, want in zip(part_past, full_past):
        assert np.array_equal(got, want)


def test_mlp_matches_manual():
    rng = np.random.default_rng(1)
    store = ParamStore()
    init_mlp(store, "m", 4, 8, rng)
    x = rng.standard_normal((3, 4))
    h = x @ store["m.fc1.w"].data + store["m.fc1.b"].data
    t = np.tanh(np.sqrt(2 / np.pi) * (h + 0.044715 * h ** 3))
    want = (0.5 * h * (1 + t)) @ store["m.fc2.w"].data + store["m.fc2.b"].data
    got = mlp_gelu(Tensor(x), store, "m").data
    assert np.allclose(got, want, atol=1e-12)


def test_attention_matches_scalar_oracle(attend_weights):
    # T=2, D=2, one head, every projection written out by hand
    store = ParamStore()
    rng = np.random.default_rng(3)
    init_attention(store, "a", 2, rng)
    x = np.array([[0.3, -0.7], [1.1, 0.4]])

    def proj(name):
        return x @ store[f"a.{name}.w"].data + store[f"a.{name}.b"].data

    q, k, v = proj("q"), proj("k"), proj("v")
    scores = (q @ k.T) / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    want = (w @ v) @ store["a.o.w"].data + store["a.o.b"].data

    got = attention(Tensor(x), Tensor(x), store, "a", n_heads=1)
    assert np.allclose(got.data, want, atol=1e-12)
    [attn] = attend_weights
    assert np.allclose(attn[0], w, atol=1e-12)


def test_causal_future_is_bit_invisible():
    rng = np.random.default_rng(4)
    store = ParamStore()
    init_attention(store, "a", 8, rng)
    x = rng.standard_normal((6, 8))
    y = x.copy()
    y[4:] += 100.0  # rewrite the future
    out_x = attention(Tensor(x), Tensor(x), store, "a", 2, causal=True).data
    out_y = attention(Tensor(y), Tensor(y), store, "a", 2, causal=True).data
    assert np.array_equal(out_x[:4], out_y[:4])
    assert not np.array_equal(out_x[4:], out_y[4:])


@pytest.mark.parametrize("t0", [1, 4, 6])
def test_attention_with_past_matches_full_causal_rows(t0):
    rng = np.random.default_rng(12)
    store = ParamStore()
    init_attention(store, "a", 8, rng)
    x = rng.standard_normal((7, 8))
    full = attention(Tensor(x), Tensor(x), store, "a", 2, causal=True).data
    kbuf, vbuf = kv_buffers(7, d=8)

    def written(rows, name):   # the K or V rows of x[rows], in head layout
        kv = linear(Tensor(x[rows]), store, f"a.{name}").data.reshape(-1, 2, 4)
        return kv.transpose(1, 2, 0) if name == "k" else kv.transpose(1, 0, 2)

    head = attention(Tensor(x[:t0]), Tensor(x[:t0]), store, "a", 2,
                     causal=True, past=(kbuf, vbuf, 0))
    assert np.array_equal(kbuf[:, :, :t0], written(slice(0, t0), "k"))
    assert np.array_equal(vbuf[:, :t0], written(slice(0, t0), "v"))
    tail = attention(Tensor(x[t0:]), Tensor(x[t0:]), store, "a", 2,
                     causal=True, past=(kbuf, vbuf, t0))
    assert kbuf.shape == (2, 4, 9) and vbuf.shape == (2, 9, 4)   # written in place
    assert np.array_equal(kbuf[:, :, :t0], written(slice(0, t0), "k"))
    assert np.array_equal(kbuf[:, :, t0:7], written(slice(t0, 7), "k"))
    assert np.array_equal(vbuf[:, t0:7], written(slice(t0, 7), "v"))
    # fewer rows may take another BLAS kernel: equal up to rounding only
    assert np.max(np.abs(head.data - full[:t0])) <= 1e-12
    assert np.max(np.abs(tail.data - full[t0:])) <= 1e-12


def test_causal_first_row_attends_only_itself(attend_weights):
    rng = np.random.default_rng(5)
    store = ParamStore()
    init_attention(store, "a", 4, rng)
    x = rng.standard_normal((3, 4))
    attention(Tensor(x), Tensor(x), store, "a", 1, causal=True)
    [w] = attend_weights
    assert w[0, 0, 0] == 1.0
    assert np.all(w[0, 0, 1:] == 0.0)  # exp(-1e9) underflows to exactly 0
    assert np.allclose(w[0].sum(axis=-1), 1.0)


def test_zero_out_proj_silences_attention():
    rng = np.random.default_rng(6)
    store = ParamStore()
    init_attention(store, "a", 4, rng, zero_out_proj=True)
    x = rng.standard_normal((5, 4))
    out = attention(Tensor(x), Tensor(x), store, "a", 2).data
    assert np.array_equal(out, np.zeros((5, 4)))


def test_cross_attention_shapes():
    rng = np.random.default_rng(7)
    store = ParamStore()
    init_attention(store, "a", 6, rng)
    q = rng.standard_normal((2, 6))
    kv = rng.standard_normal((9, 6))
    out = attention(Tensor(q), Tensor(kv), store, "a", 3).data
    assert out.shape == (2, 6)


def test_attention_head_divisibility_error():
    store = ParamStore()
    init_attention(store, "a", 6, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="heads"):
        attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))),
                  store, "a", 4)


def test_block_is_residual_composition():
    rng = np.random.default_rng(8)
    store = ParamStore()
    init_block(store, "b", 8, rng)
    x = rng.standard_normal((4, 8))

    def ln(a):
        mu = a.mean(-1, keepdims=True)
        return (a - mu) / np.sqrt(a.var(-1, keepdims=True) + 1e-5)

    h = ln(x)
    a1 = attention(Tensor(h), Tensor(h), store, "b.attn", 2).data
    mid = x + a1
    want = mid + mlp_gelu(Tensor(ln(mid)), store, "b.mlp").data
    got = block(Tensor(x), store, "b", 2).data
    assert np.allclose(got, want, atol=1e-12)


def test_patchify_row_major_oracle():
    img = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3)
    got = patchify(img, 2)
    assert got.shape == (4, 12)
    for t, (gr, gc) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        tile = img[gr * 2:(gr + 1) * 2, gc * 2:(gc + 1) * 2]
        assert np.array_equal(got[t], tile.reshape(-1)), t


def test_patchify_errors():
    with pytest.raises(ShapeError, match="divisible"):
        patchify(np.zeros((6, 6, 3)), 4)
    with pytest.raises(ShapeError, match="HxWx3"):
        patchify(np.zeros((4, 4)), 2)
