"""Building blocks: linear, attention (hand oracle), causal masking, patchify."""

import numpy as np
import pytest

from seglang.layers import (attention, block, init_attention, init_block,
                            init_linear, init_mlp, linear, merge_heads,
                            mlp_gelu, patchify, split_heads)
from seglang.store import ParamStore
from seglang.tensor import ShapeError, Tensor


def test_linear_matches_manual():
    rng = np.random.default_rng(0)
    store = ParamStore()
    init_linear(store, "fc", 4, 3, rng)
    x = rng.standard_normal((5, 4))
    got = linear(Tensor(x), store, "fc").data
    want = x @ store["fc.w"].data + store["fc.b"].data
    assert np.allclose(got, want, atol=1e-12)


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


def test_head_split_merge_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 8))
    back = merge_heads(split_heads(Tensor(x), 4)).data
    assert np.array_equal(back, x)
    heads = split_heads(Tensor(x), 2).data
    assert np.array_equal(heads[0, 3], x[3, :4])
    assert np.array_equal(heads[1, 3], x[3, 4:])


def test_attention_matches_scalar_oracle():
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

    got, attn = attention(Tensor(x), Tensor(x), store, "a", n_heads=1,
                          return_attn=True)
    assert np.allclose(got.data, want, atol=1e-12)
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
    past: dict = {}
    head = attention(Tensor(x[:t0]), Tensor(x[:t0]), store, "a", 2,
                     causal=True, past=past)
    assert past["k"].shape == (2, t0, 4)
    tail = attention(Tensor(x[t0:]), Tensor(x[t0:]), store, "a", 2,
                     causal=True, past=past)
    assert past["k"].shape == past["v"].shape == (2, 7, 4)
    # fewer rows may take another BLAS kernel: equal up to rounding only
    assert np.max(np.abs(head.data - full[:t0])) <= 1e-12
    assert np.max(np.abs(tail.data - full[t0:])) <= 1e-12


def test_causal_first_row_attends_only_itself():
    rng = np.random.default_rng(5)
    store = ParamStore()
    init_attention(store, "a", 4, rng)
    x = rng.standard_normal((3, 4))
    _, w = attention(Tensor(x), Tensor(x), store, "a", 1, causal=True,
                     return_attn=True)
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
