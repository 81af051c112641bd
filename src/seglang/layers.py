"""Shared neural building blocks: linear maps, attention, transformer blocks.

Everything here is a pure function from (inputs, ParamStore, name prefix) to
Tensors; parameter creation lives next to use via the `init_*` helpers so a
model assembles itself by calling them in a fixed order.
"""

from __future__ import annotations

import numpy as np

from .store import ParamStore
from .tensor import (Tensor, ShapeError, add, concat, gelu, layer_norm, matmul,
                     mul, randn, reshape, softmax, tensor, transpose, zeros)

NEG_INF = -1e9  # additive mask value; exp underflows to exactly 0.0


# ---- parameter initialization ----------------------------------------------

def init_linear(store: ParamStore, prefix: str, d_in: int, d_out: int,
                rng: np.random.Generator, std: float = 0.02,
                zero: bool = False) -> None:
    w = zeros((d_in, d_out)) if zero else randn((d_in, d_out), rng, std)
    store.add(f"{prefix}.w", w)
    store.add(f"{prefix}.b", zeros((d_out,)))


def init_attention(store: ParamStore, prefix: str, d: int,
                   rng: np.random.Generator, zero_out_proj: bool = False) -> None:
    for name in ("q", "k", "v"):
        init_linear(store, f"{prefix}.{name}", d, d, rng)
    init_linear(store, f"{prefix}.o", d, d, rng, zero=zero_out_proj)


def init_mlp(store: ParamStore, prefix: str, d: int, d_hidden: int,
             rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.fc1", d, d_hidden, rng)
    init_linear(store, f"{prefix}.fc2", d_hidden, d, rng)


def init_proj_mlp(store: ParamStore, prefix: str, d_in: int, d_out: int,
                  rng: np.random.Generator) -> None:
    """Width-changing two-layer projection: d_in -> d_out -> d_out."""
    init_linear(store, f"{prefix}.fc1", d_in, d_out, rng)
    init_linear(store, f"{prefix}.fc2", d_out, d_out, rng)


def init_block(store: ParamStore, prefix: str, d: int,
               rng: np.random.Generator) -> None:
    init_attention(store, f"{prefix}.attn", d, rng)
    init_mlp(store, f"{prefix}.mlp", d, 4 * d, rng)


# ---- forward pieces --------------------------------------------------------

def linear(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return add(matmul(x, store[f"{prefix}.w"]), store[f"{prefix}.b"])


def mlp_gelu(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Two-layer GELU MLP: fc2(gelu(fc1(x)))."""
    return linear(gelu(linear(x, store, f"{prefix}.fc1")), store, f"{prefix}.fc2")


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """TxD -> n_heads x T x d_head."""
    t, d = x.shape
    return transpose(reshape(x, (t, n_heads, d // n_heads)), (1, 0, 2))


def merge_heads(x: Tensor) -> Tensor:
    """n_heads x T x d_head -> TxD."""
    h, t, dh = x.shape
    return reshape(transpose(x, (1, 0, 2)), (t, h * dh))


def attention(q_in: Tensor, kv_in: Tensor, store: ParamStore, prefix: str,
              n_heads: int, causal: bool = False, return_attn: bool = False,
              past: dict | None = None):
    """Multi-head attention; `q_in` attends over `kv_in` (equal for self).

    q_in: T_q x D, kv_in: T_k x D. Causal masking adds NEG_INF above the
    diagonal, which underflows to an exact zero weight, so future positions
    contribute nothing bit-wise. `past`, when given, holds the K and V
    (heads x rows x d_head arrays, no tape) of the rows before `kv_in`: the
    queries attend over past + new rows, the mask's diagonal shifts by the
    past length, and `past` is updated to cover the new rows too.
    """
    d = q_in.shape[-1]
    if d % n_heads != 0:
        raise ShapeError(f"attention: width {d} not divisible by {n_heads} heads")
    q = split_heads(linear(q_in, store, f"{prefix}.q"), n_heads)
    k = split_heads(linear(kv_in, store, f"{prefix}.k"), n_heads)
    v = split_heads(linear(kv_in, store, f"{prefix}.v"), n_heads)
    if past is not None:
        if past:
            k = concat([tensor(past["k"]), k], axis=1)
            v = concat([tensor(past["v"]), v], axis=1)
        past["k"], past["v"] = k.data, v.data
    scores = mul(matmul(q, transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d // n_heads))
    if causal:
        t_q, t_k = q.shape[1], k.shape[1]
        mask = np.triu(np.full((t_q, t_k), NEG_INF), k=1 + t_k - t_q)
        scores = add(scores, tensor(mask[None, :, :]))
    weights = softmax(scores, axis=-1)
    out = linear(merge_heads(matmul(weights, v)), store, f"{prefix}.o")
    if return_attn:
        return out, weights.data.copy()
    return out


def block(x: Tensor, store: ParamStore, prefix: str, n_heads: int,
          causal: bool = False, past: dict | None = None) -> Tensor:
    """Pre-norm transformer block: attention residual, then MLP residual."""
    h = layer_norm(x)
    x = add(x, attention(h, h, store, f"{prefix}.attn", n_heads, causal=causal,
                         past=past))
    x = add(x, mlp_gelu(layer_norm(x), store, f"{prefix}.mlp"))
    return x


# ---- patch extraction ------------------------------------------------------

def patchify(img: np.ndarray, patch: int) -> np.ndarray:
    """HxWx3 float image -> T x (patch*patch*3), row-major over the patch grid.

    T = (H/patch)*(W/patch); raises on indivisible dims.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"patchify: need HxWx3, got {img.shape}")
    h, w = img.shape[:2]
    if h % patch or w % patch:
        raise ShapeError(f"patchify: dims {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = img.reshape(gh, patch, gw, patch, 3).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(tiles.reshape(gh * gw, patch * patch * 3))
