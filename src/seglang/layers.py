"""Shared neural building blocks: linear maps, attention, transformer blocks.

Everything here is a pure function from (inputs, ParamStore, name prefix) to
Tensors; parameter creation lives next to use via the `init_*` helpers so a
model assembles itself by calling them in a fixed order.
"""

from __future__ import annotations

import numpy as np

from .store import ParamStore
from .tensor import (Tensor, ShapeError, add, affine, attend, gelu,
                     layer_norm, randn, tslice, zeros)

NEG_INF = -1e9  # additive mask value; exp underflows to exactly 0.0
_INIT_STD = 0.02  # std of init_linear's random weights


# ---- parameter initialization ----------------------------------------------

def init_linear(store: ParamStore, prefix: str, d_in: int, d_out: int,
                rng: np.random.Generator, zero: bool = False) -> None:
    w = zeros((d_in, d_out)) if zero else randn((d_in, d_out), rng, _INIT_STD)
    store.add(f"{prefix}.w", w)
    store.add(f"{prefix}.b", zeros((d_out,)))


def init_attention(store: ParamStore, prefix: str, d: int,
                   rng: np.random.Generator, zero_out_proj: bool = False) -> None:
    for name in ("q", "k", "v"):
        init_linear(store, f"{prefix}.{name}", d, d, rng)
    init_linear(store, f"{prefix}.o", d, d, rng, zero=zero_out_proj)


def init_mlp(store: ParamStore, prefix: str, d: int, d_hidden: int,
             rng: np.random.Generator, d_out: int | None = None) -> None:
    """Two-layer MLP d -> d_hidden -> d_out (d_out defaults to d)."""
    init_linear(store, f"{prefix}.fc1", d, d_hidden, rng)
    init_linear(store, f"{prefix}.fc2", d_hidden, d_out or d, rng)


def init_block(store: ParamStore, prefix: str, d: int,
               rng: np.random.Generator) -> None:
    init_attention(store, f"{prefix}.attn", d, rng)
    init_mlp(store, f"{prefix}.mlp", d, 4 * d, rng)


# ---- forward pieces --------------------------------------------------------

def linear(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return affine(x, store[f"{prefix}.w"], store[f"{prefix}.b"])


def mlp_gelu(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Two-layer GELU MLP: fc2(gelu(fc1(x)))."""
    return linear(gelu(linear(x, store, f"{prefix}.fc1")), store, f"{prefix}.fc2")


def attention(q_in: Tensor, kv_in: Tensor, store: ParamStore, prefix: str,
              n_heads: int, causal: bool = False, past: tuple | None = None,
              rows=None) -> Tensor:
    """Multi-head attention; `q_in` attends over `kv_in` (equal for self).

    q_in: T_q x D, kv_in: T_k x D; `rows`, when given, picks the query rows
    of `q_in`. Causal masking adds NEG_INF where a key's index exceeds the
    query's position, which underflows to an exact zero weight, so future
    positions contribute nothing bit-wise. `past`, when given, is `attend`'s
    (K buffer, V buffer, n) whose first n rows precede `kv_in`: the queries
    attend over those and the new rows, which are written after them.
    """
    q = linear(q_in if rows is None else tslice(q_in, rows), store, f"{prefix}.q")
    k = linear(kv_in, store, f"{prefix}.k")
    v = linear(kv_in, store, f"{prefix}.v")
    t, n_keys = q_in.shape[0], k.shape[0] + (0 if past is None else past[2])
    mask = None   # only a query before the last row has keys in its future to mask
    if causal and (t > 1 if rows is None else (np.asarray(rows) < t - 1).any()):
        at = np.arange(t) if rows is None else np.asarray(rows)
        mask = np.where(np.arange(n_keys) > at[:, None] + n_keys - t, NEG_INF, 0.0)
    heads, _ = attend(q, k, v, n_heads, mask, past)
    return linear(heads, store, f"{prefix}.o")


def block(x: Tensor, store: ParamStore, prefix: str, n_heads: int,
          causal: bool = False, past: tuple | None = None, rows=None) -> Tensor:
    """Pre-norm transformer block: attention residual, then MLP residual.
    Only `rows` of x (all when None) run the queries, residuals and MLP."""
    h = layer_norm(x)
    x = add(x if rows is None else tslice(x, rows), attention(
        h, h, store, f"{prefix}.attn", n_heads, causal=causal, past=past, rows=rows))
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
