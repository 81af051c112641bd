"""Dual-encoder feature extraction with cross-attention fusion.

Two small vision transformers read the same image: a semantic branch and a
pixel branch. Each branch is projected to the common model width, the
semantic features absorb the pixel features through multi-head cross
attention with a residual, and the two branches are concatenated along the
token axis into the global feature fed to the language model. Region crops
go through the semantic branch only.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import layers
from .store import ParamStore
from .tensor import Tensor, ShapeError, add, concat, layer_norm, tslice


@dataclass
class FeatureGrid:
    """T x D token features; `grid` records the patch layout when spatial."""
    values: Tensor
    grid: tuple[int, int] | None = None

    @property
    def tokens(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def check_image(img: np.ndarray, patch: int) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"image must be HxWx3, got {img.shape}")
    if img.shape[0] % patch or img.shape[1] % patch:
        raise ShapeError(
            f"image dims {img.shape[:2]} not divisible by patch {patch}")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("image values must lie in [0,1]")
    return img


def image_key(img: np.ndarray) -> tuple:
    """Memo key of an image `check_image` returned: shape and pixel digest."""
    return img.shape, hashlib.blake2b(img.tobytes()).digest()


def init_encoder(store: ParamStore, prefix: str, d_enc: int, patch: int,
                 max_tokens: int, n_blocks: int,
                 rng: np.random.Generator) -> None:
    layers.init_linear(store, f"{prefix}.patch", patch * patch * 3, d_enc, rng)
    store.add(f"{prefix}.pos", Tensor(rng.standard_normal((max_tokens, d_enc)) * 0.02))
    for i in range(n_blocks):
        layers.init_block(store, f"{prefix}.blk{i}", d_enc, rng)


def encode(img: np.ndarray, store: ParamStore, cfg, prefix: str,
           key: Callable | None = None) -> FeatureGrid:
    """Run one encoder branch (`sem_enc` or `pix_enc`): patch embed +
    positions + blocks + final norm. While the branch is frozen, a repeated
    input returns the stored output; `key`, when given, returns the image's
    `image_key` for that memo."""
    img = check_image(img, cfg.patch)
    memo = store.frozen_memo((f"{prefix}.",))
    if memo is not None:
        key = (prefix, *(key() if key else image_key(img)))
        if key in memo:
            return memo[key]
    gh, gw = img.shape[0] // cfg.patch, img.shape[1] // cfg.patch
    flat = layers.patchify(img, cfg.patch)
    x = layers.linear(Tensor(flat), store, f"{prefix}.patch")
    pos = store[f"{prefix}.pos"]
    if gh * gw > pos.shape[0]:
        raise ShapeError(
            f"{prefix}: {gh * gw} tokens exceed positional table {pos.shape[0]}")
    x = add(x, tslice(pos, slice(0, gh * gw)))
    for i in range(cfg.enc_blocks):
        x = layers.block(x, store, f"{prefix}.blk{i}", cfg.n_heads)
    out = FeatureGrid(layer_norm(x), grid=(gh, gw))
    if memo is not None:
        memo[key] = out
    return out


def init_sefe(store: ParamStore, cfg, rng: np.random.Generator) -> None:
    max_tokens = (cfg.canvas // cfg.patch) ** 2
    init_encoder(store, "sem_enc", cfg.d_sem, cfg.patch, max_tokens,
                 cfg.enc_blocks, rng)
    init_encoder(store, "pix_enc", cfg.d_pix, cfg.patch, max_tokens,
                 cfg.enc_blocks, rng)
    layers.init_mlp(store, "mlp_s", cfg.d_sem, cfg.d_model, rng, cfg.d_model)
    layers.init_mlp(store, "mlp_p", cfg.d_pix, cfg.d_model, rng, cfg.d_model)
    # zero output projection: fusion starts as the identity on f_s
    layers.init_attention(store, "mhca", cfg.d_model, rng, zero_out_proj=True)


def project(f: FeatureGrid, which: str, store: ParamStore) -> FeatureGrid:
    """Map branch features to the common model width via the branch MLP."""
    prefix = {"semantic": "mlp_s", "pixel": "mlp_p"}.get(which)
    if prefix is None:
        raise ValueError(f"project: unknown branch {which!r}")
    want = store[f"{prefix}.fc1.w"].shape[0]
    if f.dim != want:
        raise ShapeError(f"project[{which}]: width {f.dim}, MLP expects {want}")
    return FeatureGrid(layers.mlp_gelu(f.values, store, prefix), grid=f.grid)


def fuse(f_s: FeatureGrid, f_p: FeatureGrid, store: ParamStore,
         n_heads: int) -> FeatureGrid:
    """Residual cross-attention: f_s + MHCA(Q=f_p, K=f_s, V=f_s)."""
    if f_s.tokens != f_p.tokens:
        raise ShapeError(
            f"fuse: token counts differ, {f_s.tokens} vs {f_p.tokens}")
    if f_s.dim != f_p.dim:
        raise ShapeError(f"fuse: widths differ, {f_s.dim} vs {f_p.dim}")
    att = layers.attention(f_p.values, f_s.values, store, "mhca", n_heads)
    return FeatureGrid(add(f_s.values, att), grid=f_s.grid)


def sefe_forward(img, store: ParamStore, cfg) -> tuple[FeatureGrid, FeatureGrid]:
    """Full front end: returns (global feature 2TxD, raw pixel features TxD_p).

    The raw pixel grid goes to the mask decoder; the concatenated global
    feature goes to the language model.
    """
    # one lazy digest keys both branches, taken only when a frozen memo asks
    key = functools.cache(lambda: image_key(check_image(img, cfg.patch)))
    f_s_raw = encode(img, store, cfg, "sem_enc", key)
    f_p_raw = encode(img, store, cfg, "pix_enc", key)
    f_s = project(f_s_raw, "semantic", store)
    f_p = project(f_p_raw, "pixel", store)
    fused = fuse(f_s, f_p, store, cfg.n_heads)
    global_feat = FeatureGrid(concat([fused.values, f_p.values]))
    return global_feat, f_p_raw


def encode_local(region, store: ParamStore, cfg) -> FeatureGrid:
    """Semantic-branch-only encoding for a cropped region."""
    region = np.asarray(region, dtype=np.float64)
    if region.shape[0] != cfg.local_res or region.shape[1] != cfg.local_res:
        raise ShapeError(
            f"encode_local: region {region.shape[:2]}, expected "
            f"{(cfg.local_res, cfg.local_res)}")
    return project(encode(region, store, cfg, "sem_enc"), "semantic", store)
