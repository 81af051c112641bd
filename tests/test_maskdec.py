"""Pixel decoder: per-patch dot-product oracle, upsampling, thresholding."""

import numpy as np
import pytest

from seglang.maskdec import binarize, decode_mask, init_pixel_decoder
from seglang.sefe import FeatureGrid
from seglang.store import ParamStore
from seglang.tensor import ShapeError, Tensor
from seglang.suites import make_toy_config


def setup_decoder(seed=0):
    cfg = make_toy_config(0)
    store = ParamStore()
    init_pixel_decoder(store, cfg, np.random.default_rng(seed))
    return cfg, store


def test_decode_matches_manual_computation():
    cfg, store = setup_decoder(1)
    rng = np.random.default_rng(2)
    hidden = rng.standard_normal(cfg.d_model)
    feats = rng.standard_normal((4, cfg.d_pix))
    grid = FeatureGrid(Tensor(feats), grid=(2, 2))

    out = decode_mask(Tensor(hidden), grid, (8, 8), store).data

    query = hidden @ store["segproj.w"].data + store["segproj.b"].data
    logits = feats @ query + float(store["segproj.bias"].data)
    probs = 1.0 / (1.0 + np.exp(-logits.reshape(2, 2)))
    want = np.repeat(np.repeat(probs, 4, axis=0), 4, axis=1)
    assert out.shape == (8, 8)
    assert np.allclose(out, want, atol=1e-12)


def test_decode_upsample_blocks_are_constant():
    cfg, store = setup_decoder(3)
    rng = np.random.default_rng(4)
    grid = FeatureGrid(Tensor(rng.standard_normal((4, cfg.d_pix))), grid=(2, 2))
    out = decode_mask(Tensor(rng.standard_normal(cfg.d_model)), grid,
                      (6, 10), store).data
    assert out.shape == (6, 10)
    for bi in range(2):
        for bj in range(2):
            blockvals = out[bi * 3:(bi + 1) * 3, bj * 5:(bj + 1) * 5]
            assert np.all(blockvals == blockvals[0, 0])


def test_decode_is_differentiable_to_hidden():
    cfg, store = setup_decoder(5)
    rng = np.random.default_rng(6)
    hidden = Tensor(rng.standard_normal(cfg.d_model), requires_grad=True)
    grid = FeatureGrid(Tensor(rng.standard_normal((4, cfg.d_pix))), grid=(2, 2))
    from seglang.tensor import tsum
    tsum(decode_mask(hidden, grid, (4, 4), store)).backward()
    assert hidden.grad is not None
    assert np.abs(hidden.grad).sum() > 0


def test_decode_validation():
    cfg, store = setup_decoder(7)
    rng = np.random.default_rng(8)
    hidden = Tensor(rng.standard_normal(cfg.d_model))
    no_grid = FeatureGrid(Tensor(rng.standard_normal((4, cfg.d_pix))))
    with pytest.raises(ShapeError, match="no patch grid"):
        decode_mask(hidden, no_grid, (8, 8), store)
    grid = FeatureGrid(Tensor(rng.standard_normal((4, cfg.d_pix))), grid=(2, 2))
    with pytest.raises(ShapeError, match="not a multiple"):
        decode_mask(hidden, grid, (7, 8), store)
    with pytest.raises(ShapeError, match="projector expects"):
        decode_mask(Tensor(np.zeros(cfg.d_model + 1)), grid, (8, 8), store)


def test_binarize_is_strictly_greater():
    vals = np.array([[0.4999, 0.5], [0.5001, 1.0]])
    out = binarize(vals, 0.5)
    assert out.dtype == bool
    assert np.array_equal(out, [[False, False], [True, True]])
    assert np.array_equal(binarize(Tensor(vals), 0.5), out)
