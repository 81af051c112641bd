"""Front end: encoder branches, width projections, cross-attention fusion."""

import numpy as np
import pytest

from seglang import layers, sefe
from seglang.model import STAGE_PREFIXES, Model
from seglang.scenes import default_vocab
from seglang.sefe import (FeatureGrid, check_image, encode, encode_local, fuse,
                          init_sefe, project, sefe_forward)
from seglang.store import ParamStore
from seglang.tensor import ShapeError, Tensor
from seglang.suites import make_toy_config, make_toy_sample


def fresh(seed=0):
    cfg = make_toy_config(seed)
    store = ParamStore()
    init_sefe(store, cfg, np.random.default_rng(seed))
    return cfg, store


def test_encoder_shapes_and_grid():
    cfg, store = fresh()
    rng = np.random.default_rng(1)
    img = rng.random((cfg.canvas, cfg.canvas, 3))
    side = cfg.canvas // cfg.patch
    f_s = encode(img, store, cfg, "sem_enc")
    f_p = encode(img, store, cfg, "pix_enc")
    assert f_s.grid == (side, side) and f_s.values.shape == (side * side, cfg.d_sem)
    assert f_p.grid == (side, side) and f_p.values.shape == (side * side, cfg.d_pix)


def test_local_crop_uses_position_prefix():
    # a local crop has fewer tokens; it must read rows [0:T) of the table
    cfg, store = fresh()
    rng = np.random.default_rng(2)
    region = rng.random((cfg.local_res, cfg.local_res, 3))
    before = encode(region, store, cfg, "sem_enc").values.data.copy()
    t_local = (cfg.local_res // cfg.patch) ** 2
    store["sem_enc.pos"].data[t_local:] += 7.0  # rows past the crop length
    after = encode(region, store, cfg, "sem_enc").values.data.copy()
    assert np.array_equal(before, after)
    store["sem_enc.pos"].data[0] += 1.0
    again = encode(region, store, cfg, "sem_enc").values.data.copy()
    assert not np.array_equal(before, again)


def test_projection_maps_widths():
    cfg, store = fresh()
    rng = np.random.default_rng(3)
    img = rng.random((cfg.canvas, cfg.canvas, 3))
    f_s = project(encode(img, store, cfg, "sem_enc"), "semantic", store)
    f_p = project(encode(img, store, cfg, "pix_enc"), "pixel", store)
    assert f_s.dim == cfg.d_model and f_p.dim == cfg.d_model
    assert f_s.grid == f_p.grid
    with pytest.raises(ShapeError, match="width"):
        project(f_s, "pixel", store)  # already at model width, not d_pix
    with pytest.raises(ValueError, match="unknown branch"):
        project(f_s, "fused", store)


def test_fuse_residual_identity_with_zero_out_proj():
    # fresh init zeroes the MHCA output projection, so fusion must be the
    # identity on the semantic branch, bit for bit
    cfg, store = fresh()
    rng = np.random.default_rng(4)
    for _ in range(10):
        vals = rng.standard_normal((9, cfg.d_model))
        f_s = FeatureGrid(Tensor(vals.copy()), grid=(3, 3))
        f_p = FeatureGrid(Tensor(rng.standard_normal((9, cfg.d_model))), grid=(3, 3))
        fused = fuse(f_s, f_p, store, cfg.n_heads)
        assert np.array_equal(fused.values.data, vals)
        assert fused.grid == (3, 3)


def test_fuse_moves_once_out_proj_is_nonzero(attend_weights):
    cfg, store = fresh()
    rng = np.random.default_rng(5)
    store["mhca.o.w"].data = rng.standard_normal(store["mhca.o.w"].shape) * 0.1
    vals = rng.standard_normal((4, cfg.d_model))
    f_s = FeatureGrid(Tensor(vals.copy()))
    f_p = FeatureGrid(Tensor(rng.standard_normal((4, cfg.d_model))))
    fused = fuse(f_s, f_p, store, cfg.n_heads)
    [weights] = attend_weights
    assert not np.array_equal(fused.values.data, vals)
    assert weights.shape == (cfg.n_heads, 4, 4)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_fuse_validates_tokens_and_width():
    cfg, store = fresh()
    a = FeatureGrid(Tensor(np.zeros((4, cfg.d_model))))
    b = FeatureGrid(Tensor(np.zeros((5, cfg.d_model))))
    with pytest.raises(ShapeError, match="token counts"):
        fuse(a, b, store, cfg.n_heads)
    c = FeatureGrid(Tensor(np.zeros((4, cfg.d_model + 1))))
    with pytest.raises(ShapeError, match="widths"):
        fuse(a, c, store, cfg.n_heads)


def test_sefe_forward_concatenates_token_axis():
    cfg, store = fresh()
    rng = np.random.default_rng(6)
    img = rng.random((cfg.canvas, cfg.canvas, 3))
    global_feat, f_p_raw = sefe_forward(img, store, cfg)
    t = (cfg.canvas // cfg.patch) ** 2
    assert global_feat.values.shape == (2 * t, cfg.d_model)
    assert global_feat.grid is None          # two stacked grids, no single layout
    assert f_p_raw.values.shape == (t, cfg.d_pix)
    assert f_p_raw.grid == (cfg.canvas // cfg.patch, cfg.canvas // cfg.patch)
    # second half is the projected pixel branch, before fusion
    f_p = project(encode(img, store, cfg, "pix_enc"), "pixel", store)
    assert np.array_equal(global_feat.values.data[t:], f_p.values.data)


def test_semantic_perturbation_reaches_fused_half():
    cfg, store = fresh()
    rng = np.random.default_rng(7)
    img = rng.random((cfg.canvas, cfg.canvas, 3))
    base, _ = sefe_forward(img, store, cfg)
    store["sem_enc.patch.w"].data += 0.05
    moved, _ = sefe_forward(img, store, cfg)
    t = (cfg.canvas // cfg.patch) ** 2
    assert not np.array_equal(base.values.data[:t], moved.values.data[:t])
    assert np.array_equal(base.values.data[t:], moved.values.data[t:])


def test_encode_local_is_semantic_only():
    cfg, store = fresh()
    rng = np.random.default_rng(8)
    region = rng.random((cfg.local_res, cfg.local_res, 3))
    base = encode_local(region, store, cfg).values.data.copy()
    store["pix_enc.patch.w"].data += 1.0
    store["mlp_p.fc1.w"].data += 1.0
    assert np.array_equal(base, encode_local(region, store, cfg).values.data.copy())
    with pytest.raises(ShapeError, match="encode_local"):
        encode_local(rng.random((cfg.local_res + cfg.patch,
                                 cfg.local_res, 3)), store, cfg)


def test_check_image_validation():
    with pytest.raises(ShapeError, match="HxWx3"):
        check_image(np.zeros((8, 8)), 8)
    with pytest.raises(ShapeError, match="divisible"):
        check_image(np.zeros((12, 8, 3)), 8)
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        check_image(np.full((8, 8, 3), 1.5), 8)
    nan = np.full((64, 64, 3), 0.5)
    nan[3, 5, 1] = np.nan   # compares False against both bounds
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        check_image(nan, 8)


def test_model_init_is_seed_deterministic():
    vocab = default_vocab()
    cfg = make_toy_config(3)
    m1 = Model(cfg, vocab, np.random.default_rng(42))
    m2 = Model(cfg, vocab, np.random.default_rng(42))
    assert list(m1.store.params) == list(m2.store.params)
    for name in list(m1.store.params):
        assert np.array_equal(m1.store[name].data, m2.store[name].data), name


# ---- frozen-encoder memo ---------------------------------------------------

def stage2_toy(seed=4):
    vocab = default_vocab()
    cfg = make_toy_config(seed)
    rng = np.random.default_rng(seed)
    model = Model(cfg, vocab, rng)
    model.configure_trainable(2)
    sample = make_toy_sample(cfg, rng, vocab, n_regions=2, ilvc=True,
                             with_response=True)
    return model, sample


def loss_and_grads(model, sample):
    model.store.zero_grad()
    report = model.sample_loss(sample)
    report.total.backward()
    return report.total.data.copy(), {
        n: model.store[n].grad.copy() for n in list(model.store.params)
        if model.store[n].requires_grad and model.store[n].grad is not None}


def encoder_entries(store):
    return sum(len(store.frozen_memo((f"{b}.",)) or {}) for b in ("sem_enc", "pix_enc"))


def test_memo_serves_bit_identical_loss_and_grads(encoder_calls):
    model, sample = stage2_toy()
    runs, _ = encoder_calls
    want_loss, want_grads = loss_and_grads(model, sample)   # every encode misses
    assert want_grads
    misses = len(runs)
    assert misses == encoder_entries(model.store) >= 4      # 2 branches + crops
    loss, grads = loss_and_grads(model, sample)
    assert len(runs) == misses                              # every encode was served
    assert np.array_equal(loss, want_loss)
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, want_grads[name]), name


def test_image_digest_only_when_a_frozen_memo_reads_it(monkeypatch):
    digests = []
    real_key = sefe.image_key
    monkeypatch.setattr(sefe, "image_key",
                        lambda img: digests.append(1) or real_key(img))
    model, sample = stage2_toy()
    cold = Model(model.cfg, model.vocab)     # every parameter requires grad
    for _ in range(3):
        cold.encode_image(sample.image)
    assert digests == []
    for calls in (1, 2, 3):                  # both branches share one digest
        model.encode_image(sample.image)
        assert len(digests) == calls


def test_memo_refuses_trainable_encoder(encoder_calls):
    model, sample = stage2_toy()
    model.store.set_trainable(("sem_enc.", "lm."))
    runs, _ = encoder_calls
    for _ in range(2):
        f_g, f_p_raw = model.encode_image(sample.image)
        assert f_g.values.requires_grad and not f_p_raw.values.requires_grad
    assert len(runs) == 3                  # the frozen pixel branch ran once
    assert model.store.frozen_memo(("sem_enc.",)) is None
    assert len(model.store.frozen_memo(("pix_enc.",))) == 1


def test_memo_dropped_on_exception_set_trainable_and_load(tmp_path, monkeypatch,
                                                          encoder_calls):
    model, sample = stage2_toy()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    runs, _ = encoder_calls
    counting = layers.patchify
    monkeypatch.setattr(layers, "patchify", lambda img, patch: 1 / 0)
    with pytest.raises(ZeroDivisionError):   # a run that fails stores nothing
        model.encode_image(sample.image)
    assert encoder_entries(model.store) == 0
    monkeypatch.setattr(layers, "patchify", counting)
    model.encode_image(sample.image)
    assert encoder_entries(model.store) == 2
    model.store.set_trainable(STAGE_PREFIXES[2])
    assert encoder_entries(model.store) == 0
    model.encode_image(sample.image)
    model.load(path)
    assert encoder_entries(model.store) == 0
    model.encode_image(sample.image)
    assert len(runs) == 6


def test_memo_never_serves_an_entry_made_before_its_branch_trained(encoder_calls):
    model, sample = stage2_toy()
    runs, _ = encoder_calls
    frozen, _ = model.encode_image(sample.image)
    weight = model.store["sem_enc.patch.w"]
    weight.requires_grad = True            # set directly, not by set_trainable
    trained, _ = model.encode_image(sample.image)
    assert trained.values.requires_grad
    assert np.array_equal(trained.values.data, frozen.values.data)
    assert model.store.frozen_memo(("sem_enc.",)) is None
    weight.data = weight.data * 1.5        # a training step moves the weight
    weight.requires_grad = False
    before = len(runs)
    moved, _ = model.encode_image(sample.image)
    assert len(runs) == before + 1         # the semantic branch ran again
    assert not np.array_equal(moved.values.data, frozen.values.data)
    weight.requires_grad = True
    want, _ = model.encode_image(sample.image)   # no memo: a fresh run
    assert np.array_equal(moved.values.data, want.values.data)
