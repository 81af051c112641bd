"""Training drivers: toy fixtures, stage freezing, eval plumbing, determinism."""

import os

import numpy as np
import pytest

from seglang.config import RunConfig
from seglang.model import Model, STAGE_PREFIXES
from seglang.scenes import default_vocab
from seglang.training import (description_positions, eval_attr, eval_refseg,
                              grad_check_suite, load_model, make_toy_config,
                              make_toy_sample, seg_state_for, train,
                              write_refseg_csv)
from seglang.vocab import Vocab


# ---- toy fixtures ----------------------------------------------------------

def test_toy_sample_contents():
    cfg = make_toy_config(0)
    vocab = default_vocab()
    rng = np.random.default_rng(5)
    s = make_toy_sample(cfg, rng, vocab, n_regions=2, ilvc=True,
                        with_response=True)
    assert s.task == "refseg" and s.ilvc
    assert s.image.shape == (cfg.canvas, cfg.canvas, 3)
    assert len(s.regions) == 2
    for mask, desc in s.regions:
        assert mask.shape == (cfg.canvas, cfg.canvas) and mask.any()
        assert 2 <= len(desc) <= 4
        assert all(t > vocab.p_close for t in desc)  # plain words only
    assert 2 <= len(s.instruction) <= 5
    assert len(s.response) == 2
    assert make_toy_sample(cfg, rng, vocab, 0, False).response == []


def test_description_positions_match_layout(toy_vocab):
    cfg = make_toy_config(1)
    rng = np.random.default_rng(7)
    model = Model(cfg, toy_vocab, rng)
    sample = make_toy_sample(cfg, rng, toy_vocab, n_regions=2, ilvc=True)
    seq, _ = model.build_sequence(sample)
    token_ids, _, _, feat_spans = seq.layout()
    positions = description_positions(seq)
    want = [t for _, desc in sample.regions for t in desc]
    assert [token_ids[p] for p in positions] == want
    for lo, hi, _ in feat_spans:
        assert not any(lo <= p < hi for p in positions)


def test_description_positions_empty_without_regions(toy_vocab):
    cfg = make_toy_config(0)
    rng = np.random.default_rng(8)
    model = Model(cfg, toy_vocab, rng)
    sample = make_toy_sample(cfg, rng, toy_vocab, n_regions=0, ilvc=True)
    seq, _ = model.build_sequence(sample)
    assert description_positions(seq) == []


# ---- gradient-fidelity suite ----------------------------------------------

def test_grad_check_suite_small():
    reports = grad_check_suite(n_configs=3, sample_per_param=1, base_seed=0)
    assert [r["config"] for r in reports] == [0, 1, 2]
    for r in reports:
        assert r["checked"] > 0
        assert r["max_rel_err"] < 1e-4, r


# ---- train() ---------------------------------------------------------------

def stage_cfg(data_dir, tmp_path, stage, run, **kw):
    out = tmp_path / run
    return RunConfig(data_dir=data_dir, stage=stage, steps=3, lr=0.05,
                     seed=3, checkpoint=str(out / "model.ckpt"),
                     out_dir=str(out), **kw)


def test_stage1_moves_only_scheduled_params(tiny_split, tmp_path):
    cfg = stage_cfg(tiny_split, tmp_path, 1, "a")
    report = train(cfg)
    assert report["steps"] == 3 and report["stage"] == 1
    assert os.path.exists(report["log"]) and os.path.exists(cfg.checkpoint)
    fresh = Model(cfg, Vocab.load(cfg.vocab_file))
    trained = load_model(cfg)
    moved = []
    for name in fresh.store.names():
        same = np.array_equal(trained.store[name].data, fresh.store[name].data)
        if name.startswith(STAGE_PREFIXES[1]):
            if not same:
                moved.append(name)
        else:
            assert same, f"{name} should be frozen in stage 1"
    assert moved, "no scheduled parameter moved"


def test_load_model_freezes_every_parameter(tiny_split, tmp_path):
    cfg = stage_cfg(tiny_split, tmp_path, 1, "frozen")
    Model(cfg, Vocab.load(cfg.vocab_file)).save(str(tmp_path / "init.ckpt"))
    cfg.checkpoint = str(tmp_path / "init.ckpt")
    model = load_model(cfg)
    assert not any(model.store[n].requires_grad for n in model.store.names())
    image = np.random.default_rng(0).random((cfg.canvas, cfg.canvas, 3))
    state = seg_state_for(model, image, "the red square")
    assert not state.hidden.requires_grad    # so it holds no forward tape


def test_train_is_bit_deterministic(tiny_split, tmp_path):
    cfg1 = stage_cfg(tiny_split, tmp_path, 1, "d1")
    cfg2 = stage_cfg(tiny_split, tmp_path, 1, "d2")
    r1, r2 = train(cfg1), train(cfg2)
    assert open(r1["log"], "rb").read() == open(r2["log"], "rb").read()
    assert open(cfg1.checkpoint, "rb").read() == open(cfg2.checkpoint, "rb").read()


def test_stage2_warm_starts_from_checkpoint(tiny_split, tmp_path):
    cfg1 = stage_cfg(tiny_split, tmp_path, 1, "w1")
    train(cfg1)
    cfg2 = stage_cfg(tiny_split, tmp_path, 2, "w2",
                     init_checkpoint=cfg1.checkpoint)
    train(cfg2)
    m1, m2 = load_model(cfg1), load_model(cfg2)
    # encoders stay frozen through both stages
    for name in m2.store.names():
        if name.startswith(("sem_enc.", "pix_enc.")):
            assert np.array_equal(m2.store[name].data, m1.store[name].data)
    assert any(not np.array_equal(m2.store[n].data, m1.store[n].data)
               for n in m2.store.names() if n.startswith("lm."))


def test_train_sgd_path(tiny_split, tmp_path):
    cfg = stage_cfg(tiny_split, tmp_path, 1, "sgd", optimizer="sgd",
                    momentum=0.5, batch=1, interleave_boost=0.0)
    report = train(cfg)
    assert report["steps"] == 3
    assert os.path.exists(cfg.checkpoint)


def test_train_rejects_empty_split(tmp_path):
    os.makedirs(tmp_path / "train")
    open(tmp_path / "train" / "samples.jsonl", "w").close()
    default_vocab().save(str(tmp_path / "vocab.txt"))
    cfg = stage_cfg(str(tmp_path), tmp_path, 1, "e")
    with pytest.raises(RuntimeError, match="empty"):
        train(cfg)


# ---- evaluation drivers ----------------------------------------------------

def test_eval_refseg_smoke(tiny_split):
    cfg = RunConfig(data_dir=tiny_split)
    model = Model(cfg, Vocab.load(cfg.vocab_file))
    rep = eval_refseg(model, tiny_split, ilvc_enabled=True, max_steps=10)
    assert rep["n_samples"] >= 1
    assert len(rep["rows"]) == rep["n_samples"]
    assert 0.0 <= rep["metrics"]["giou"] <= 1.0
    assert rep["desc_tokens"] > 0
    assert 0.0 <= rep["desc_token_acc"] <= 1.0


def test_write_refseg_csv(tmp_path):
    rows = [{"sample": "s0", "iou": 0.5, "n_masks": 1,
             "protocol_error": "", "truncated": False}]
    path = str(tmp_path / "refseg.csv")
    write_refseg_csv(rows, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "sample,iou,n_masks,protocol_error,truncated"
    assert lines[1].startswith("s0,0.5,1")


def test_eval_attr_smoke(tiny_split):
    cfg = RunConfig(data_dir=tiny_split)
    model = Model(cfg, Vocab.load(cfg.vocab_file))
    rep = eval_attr(model, tiny_split, seed=0)
    assert rep["n"] >= 1
    for key in ("vqa_acc", "acc1", "acc3"):
        assert 0.0 <= rep[key] <= 1.0
    assert rep["acc1"] <= rep["acc3"] + 1e-12
