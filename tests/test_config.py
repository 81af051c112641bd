"""Run configuration: validation, file roundtrip, derived values."""

import json

import pytest

from seglang.config import RunConfig


def test_defaults_pass_validation():
    cfg = RunConfig()
    assert cfg.stage == 1
    assert cfg.vocab_file == "data/vocab.txt"


def test_vocab_path_overrides_data_dir():
    cfg = RunConfig(data_dir="d", vocab_path="elsewhere/v.txt")
    assert cfg.vocab_file == "elsewhere/v.txt"


@pytest.mark.parametrize("bad", [
    dict(stage=3),
    dict(stage=0),
    dict(local_res=30),          # not a multiple of patch
    dict(canvas=60),
    dict(d_model=30, n_heads=4),
    dict(d_sem=30, n_heads=4),
    dict(optimizer="adagrad"),
    dict(batch=0),
    dict(interleave_boost=1.0),
    dict(interleave_boost=-0.1),
    dict(alpha=-1),
    dict(dice_eps=0),
    dict(ce_eps=0),
])
def test_invalid_shapes_rejected(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


def test_save_load_roundtrip(tmp_path):
    cfg = RunConfig(d_model=32, steps=7, lr=0.01, data_dir="x")
    path = str(tmp_path / "cfg.json")
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_model": 32, "banana": 1}))
    with pytest.raises(ValueError, match="banana"):
        RunConfig.load(str(path))


def test_overrides_win_and_none_is_ignored(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 5, "lr": 0.5}))
    cfg = RunConfig.load(str(path), overrides={"steps": 9, "lr": None})
    assert cfg.steps == 9
    assert cfg.lr == 0.5
