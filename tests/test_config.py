"""Run configuration: validation, file roundtrip, derived values."""

import dataclasses
import json
import re

import numpy as np
import pytest

from seglang import config
from seglang.config import RunConfig


def test_defaults_pass_validation():
    cfg = RunConfig()
    assert cfg.stage == 1
    assert cfg.vocab_file == "data/vocab.txt"
    assert RunConfig(steps=0).steps == 0   # a seeded init writes a 0-step checkpoint


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
    dict(batch=0),
    dict(interleave_boost=1.0),
    dict(interleave_boost=-0.1),
    dict(d_pix=30, n_heads=4),
    dict(lm_layers=0),
    dict(enc_blocks=0),
    dict(patch=0),               # would divide by zero
    dict(n_heads=0),
    dict(max_seq=-1),
    dict(max_steps=0),           # an episode must run at least one step
    dict(lr=float("nan")),       # would die a step later on a non-finite loss
    dict(lr=float("inf")),
    dict(lr=0.0),
    dict(lr=-1.0),
    dict(steps=-3),              # would write an untrained checkpoint
    dict(threshold=1.5),         # every crop would meet an empty mask
    dict(threshold=1.0),
    dict(threshold=0.0),
    dict(threshold=float("nan")),
])
def test_invalid_shapes_rejected(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


def test_save_load_roundtrip(tmp_path):
    cfg = RunConfig(d_model=32, steps=7, lr=0.01, data_dir="x")
    path = str(tmp_path / "cfg.json")
    config.write_json(path, dataclasses.asdict(cfg), sort_keys=True)
    assert RunConfig.load(path) == cfg


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    for loaded, names in (
            ({"d_model": 32, "banana": 1}, ["banana"]),
            # the optimizer fields older configs saved: Adam is the only one
            ({"optimizer": "sgd", "momentum": 0.5}, ["momentum", "optimizer"]),
            # the loss settings older configs saved: the objective is fixed
            *(({key: 1.0}, [key]) for key in
              ("alpha", "w_ce", "w_dice", "ce_eps", "dice_eps"))):
        path.write_text(json.dumps(loaded))
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown config keys: {names}")):
            RunConfig.load(str(path))


def test_overrides_win_and_none_is_ignored(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 5, "lr": 0.5}))
    cfg = RunConfig.load(str(path), overrides={"steps": 9, "lr": None})
    assert cfg.steps == 9
    assert cfg.lr == 0.5


@pytest.mark.parametrize("text, match", [
    ("{\"steps\": 5,", "not valid JSON"),
    ("\xff", "not valid JSON"),
    ("[1, 2]", "must be a JSON object, got list"),
    ("null", "must be a JSON object, got NoneType"),
    ("{\"d_model\": \"64\"}", "'d_model' must be int"),
    ("{\"steps\": 2.5}", "'steps' must be int"),
    ("{\"steps\": true}", "'steps' must be int"),
    ("{\"lr\": false}", "'lr' must be float"),
    ("{\"ilvc_enabled\": 1}", "'ilvc_enabled' must be bool"),
    ("{\"data_dir\": null}", "'data_dir' must be str"),
])
def test_load_names_the_file_for_malformed_content(tmp_path, text, match):
    path = tmp_path / "cfg.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError, match=match) as err:
        RunConfig.load(str(path))
    assert type(err.value) is ValueError and str(path) in str(err.value)


def test_load_takes_an_integer_for_a_float_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lr": 1, "interleave_boost": 0}))
    cfg = RunConfig.load(str(path))
    assert cfg.lr == 1 and cfg.interleave_boost == 0


def test_truncated_or_flipped_config_fails_closed(tmp_path):
    """Every cut and random byte flip of a saved config either loads or raises
    a plain ValueError; one whose bytes are no JSON object names the file."""
    good = tmp_path / "good.json"
    cfg = RunConfig(d_model=32, steps=7, data_dir="x")
    config.write_json(str(good), dataclasses.asdict(cfg), sort_keys=True)
    data = good.read_bytes()
    rng = np.random.default_rng(0)
    variants = [data[:cut] for cut in range(len(data))]
    for _ in range(300):
        flipped = bytearray(data)
        flipped[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        variants.append(bytes(flipped))
    path = tmp_path / "bad.json"
    outcomes = {"loaded": 0, "rejected": 0}
    for raw in variants:
        path.write_bytes(raw)
        try:
            RunConfig.load(str(path))
            outcomes["loaded"] += 1
            continue
        except ValueError as exc:
            assert type(exc) is ValueError, repr(exc)
            message = str(exc)
        outcomes["rejected"] += 1
        try:
            is_object = isinstance(json.loads(raw.decode("utf-8")), dict)
        except ValueError:
            is_object = False
        if not is_object:
            assert str(path) in message, message
    assert outcomes["loaded"] and outcomes["rejected"]
