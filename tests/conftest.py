"""Shared fixtures: a tiny generated data split and toy models."""

import os

# OpenBLAS reads its thread count once, when numpy loads, so the pin that
# seglang sets on import would come too late here
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from seglang import layers, sefe
from seglang.model import Model
from seglang.scenes import default_vocab, make_split
from seglang.suites import make_toy_config


@pytest.fixture(scope="session")
def tiny_split(tmp_path_factory):
    """Six train scenes / three eval scenes, enough for end-to-end plumbing."""
    root = tmp_path_factory.mktemp("tiny_split")
    make_split(seed=11, n_train=6, n_eval=3, out_dir=str(root))
    return str(root)


@pytest.fixture(scope="session")
def toy_vocab():
    return default_vocab()


@pytest.fixture()
def toy_model(toy_vocab):
    cfg = make_toy_config(0)
    return Model(cfg, toy_vocab, np.random.default_rng(0))


@pytest.fixture()
def encoder_calls(monkeypatch):
    """(encoder runs, (branch, shape, digest) of every `sefe.encode` call);
    every run patchifies its input once."""
    runs, inputs = [], []
    real_encode, real_patchify = sefe.encode, layers.patchify

    def encode(img, store, cfg, prefix, *args):
        inputs.append((prefix, *sefe.image_key(sefe.check_image(img, cfg.patch))))
        return real_encode(img, store, cfg, prefix, *args)

    monkeypatch.setattr(sefe, "encode", encode)
    monkeypatch.setattr(layers, "patchify",
                        lambda img, patch: runs.append(1) or real_patchify(img, patch))
    return runs, inputs


@pytest.fixture()
def attend_weights(monkeypatch):
    """Copies of the heads x T_q x T_k weights `tensor.attend` returns to
    every `layers.attention` call, in call order."""
    seen, real_attend = [], layers.attend

    def attend(*args):
        out, weights = real_attend(*args)
        seen.append(weights.copy())
        return out, weights

    monkeypatch.setattr(layers, "attend", attend)
    return seen
