"""Toy configurations and samples, and the verification suites: finite
differences against the full loss path's gradients, and engine traces
against the reference interpreter in `conformance`.
"""

from __future__ import annotations

import numpy as np

from . import conformance, engine, sefe
from .config import RunConfig
from .model import Model
from .scenes import Sample, default_vocab
from .store import grad_check
from .vocab import Vocab


# ---- gradient-fidelity suite -----------------------------------------------

_TOY_SHAPES = (
    dict(d_model=16, n_heads=2, d_sem=8, d_pix=8, lm_layers=1, enc_blocks=1),
    dict(d_model=16, n_heads=4, d_sem=12, d_pix=8, lm_layers=1, enc_blocks=1),
    dict(d_model=8, n_heads=2, d_sem=8, d_pix=4, lm_layers=1, enc_blocks=1),
    dict(d_model=16, n_heads=2, d_sem=8, d_pix=8, lm_layers=2, enc_blocks=1),
)


def make_toy_config(seed: int) -> RunConfig:
    shape = _TOY_SHAPES[seed % len(_TOY_SHAPES)]
    return RunConfig(canvas=16, patch=8, local_res=8, max_seq=96,
                     seed=seed, **shape)


def make_toy_sample(cfg: RunConfig, rng: np.random.Generator,
                    vocab: Vocab, n_regions: int, ilvc: bool,
                    with_response: bool = False) -> Sample:
    """Random image, random nonempty rectangle masks, random word tokens."""
    image = rng.random((cfg.canvas, cfg.canvas, 3))
    words = [i for i in range(len(vocab)) if i > vocab.p_close]
    regions = []
    for _ in range(n_regions):
        mask = np.zeros((cfg.canvas, cfg.canvas), dtype=bool)
        r0 = int(rng.integers(0, cfg.canvas - 4))
        c0 = int(rng.integers(0, cfg.canvas - 4))
        mask[r0:r0 + int(rng.integers(2, 5)), c0:c0 + int(rng.integers(2, 5))] = True
        desc = [words[int(i)] for i in rng.integers(0, len(words),
                                                    int(rng.integers(2, 5)))]
        regions.append((mask, desc))
    instruction = [words[int(i)] for i in rng.integers(0, len(words),
                                                       int(rng.integers(2, 6)))]
    response = [words[int(i)] for i in rng.integers(0, len(words), 2)] \
        if with_response else []
    return Sample(sample_id="toy", task="refseg", ilvc=ilvc, image=image,
                  regions=regions, instruction=instruction, response=response)


def grad_check_suite(n_configs: int = 20, sample_per_param: int = 2,
                     base_seed: int = 0) -> list[dict]:
    """Finite-difference verification of the full loss path, one report per
    toy configuration. sample_per_param limits coordinates per tensor (every
    tensor is still touched); None checks every scalar."""
    if n_configs < 1 or sample_per_param is not None and sample_per_param < 1:
        raise ValueError(f"n_configs and sample_per_param must be at least 1, "
                         f"got {n_configs} and {sample_per_param}")
    vocab = default_vocab()
    reports = []
    for i in range(n_configs):
        seed = base_seed + i
        cfg = make_toy_config(seed)
        rng = np.random.default_rng(seed)
        model = Model(cfg, vocab, rng)
        model.store.set_trainable(("",))
        sample = make_toy_sample(cfg, rng, vocab, n_regions=(i % 3),
                                 ilvc=(i % 2 == 0), with_response=(i % 5 == 0))
        result = grad_check(model.store,
                            lambda: model.sample_loss(sample).total,
                            sample_per_param=sample_per_param,
                            rng=np.random.default_rng(seed + 99))
        result["config"] = i
        reports.append(result)
    return reports


# ---- generation-protocol conformance ---------------------------------------

def conformance_suite(n_streams: int = 50, seed: int = 0) -> dict:
    """Engine traces vs the reference interpreter over random scripted
    streams, covering both mask-emptiness regimes, both interleaving modes,
    the null-mask and empty-mask error paths, truncation and a full context."""
    if n_streams < 1:
        raise ValueError(f"n_streams must be at least 1, got {n_streams}")
    vocab = default_vocab()
    cfg = make_toy_config(seed)
    rng = np.random.default_rng(seed)
    model = Model(cfg, vocab, rng)
    # zero projector puts every patch logit at exactly the bias value, so
    # the bias sign alone decides whether decoded masks are empty
    model.store["segproj.w"].data[:] = 0.0
    model.store["segproj.b"].data[:] = 0.0

    image = rng.random((cfg.canvas, cfg.canvas, 3))
    words = [i for i in range(len(vocab)) if i > vocab.p_close]
    seg, mark, eos = vocab.seg, vocab.image_id, vocab.eos
    instruction = [words[0]]
    f_g, _ = model.encode_image(image)
    f_l = sefe.encode_local(image[:cfg.local_res, :cfg.local_res], model.store, cfg)
    budget = dict(max_seq=cfg.max_seq, crop_rows=f_l.tokens,
                  prefix_rows=f_g.tokens + len(instruction))
    failures = []
    coverage: set[str] = set()
    # (script, ilvc_enabled, masks_decode_nonempty); every protocol branch
    fixed = [
        ([mark, eos], True, True),                        # marker before any mask
        ([seg, mark, words[0], eos], True, True),         # the standard triplet
        ([seg, mark, words[0], eos], True, False),        # crop over empty mask
        ([seg, mark, eos], False, True),                  # marker is plain text
        ([eos], True, True),
        ([seg, seg, mark, mark, words[1], eos], True, True),
        ([words[0], words[1]], True, True),               # truncation
        # fills the context; at the toy shapes the refused token is a crop
        ([words[1]] + [seg, mark, words[0]] * cfg.max_seq, True, True),
    ]
    for i in range(n_streams):
        if i < len(fixed):
            script, ilvc_enabled, nonempty = fixed[i]
            script = list(script)
        else:
            length = int(rng.integers(1, 10))
            script = []
            for _ in range(length):
                roll = rng.random()
                if roll < 0.25:
                    script.append(seg)
                elif roll < 0.5:
                    script.append(mark)
                elif roll < 0.6:
                    script.append(eos)
                else:
                    script.append(words[int(rng.integers(len(words)))])
            ilvc_enabled = bool(rng.integers(2))
            nonempty = bool(rng.integers(2))
        model.store["segproj.bias"].data = np.asarray(3.0 if nonempty else -3.0)
        result = engine.run_scripted(model, image, instruction, script,
                                     ilvc_enabled)
        got = conformance.project_trace(result.trace)
        want = conformance.reference_events(
            script, seg, mark, eos, ilvc_enabled,
            masks_decode_nonempty=nonempty, **budget)
        ok = got == want
        for e in got:
            coverage.add(e[0] if e[0] != "ERROR" else f"ERROR:{e[1]}")
        if result.truncated:
            coverage.add("TRUNCATED")
        coverage.add(f"END:{result.end_reason}")
        n_seg = sum(1 for e in got if e[0] == "SEG")
        n_crop = sum(1 for e in got if e[0] == "CROP")
        if len(result.masks) != n_seg:
            ok = False
        if not ilvc_enabled and n_crop != 0:
            ok = False
        if not ok:
            failures.append({"stream": i, "script": script, "got": got,
                             "want": want})
    return {"n_streams": n_streams, "agreements": n_streams - len(failures),
            "failures": failures, "coverage": sorted(coverage)}
