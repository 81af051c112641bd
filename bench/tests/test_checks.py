"""Every benchmark check passes on the program's real outputs (toy config)
and fails when it is fed a deliberately wrong one.

    python -m pytest -q bench/tests
"""

import copy
import json
import math
import os

import numpy as np
import pytest

import checks
import workloads
from seglang import engine, training
from seglang.attreval import probe_key, score_logits, score_vqa
from seglang.model import STAGE_PREFIXES, Model
from tracing import Tracer

SMOKE = workloads.SMOKE


# ---- train -----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    s = workloads.setup_train(SMOKE, 0, str(tmp_path_factory.mktemp("train")))
    cfg = s.extra["train_cfg"]
    log_path = os.path.join(s.dir, "out", "round0.jsonl")
    training.train(cfg, log_path=log_path)
    with open(log_path, encoding="utf-8") as f:
        log = [json.loads(line) for line in f]
    return s, cfg, log


def test_train_checks_pass_on_real_run(trained):
    s, cfg, log = trained
    assert checks.check_loss_trend(log) == []
    assert workloads.train_model_checks(SMOKE, s, cfg, log) == []


def test_step0_check_catches_a_wrong_logged_loss(trained):
    s, cfg, log = trained
    bad = copy.deepcopy(log)
    bad[0]["text"] += 1e-9
    failures = workloads.train_model_checks(SMOKE, s, cfg, bad)
    assert any(m.startswith("step-0 text") for m in failures)
    del bad[0]["dice"]
    assert any(m.startswith("step-0 dice") for m in
               checks.check_step0_losses(bad[0], {k: log[0][k]
                                                  for k in checks.LOSS_KEYS}))


def test_gradient_check_catches_a_wrong_gradient():
    w = np.array([0.3, -1.2, 2.0])

    def loss_at(name, index, value):
        v = w.copy()
        v[index] = value
        return float(np.sum(np.sin(v) * v))

    exact = {"w": np.sin(w) + w * np.cos(w)}
    coords = [("w", i, float(w[i])) for i in range(3)]
    assert checks.check_gradients(exact, loss_at, coords) == []
    wrong = {"w": exact["w"] * np.array([1.0, 1.0 + 1e-3, 1.0])}
    failures = checks.check_gradients(wrong, loss_at, coords)
    assert len(failures) == 1 and "w[1]" in failures[0]


def test_loss_trend_check_catches_rise_and_non_finite(trained):
    _, _, log = trained
    rising = [dict(e, total=float(i)) for i, e in enumerate(log)]
    assert any("did not fall" in m for m in checks.check_loss_trend(rising))
    nan = copy.deepcopy(log)
    nan[3]["mask"] = math.nan
    assert any("mask = nan" in m for m in checks.check_loss_trend(nan))


def test_checkpoint_check_catches_frozen_move_and_stuck_group(trained):
    s, cfg, _ = trained
    model = Model(s.cfg, s.vocab)
    model.load(cfg.checkpoint)
    after = {n: p.data.copy() for n, p in model.store.params.items()}
    trainable = STAGE_PREFIXES[cfg.stage]
    assert checks.check_checkpoint(s.init, after, workloads.FROZEN, trainable) == []
    moved = dict(after)
    frozen = next(n for n in after if n.startswith("pix_enc."))
    moved[frozen] = after[frozen] + 1e-12
    assert checks.check_checkpoint(s.init, moved, workloads.FROZEN, trainable) \
        == [f"frozen parameter {frozen} changed"]
    stuck = dict(after)
    for n in stuck:
        if n.startswith(trainable[0]):
            stuck[n] = s.init[n]
    assert checks.check_checkpoint(s.init, stuck, workloads.FROZEN, trainable) \
        == [f"no parameter under {trainable[0]} moved"]


# ---- replay ----------------------------------------------------------------

@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    s = workloads.setup_replay(SMOKE, 0, str(tmp_path_factory.mktemp("replay")))
    ep = s.extra["episodes"][-1]
    assert len(ep.regions) == 3
    result = engine.run_scripted(s.model, ep.image, ep.instruction, ep.script,
                                 ilvc_enabled=True)
    return s, ep, result


def _kinds(s, ep):
    v = s.vocab
    return checks.expected_kinds(ep.script, v.seg, v.image_id, v.eos)


def test_replay_checks_pass_on_real_episode(replayed):
    s, ep, r = replayed
    assert checks.check_events(r.trace, len(r.masks), r.protocol_error,
                               _kinds(s, ep)) == []
    assert checks.check_crop_boxes(r.trace, r.masks, s.cfg.threshold) == []
    assert checks.check_masks_match(
        r.masks, workloads.recompute_masks(s, ep, r.masks)) == []


def test_event_check_catches_wrong_kinds_counts_and_errors(replayed):
    s, ep, r = replayed
    want = _kinds(s, ep)
    assert checks.check_events(r.trace[:-1], len(r.masks), None, want)
    assert checks.check_events(r.trace, len(r.masks) - 1, None, want) \
        == [f"{len(r.masks) - 1} masks for {len(r.masks)} SEG events"]
    assert checks.check_events(r.trace, len(r.masks), "empty_mask", want) \
        == ["protocol error 'empty_mask'"]


def test_crop_box_check_catches_a_shifted_box(replayed):
    s, _, r = replayed
    trace = copy.deepcopy(r.trace)
    crop = next(e for e in trace if e["event"] == "CROP")
    crop["box"][3] += 1
    assert len(checks.check_crop_boxes(trace, r.masks, s.cfg.threshold)) == 1


def test_mask_check_catches_a_perturbed_or_missing_mask(replayed):
    s, ep, r = replayed
    want = workloads.recompute_masks(s, ep, r.masks)
    bad = [m.copy() for m in r.masks]
    bad[1][0, 0] += 1e-8
    assert checks.check_masks_match(bad, want)[0].startswith("mask 1:")
    assert checks.check_masks_match(r.masks[:2], want) == ["2 masks vs 3 recomputed"]


# ---- probe -----------------------------------------------------------------

@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    s = workloads.setup_probe(SMOKE, 0, str(tmp_path_factory.mktemp("probe")))
    answers, states = {}, {}
    for p in s.extra["probes"]:
        image = s.extra["images"][p.image]
        answers[probe_key(p)] = (
            training.answer_question(s.model, image, p.question_pos),
            training.answer_question(s.model, image, p.question_neg))
        states[probe_key(p)] = training.seg_state_for(s.model, image, p.referring)
    return s, answers, states


def _recount(s, answers, states):
    v = s.vocab
    lexicons = {c: v.lexicon(c) for c in ("category", "color", "location")}
    return checks.recount(s.extra["probes"], answers,
                          {k: st.logits.data for k, st in states.items()},
                          v.id_of, lexicons)


def test_probe_checks_pass_on_real_probes(probed):
    s, answers, states = probed
    probes = s.extra["probes"]
    assert checks.check_answers(answers, s.vocab.tokens) == []
    scored = (score_vqa(probes, answers), *score_logits(probes, states, s.vocab))
    assert checks.check_scores(scored, _recount(s, answers, states)) == []
    head = s.model.store
    assert checks.check_seg_logits(
        {k: (st.hidden.data, st.logits.data) for k, st in states.items()},
        head["lm.head.w"].data, head["lm.head.b"].data) == []


def test_answer_check_catches_a_non_token(probed):
    s, answers, _ = probed
    bad = dict(answers)
    key = next(iter(bad))
    bad[key] = ("yes", "maybe?")
    assert checks.check_answers(bad, s.vocab.tokens) \
        == [f"probe {key}: answer 'maybe?' is not a vocabulary token"]


def test_score_check_catches_a_wrong_score_and_acc1_above_acc3(probed):
    s, answers, states = probed
    counted = _recount(s, answers, states)
    n = len(s.extra["probes"])
    wrong = (counted[0] + 1.0 / n, counted[1], counted[2])
    assert checks.check_scores(wrong, counted)[0].startswith("vqa_acc:")
    inverted = (0.0, 1.0, 0.5)
    assert "acc1 1.0 > acc3 0.5" in checks.check_scores(inverted, inverted)


def test_seg_logit_check_catches_a_perturbed_logit(probed):
    s, _, states = probed
    key, st = next(iter(states.items()))
    logits = st.logits.data.copy()
    logits[5] += 1e-10
    head = s.model.store
    assert len(checks.check_seg_logits({key: (st.hidden.data, logits)},
                                       head["lm.head.w"].data,
                                       head["lm.head.b"].data)) == 1


# ---- whole runs --------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_traced_rows_add_up(workload, tmp_path):
    out = workloads.run(workload, SMOKE, 0, 0.2, str(tmp_path / "plain"))
    assert out.failures == [] and out.failed == 0 and out.attempted > 0
    assert all(v > 0 for v, _ in out.end_to_end().values())

    tracer = Tracer(SMOKE.gap_split_rows)
    traced = workloads.run(workload, SMOKE, 0, 0.2, str(tmp_path / "traced"),
                           tracer)
    assert traced.failures == [] and traced.failed == 0
    done = traced.attempted - traced.failed
    metrics, table = tracer.per_layer(len(traced.setup_s), done,
                                      traced.timed_s, traced.op_ms)
    assert table[-1][0] == "(unaccounted)"
    assert sum(ms for _, _, ms in table) == pytest.approx(metrics["trace.op_ms"])
    # self times never cover more than the timed phase
    assert metrics["trace.unaccounted_ms"] >= 0.0
    assert all(rec[2] >= rec[1] for rec in tracer.spans)

