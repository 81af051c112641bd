"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test prints "criterion NN PASS/FAIL: detail" on the real stdout (so
the lines survive pytest's capture) and then asserts. The training-based
criteria share one module-scoped pipeline run on the full synthetic corpus.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

from seglang import engine, losses, metrics
from seglang.attreval import build_probes, probe_key, score_logits, score_vqa
from seglang.config import RunConfig
from seglang.lm import SegState
from seglang.model import STAGE_PREFIXES, Model
from seglang.scenes import (attr_record, default_vocab, generate_scene,
                            load_split, make_split)
from seglang.sefe import FeatureGrid, fuse, init_sefe
from seglang.sequence import build_training_sequence, parse_training_sequence
from seglang.store import ParamStore
from seglang.suites import (conformance_suite, grad_check_suite,
                            make_toy_config, make_toy_sample)
from seglang.tensor import Tensor
from seglang.training import eval_refseg, train
from seglang.vocab import Vocab

# criterion-7 operating point: 512 train scenes, the default recipe below,
# thresholds frozen after the first verified full run
N_TRAIN_SCENES = 512
N_EVAL_SCENES = 64
STAGE1_STEPS = 350
STAGE2_STEPS = 5200
TRAIN_BUDGET_S = 600.0
IOU_THRESHOLD = 0.70
DESC_ACC_THRESHOLD = 0.90


def announce(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)


# ---- shared pipeline -------------------------------------------------------

@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("acceptance_data"))
    make_split(seed=0, n_train=N_TRAIN_SCENES, n_eval=N_EVAL_SCENES,
               out_dir=root)
    return root


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    """Stage 1 + stage 2 with the shipped defaults; returns run artifacts."""
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg1 = RunConfig(data_dir=data_dir, stage=1, steps=STAGE1_STEPS,
                     checkpoint=str(out / "stage1.ckpt"), out_dir=str(out))
    cfg2 = RunConfig(data_dir=data_dir, stage=2, steps=STAGE2_STEPS,
                     init_checkpoint=cfg1.checkpoint,
                     checkpoint=str(out / "stage2.ckpt"), out_dir=str(out))
    t0 = time.time()
    train(cfg1)
    train(cfg2)
    seconds = time.time() - t0
    vocab = Vocab.load(cfg2.vocab_file)
    model = Model(cfg2, vocab)
    model.load(cfg2.checkpoint)
    return {"model": model, "cfg1": cfg1, "cfg2": cfg2, "vocab": vocab,
            "seconds": seconds, "out": str(out)}


# ---- 1: gradient fidelity --------------------------------------------------

def test_criterion_01_gradient_fidelity():
    t0 = time.time()
    reports = grad_check_suite(n_configs=20, sample_per_param=2, base_seed=0)
    elapsed = time.time() - t0
    worst = max(r["max_rel_err"] for r in reports)
    checked = sum(r["checked"] for r in reports)
    ok = worst < 1e-4 and elapsed < 120.0 and len(reports) == 20
    announce(1, ok, f"max rel err {worst:.2e} over 20 configs "
                    f"({checked} coords) in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120.0


# ---- 2: residual identity at init ------------------------------------------

def test_criterion_02_fusion_residual_identity():
    exact = 0
    rng = np.random.default_rng(2)
    for trial in range(100):
        cfg = make_toy_config(trial % 4)
        store = ParamStore()
        init_sefe(store, cfg, np.random.default_rng(trial))
        t = int(rng.integers(2, 12))
        vals = rng.standard_normal((t, cfg.d_model))
        f_s = FeatureGrid(Tensor(vals.copy()), grid=None)
        f_p = FeatureGrid(Tensor(rng.standard_normal((t, cfg.d_model))),
                          grid=None)
        fused = fuse(f_s, f_p, store, cfg.n_heads)
        exact += np.array_equal(fused.values.data, vals)
    ok = exact == 100
    announce(2, ok, f"{exact}/100 zero-init fusions bit-equal to the "
                    "semantic branch")
    assert exact == 100


# ---- 3: layout conformance -------------------------------------------------

def _expected_kinds(sample, ilvc):
    kinds = ["feat:global"] + ["text"] * len(sample.instruction)
    for i in range(1, len(sample.regions) + 1):
        kinds.append(f"seg:{i}")
        if ilvc:
            kinds += ["text", f"feat:local:{i}", "text"]
            kinds += ["text"] * len(sample.regions[i - 1][1])
            kinds += ["text"]
    kinds += ["text"] * len(sample.response)
    kinds += ["text"]
    return kinds


def test_criterion_03_layout_conformance():
    vocab = default_vocab()
    failures = []
    for n_regions in (0, 1, 2, 5):
        cfg = make_toy_config(n_regions)
        model = Model(cfg, vocab, np.random.default_rng(n_regions))
        sample = make_toy_sample(cfg, np.random.default_rng(40 + n_regions),
                                 vocab, n_regions, ilvc=True,
                                 with_response=(n_regions % 2 == 0))
        f_g, _ = model.encode_image(sample.image)
        seq = build_training_sequence(
            f_g, sample.instruction, sample.regions, sample.image,
            model.store, cfg, vocab, ilvc=True,
            response=sample.response or None)
        if seq.kinds() != _expected_kinds(sample, True):
            failures.append(f"N={n_regions} kinds")
        parsed = parse_training_sequence(seq)
        if parsed["n"] != n_regions \
                or parsed["descriptions"] != [d for _, d in sample.regions]:
            failures.append(f"N={n_regions} regions")
        if n_regions > 0:
            if parsed["instruction"] != sample.instruction \
                    or parsed["response"] != sample.response:
                failures.append(f"N={n_regions} split")
        elif parsed["instruction"] != sample.instruction + sample.response:
            failures.append("N=0 concatenation")
    ok = not failures
    announce(3, ok, "layouts + parser round-trips exact for N in {0,1,2,5}"
             if ok else f"failed: {failures}")
    assert not failures


# ---- 4: generation conformance ---------------------------------------------

def test_criterion_04_generation_conformance():
    report = conformance_suite(n_streams=50, seed=0)
    covered = set(report["coverage"])
    need = {"SEG", "CROP", "TEXT", "EOS", "ERROR:m_current_null",
            "ERROR:empty_mask", "TRUNCATED", "END:context_full"}
    ok = report["agreements"] == 50 and need <= covered
    announce(4, ok, f"{report['agreements']}/50 traces agree; coverage "
                    f"{sorted(covered)}")
    assert report["agreements"] == 50, report["failures"][:2]
    assert need <= covered


# ---- 5: loss and metric oracles --------------------------------------------

def _pixel_oracles(pred, gt, ce_eps, dice_eps):
    tot_ce = inter = p_sum = g_sum = 0.0
    rows, cols = pred.shape
    for i in range(rows):
        for j in range(cols):
            p = min(max(pred[i, j], ce_eps), 1.0 - ce_eps)
            g = gt[i, j]
            tot_ce += -(g * np.log(p) + (1 - g) * np.log(1 - p))
            inter += pred[i, j] * g
            p_sum += pred[i, j]
            g_sum += g
    ce = tot_ce / (rows * cols)
    dice = 1.0 - (2.0 * inter + dice_eps) / (p_sum + g_sum + dice_eps)
    return ce, dice


def test_criterion_05_loss_metric_oracles():
    rng = np.random.default_rng(5)
    worst_loss = 0.0
    count_exact = True
    for _ in range(100):
        shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        pred = rng.random(shape)
        gt = (rng.random(shape) < 0.5).astype(np.float64)
        ce_want, dice_want = _pixel_oracles(pred, gt, 1e-7, 1.0)
        ce_got = losses.mask_ce(Tensor(pred), gt).data
        dice_got = losses.dice_loss(Tensor(pred), gt).data
        worst_loss = max(worst_loss, abs(ce_got - ce_want),
                         abs(dice_got - dice_want))
        pb, gb = pred > 0.5, gt > 0.5
        inter = int(np.sum(pb & gb))
        union = int(np.sum(pb | gb))
        want_iou = 1.0 if union == 0 else inter / union
        if metrics.iou(pb, gb) != want_iou:
            count_exact = False
    # two pairs with unequal unions: pooled and mean IoU must disagree
    a_pred = np.zeros((20, 20), dtype=bool)
    a_pred[0, 0] = True
    b_pred = np.zeros((20, 20), dtype=bool)
    b_pred[5:10, :20] = True
    b_gt = np.zeros((20, 20), dtype=bool)
    b_gt[10:15, :20] = True
    rep = metrics.aggregate([(a_pred, a_pred.copy()), (b_pred, b_gt)])
    constructed = rep.giou == 0.5 and rep.ciou == 1.0 / 201.0 \
        and rep.ciou != rep.giou
    ok = worst_loss < 1e-10 and count_exact and constructed
    announce(5, ok, f"loss max abs err {worst_loss:.1e}; counting exact: "
                    f"{count_exact}; constructed gIoU {rep.giou} "
                    f"cIoU {rep.ciou:.6f}")
    assert worst_loss < 1e-10
    assert count_exact
    assert constructed


# ---- 6: attribute scoring oracles ------------------------------------------

def test_criterion_06_attr_scoring_oracles():
    vocab = default_vocab()
    records = []
    for k in range(12):
        scene = generate_scene(60 + k, n_objects=2)
        for j, obj in enumerate(scene.objects):
            records.append(attr_record(f"s{k}", j, obj, f"i{k}.ppm",
                                       f"m{k}_{j}.pgm"))
    probes = build_probes(records, vocab, seed=6)
    assert probes
    rng = np.random.default_rng(6)
    options = ["yes", "no", "maybe", ""]
    vqa_ok = logit_ok = order_ok = True
    for trial in range(500):
        answers = {probe_key(p): (options[rng.integers(4)],
                                  options[rng.integers(4)]) for p in probes}
        want = sum(answers[probe_key(p)] == ("yes", "no")
                   for p in probes) / len(probes)
        if score_vqa(probes, answers) != want:
            vqa_ok = False
    for trial in range(500):
        states = {probe_key(p): SegState(hidden=Tensor(np.zeros(4)),
                                         logits=Tensor(rng.standard_normal(len(vocab))),
                                         position=0)
                  for p in probes}
        acc1, acc3 = score_logits(probes, states, vocab)
        hit1 = hit3 = 0
        for p in probes:
            scores = states[probe_key(p)].logits.data
            subset = vocab.lexicon(p.attr_class)
            ranked = sorted(subset, key=lambda i: (-scores[i], i))
            true_id = vocab.id_of[p.true_value]
            hit1 += ranked[0] == true_id
            hit3 += true_id in ranked[:min(3, len(subset))]
        if (acc1, acc3) != (hit1 / len(probes), hit3 / len(probes)):
            logit_ok = False
        if acc1 > acc3:
            order_ok = False
    ok = vqa_ok and logit_ok and order_ok
    announce(6, ok, f"1000 prediction sets recounted exactly over "
                    f"{len(probes)} probes; Acc1<=Acc3 held")
    assert vqa_ok and logit_ok and order_ok


# ---- 7: end-to-end desk training -------------------------------------------

def test_criterion_07_end_to_end_training(trained):
    rep = eval_refseg(trained["model"], trained["cfg2"].data_dir,
                      ilvc_enabled=True)
    giou = rep["metrics"]["giou"]
    desc = rep["desc_token_acc"]
    secs = trained["seconds"]
    ok = giou >= IOU_THRESHOLD and desc >= DESC_ACC_THRESHOLD \
        and secs <= TRAIN_BUDGET_S
    announce(7, ok, f"gIoU {giou:.3f} (>= {IOU_THRESHOLD}), desc token acc "
                    f"{desc:.3f} (>= {DESC_ACC_THRESHOLD}), trained in "
                    f"{secs:.0f}s (<= {TRAIN_BUDGET_S:.0f}s)")
    assert secs <= TRAIN_BUDGET_S
    assert giou >= IOU_THRESHOLD
    assert desc >= DESC_ACC_THRESHOLD


# ---- 8: interleaved-crop causality -----------------------------------------

def _scripted_logits(model, image, instruction, ilvc_enabled, hook):
    vocab = model.vocab
    words = [i for i in range(len(vocab)) if i > vocab.p_close]
    script = [vocab.seg, vocab.image_id, words[0], words[1], vocab.eos]
    it = iter(script)
    result = engine._episode(model, image, instruction, ilvc_enabled,
                             max_steps=len(script),
                             policy=lambda read: next(it),
                             region_hook=hook, record_logits=True)
    return result.logits_log


def test_criterion_08_crop_causality(trained):
    model = trained["model"]
    vocab = trained["vocab"]
    samples = [s for s in load_split(os.path.join(trained["cfg2"].data_dir,
                                                  "eval"), vocab)
               if s.task == "refseg" and s.ilvc]
    image, instruction = samples[0].image, samples[0].instruction

    def perturb(region):
        return np.clip(region + 0.3, 0.0, 1.0)

    base_on = _scripted_logits(model, image, instruction, True, None)
    pert_on = _scripted_logits(model, image, instruction, True, perturb)
    assert len(base_on) == len(pert_on) == 5, \
        "trained model aborted the scripted triplet"
    diffs = [float(np.max(np.abs(a - b)))
             for a, b in zip(base_on, pert_on)]
    moved = max(diffs[2:])  # steps after the crop entered the context
    base_off = _scripted_logits(model, image, instruction, False, None)
    pert_off = _scripted_logits(model, image, instruction, False, perturb)
    frozen = all(np.array_equal(a, b) for a, b in zip(base_off, pert_off))
    ok = moved > 1e-6 and frozen
    announce(8, ok, f"interleaving on: post-crop logit L-inf {moved:.2e} "
                    f"> 1e-6; interleaving off: bit-identical {frozen}")
    assert moved > 1e-6
    assert frozen


# ---- 9: stage schedule -----------------------------------------------------

def test_criterion_09_stage1_freeze(trained):
    cfg1 = trained["cfg1"]
    fresh = Model(cfg1, trained["vocab"])
    after = Model(cfg1, trained["vocab"])
    after.load(cfg1.checkpoint)
    frozen_bad = []
    moved = []
    for name in fresh.store.names():
        same = np.array_equal(after.store[name].data, fresh.store[name].data)
        if name.startswith(STAGE_PREFIXES[1]):
            if not same:
                moved.append(name)
        elif not same:
            frozen_bad.append(name)
    ok = not frozen_bad and moved
    announce(9, ok, "stage 1 left encoders, fusion, and LM byte-identical"
             if ok else f"moved out of schedule: {frozen_bad}")
    assert not frozen_bad, frozen_bad
    assert moved, "stage 1 moved nothing at all"


# ---- 10: determinism -------------------------------------------------------

def test_criterion_10_determinism(trained, tmp_path):
    data = trained["cfg2"].data_dir
    outs = []
    for run in ("r1", "r2"):
        cfg = RunConfig(data_dir=data, stage=2, steps=25, batch=2,
                        init_checkpoint=trained["cfg1"].checkpoint,
                        checkpoint=str(tmp_path / run / "m.ckpt"),
                        out_dir=str(tmp_path / run))
        train(cfg)
        log = open(os.path.join(cfg.out_dir, "train_stage2.jsonl"),
                   "rb").read()
        ckpt = open(cfg.checkpoint, "rb").read()
        outs.append((log, ckpt))
    logs_equal = outs[0][0] == outs[1][0]
    ckpts_equal = outs[0][1] == outs[1][1]
    rep_a = eval_refseg(trained["model"], data, True, max_steps=48)
    rep_b = eval_refseg(trained["model"], data, True, max_steps=48)
    reports_equal = json.dumps(rep_a, sort_keys=True) \
        == json.dumps(rep_b, sort_keys=True)
    ok = logs_equal and ckpts_equal and reports_equal
    announce(10, ok, f"paired runs: logs identical {logs_equal}, checkpoints "
                     f"identical {ckpts_equal}, reports identical "
                     f"{reports_equal}")
    assert logs_equal and ckpts_equal and reports_equal
