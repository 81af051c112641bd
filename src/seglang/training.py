"""Training loop, evaluation drivers, and the verification suites.

Training draws single samples, accumulates gradients into small averaged
batches, and applies Adam or plain SGD under the two-stage trainable
schedule, fully determined by config + seed. Evaluation covers referring
segmentation (generation + IoU metrics + description token accuracy),
attribute probing, the gradient-fidelity suite, and generation-protocol
conformance.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import conformance, engine, lm, maskdec, metrics
from .attreval import build_probes, probe_key, score_logits, score_vqa
from .config import RunConfig
from .model import ALL_PREFIXES, Model
from .scenes import Sample, default_vocab, load_attr_records, load_split
from .sequence import FeatureBlock, TextToken, build_inference_prefix
from .store import grad_check
from .vocab import Vocab


# ---- training --------------------------------------------------------------

def train(cfg: RunConfig, log_path: str | None = None) -> dict:
    """Run one stage of training; writes the checkpoint and a JSONL log.

    Each step averages gradients over cfg.batch sampled losses before the
    optimizer update. A cfg.interleave_boost fraction of draws is forced
    onto interleaved referring samples, which carry the region descriptions
    and would otherwise be a minority of the gradient signal.
    """
    vocab = Vocab.load(cfg.vocab_file)
    model = Model(cfg, vocab)
    if cfg.init_checkpoint:
        model.load(cfg.init_checkpoint)
    trainable = model.configure_trainable(cfg.stage)
    samples = load_split(os.path.join(cfg.data_dir, "train"), vocab)
    if not samples:
        raise RuntimeError("training split is empty")
    interleaved = [s for s in samples if s.task == "refseg" and s.ilvc]
    os.makedirs(cfg.out_dir, exist_ok=True)
    log_path = log_path or os.path.join(cfg.out_dir, f"train_stage{cfg.stage}.jsonl")
    order_rng = np.random.default_rng(cfg.seed + 1000 * cfg.stage)

    def draw() -> Sample:
        if interleaved and order_rng.random() < cfg.interleave_boost:
            return interleaved[int(order_rng.integers(len(interleaved)))]
        return samples[int(order_rng.integers(len(samples)))]

    scale = 1.0 / cfg.batch
    t0 = time.time()
    with open(log_path, "w", encoding="utf-8") as log:
        for step in range(cfg.steps):
            model.store.zero_grad()
            ids = []
            means: dict[str, float] = {}
            for _ in range(cfg.batch):
                sample = draw()
                report = model.sample_loss(sample)
                if not np.isfinite(report.total.data):
                    raise RuntimeError(f"non-finite loss at step {step}")
                (report.total * scale).backward()
                ids.append(sample.sample_id)
                for k, v in report.scalars().items():
                    means[k] = means.get(k, 0.0) + v * scale
            if cfg.optimizer == "adam":
                model.store.adam_step(cfg.lr)
            else:
                model.store.sgd_step(cfg.lr, cfg.momentum)
            entry: dict = {"step": step, "samples": ids}
            entry.update(means)
            log.write(json.dumps(entry) + "\n")
    model.save(cfg.checkpoint)
    return {"steps": cfg.steps, "stage": cfg.stage, "trainable": len(trainable),
            "checkpoint": cfg.checkpoint, "log": log_path,
            "seconds": time.time() - t0}


def load_model(cfg: RunConfig) -> Model:
    """A checkpoint for inference: every parameter frozen, so no forward
    records a tape."""
    vocab = Vocab.load(cfg.vocab_file)
    model = Model(cfg, vocab)
    model.load(cfg.checkpoint)
    model.store.set_trainable(())
    return model


# ---- referring-segmentation evaluation -------------------------------------

def description_positions(seq) -> list[int]:
    """Flat positions of description tokens (inside the region brackets)."""
    vocab = seq.vocab
    positions = []
    pos = 0
    inside = False
    for e in seq.elements:
        if isinstance(e, FeatureBlock):
            pos += e.grid.tokens
            continue
        if isinstance(e, TextToken):
            if e.token_id == vocab.p_open:
                inside = True
            elif e.token_id == vocab.p_close:
                inside = False
            elif inside:
                positions.append(pos)
        pos += 1
    return positions


def eval_refseg(model: Model, data_dir: str, ilvc_enabled: bool,
                max_steps: int = 256) -> dict:
    """Generate on held-out referring samples; score masks and descriptions."""
    samples = load_split(os.path.join(data_dir, "eval"), model.vocab)
    seg_samples = [s for s in samples
                   if s.task == "refseg" and s.ilvc == ilvc_enabled]
    if not seg_samples:
        raise RuntimeError("no matching referring samples in the eval split")
    pairs = []
    rows = []
    for s in seg_samples:
        result = engine.generate(model, s.image, s.instruction, ilvc_enabled,
                                 max_steps=max_steps)
        gt = s.regions[0][0]
        if result.masks:
            pred = maskdec.binarize(result.masks[0], model.cfg.threshold)
        else:
            pred = np.zeros_like(gt)
        pairs.append((pred, gt))
        rows.append({"sample": s.sample_id, "iou": metrics.iou(pred, gt),
                     "n_masks": len(result.masks),
                     "protocol_error": result.protocol_error,
                     "truncated": result.truncated})
    report = metrics.aggregate(pairs)

    interleaved = [s for s in samples if s.task == "refseg" and s.ilvc]
    correct = 0
    total = 0
    for s in interleaved:
        seq, _ = model.build_sequence(s)
        logits, _ = lm.forward(seq, model.store, model.cfg)
        token_ids, _, _, _ = seq.layout()
        for p in description_positions(seq):
            total += 1
            if int(np.argmax(logits.data[p - 1])) == token_ids[p]:
                correct += 1
    desc_acc = correct / total if total else 0.0
    return {"metrics": report.to_dict(), "desc_token_acc": desc_acc,
            "desc_tokens": total, "n_samples": len(seg_samples),
            "ilvc_enabled": ilvc_enabled, "rows": rows}


def write_refseg_csv(rows: list[dict], path: str) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=["sample", "iou", "n_masks",
                                               "protocol_error", "truncated"])
        writer.writeheader()
        writer.writerows(rows)


# ---- attribute probing -----------------------------------------------------

def answer_question(model: Model, image: np.ndarray, question: str,
                    max_steps: int = 8) -> str:
    """Greedy answer to a yes/no question; returns the first emitted word."""
    instruction = engine.prompt_template("vqa", False, model.vocab) \
        + model.vocab.encode(question)
    result = engine.generate(model, image, instruction, ilvc_enabled=False,
                             max_steps=max_steps)
    for tok in result.output_tokens:
        if tok != model.vocab.eos:
            return model.vocab.tokens[tok]
        break
    return ""


def seg_state_for(model: Model, image: np.ndarray, referring: str):
    """SegState at a forced seg slot after a direct segmentation prompt."""
    instruction = engine.prompt_template("refseg", False, model.vocab) \
        + model.vocab.encode(referring)
    f_g, _ = model.encode_image(image)
    seq = build_inference_prefix(f_g, instruction, model.vocab)
    seq.append_seg(1, supervised=False)
    _, seg_states = lm.forward(seq, model.store, model.cfg)
    return seg_states[0]


def eval_attr(model: Model, data_dir: str, seed: int) -> dict:
    """Build probes from the eval records and score VQA + logit ranking."""
    from .images import read_ppm, to_unit_float
    records = load_attr_records(os.path.join(data_dir, "eval"))
    probes = build_probes(records, model.vocab, seed)
    if not probes:
        raise RuntimeError("no probes could be built from the eval records")
    eval_dir = os.path.join(data_dir, "eval")
    answers = {}
    seg_states = {}
    image_cache: dict[str, np.ndarray] = {}
    for p in probes:
        if p.image not in image_cache:
            image_cache[p.image] = to_unit_float(
                read_ppm(os.path.join(eval_dir, p.image)))
        img = image_cache[p.image]
        answers[probe_key(p)] = (answer_question(model, img, p.question_pos),
                                 answer_question(model, img, p.question_neg))
        seg_states[probe_key(p)] = seg_state_for(model, img, p.referring)
    vqa = score_vqa(probes, answers)
    acc1, acc3 = score_logits(probes, seg_states, model.vocab)
    return {"vqa_acc": vqa, "acc1": acc1, "acc3": acc3, "n": len(probes)}


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
    vocab = default_vocab()
    reports = []
    for i in range(n_configs):
        seed = base_seed + i
        cfg = make_toy_config(seed)
        rng = np.random.default_rng(seed)
        model = Model(cfg, vocab, rng)
        model.store.set_trainable(ALL_PREFIXES)
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
    the null-mask and empty-mask error paths, and truncation."""
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
        result = engine.run_scripted(model, image, [words[0]], script,
                                     ilvc_enabled)
        got = conformance.project_trace(result.trace)
        want = conformance.reference_events(
            script, seg, mark, eos, ilvc_enabled,
            masks_decode_nonempty=nonempty)
        ok = got == want
        for e in got:
            coverage.add(e[0] if e[0] != "ERROR" else f"ERROR:{e[1]}")
        if result.truncated:
            coverage.add("TRUNCATED")
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
