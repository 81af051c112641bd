"""Training loop and evaluation drivers.

Training draws single samples, accumulates gradients into small averaged
batches, and applies Adam under the two-stage trainable schedule, fully
determined by config + seed. Evaluation covers referring segmentation
(generation + IoU metrics + description token accuracy) and the scoring of
built AttrEval probes. The verification suites live in `suites`.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import engine, lm, maskdec, metrics
from .attreval import probe_key, score_logits, score_vqa
from .config import RunConfig
from .images import read_ppm, to_unit_float
from .model import Model
from .scenes import Sample, load_split
from .tensor import mul
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
                mul(report.total, scale).backward()
                ids.append(sample.sample_id)
                for k, v in report.scalars().items():
                    means[k] = means.get(k, 0.0) + v * scale
            model.store.adam_step(cfg.lr)
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
    inside = False
    for pos, token in enumerate(seq.layout()[0]):
        if token == vocab.p_open:
            inside = True
        elif token == vocab.p_close:
            inside = False
        elif inside:
            positions.append(pos)
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
                     "truncated": result.truncated,
                     "end_reason": result.end_reason})
    report = metrics.aggregate(pairs)

    interleaved = [s for s in samples if s.task == "refseg" and s.ilvc]
    correct = 0
    total = 0
    for s in interleaved:
        seq, _ = model.build_sequence(s)
        positions = description_positions(seq)
        if positions:
            logits, _ = lm.forward(seq, model.store, model.cfg,
                                   rows=np.subtract(positions, 1))
            correct += int((logits.data.argmax(1) == seq.layout()[0][positions]).sum())
            total += len(positions)
    desc_acc = correct / total if total else 0.0
    return {"metrics": report.to_dict(), "desc_token_acc": desc_acc,
            "desc_tokens": total, "n_samples": len(seg_samples),
            "ilvc_enabled": ilvc_enabled, "rows": rows}


def write_refseg_csv(rows: list[dict], path: str) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=["sample", "iou", "n_masks",
                                               "protocol_error", "truncated",
                                               "end_reason"])
        writer.writeheader()
        writer.writerows(rows)


# ---- attribute probing -----------------------------------------------------

def answer_question(model: Model, image: np.ndarray, question: str) -> str:
    """Greedy one-token answer to a yes/no question: the first decoded word,
    or "" when that token is the end token or does not fit the context."""
    instruction = engine.prompt_template("vqa", False, model.vocab) \
        + model.vocab.encode(question)
    result = engine.generate(model, image, instruction, ilvc_enabled=False,
                             max_steps=1)
    if result.output_tokens and result.output_tokens[0] != model.vocab.eos:
        return model.vocab.tokens[result.output_tokens[0]]
    return ""


def seg_state_for(model: Model, image: np.ndarray, referring: str):
    """SegState at a forced seg slot after a direct segmentation prompt."""
    instruction = engine.prompt_template("refseg", False, model.vocab) \
        + model.vocab.encode(referring)
    *_, seg_states = engine.prefill(model, image, instruction, seg_slot=True)
    return seg_states[0]


def score_probes(model: Model, probes: list, split_dir: str) -> dict:
    """AttrEval report: VQA answers + seg-state logit ranking per probe."""
    answers = {}
    seg_states = {}
    image_cache: dict[str, np.ndarray] = {}
    for p in probes:
        if p.image not in image_cache:
            image_cache[p.image] = to_unit_float(
                read_ppm(os.path.join(split_dir, p.image)))
        img = image_cache[p.image]
        answers[probe_key(p)] = (answer_question(model, img, p.question_pos),
                                 answer_question(model, img, p.question_neg))
        seg_states[probe_key(p)] = seg_state_for(model, img, p.referring)
    vqa = score_vqa(probes, answers)
    acc1, acc3 = score_logits(probes, seg_states, model.vocab)
    return {"vqa_acc": vqa, "acc1": acc1, "acc3": acc3, "n": len(probes)}
