"""Correctness checks for the benchmark's workloads.

Every check takes the outputs a workload produced and returns a list of
failure messages (empty when the outputs are right). The checks recompute
what they compare against with numpy or with a separate forward pass, never
by re-reading the timed code's own bookkeeping, and bench/tests feeds each
of them a deliberately wrong output to show that it can fail.
"""

from __future__ import annotations

import math

import numpy as np

GRAD_REL_TOL = 1e-4
MASK_TOL = 1e-9
LOGIT_TOL = 1e-12
LOSS_KEYS = ("total", "text", "mask", "ce", "dice")


# ---- train -----------------------------------------------------------------

def check_step0_losses(entry: dict, recomputed: dict[str, float]) -> list[str]:
    """The logged step-0 means equal the forward-only recomputation."""
    out = []
    for key in LOSS_KEYS:
        got, want = entry.get(key), recomputed[key]
        if got is None or not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            out.append(f"step-0 {key}: logged {got!r}, recomputed {want!r}")
    return out


def check_gradients(analytic: dict[str, np.ndarray], loss_at, coords,
                    h: float = 1e-5) -> list[str]:
    """Tape gradients against central finite differences.

    loss_at(name, index, value) -> loss with that one scalar set to value.
    coords: (name, flat index, current value) triples to probe.
    """
    out = []
    for name, index, value in coords:
        numeric = (loss_at(name, index, value + h)
                   - loss_at(name, index, value - h)) / (2.0 * h)
        got = float(analytic[name].reshape(-1)[index])
        rel = abs(got - numeric) / max(abs(got), abs(numeric), 1e-12)
        if not rel < GRAD_REL_TOL:
            out.append(f"grad {name}[{index}]: tape {got:.9e}, finite "
                       f"difference {numeric:.9e}, rel err {rel:.2e}")
    return out


def check_loss_trend(log: list[dict]) -> list[str]:
    """Every logged loss is finite; the last quarter beats the first."""
    out = []
    for entry in log:
        for key in LOSS_KEYS:
            if not math.isfinite(entry[key]):
                out.append(f"step {entry['step']}: {key} = {entry[key]}")
    quarter = max(len(log) // 4, 1)
    first = float(np.mean([e["total"] for e in log[:quarter]]))
    last = float(np.mean([e["total"] for e in log[-quarter:]]))
    if not last < first:
        out.append(f"loss did not fall: first-quarter mean {first:.6f}, "
                   f"last-quarter mean {last:.6f}")
    return out


def check_checkpoint(init: dict[str, np.ndarray], trained: dict[str, np.ndarray],
                     frozen: tuple[str, ...], trainable: tuple[str, ...]) -> list[str]:
    """Frozen groups are bit-equal to the init; every trainable group moved."""
    out = []
    for name, value in init.items():
        if name.startswith(frozen) and not np.array_equal(value, trained[name]):
            out.append(f"frozen parameter {name} changed")
    for prefix in trainable:
        names = [n for n in init if n.startswith(prefix)]
        if not any(not np.array_equal(init[n], trained[n]) for n in names):
            out.append(f"no parameter under {prefix} moved")
    return out


# ---- replay ----------------------------------------------------------------

def expected_kinds(script: list[int], seg: int, marker: int, eos: int) -> list[str]:
    """Event kinds a well-formed scripted stream must produce, from the
    script alone: one event per token, ending at the end token."""
    kinds = []
    for token in script:
        if token == eos:
            kinds.append("EOS")
            break
        kinds.append("SEG" if token == seg else "CROP" if token == marker
                     else "TEXT")
    return kinds


def check_events(trace: list[dict], n_masks: int, protocol_error,
                 want: list[str]) -> list[str]:
    out = []
    if protocol_error is not None:
        out.append(f"protocol error {protocol_error!r}")
    got = [e["event"] for e in trace]
    if got != want:
        out.append(f"event kinds {got} != scripted {want}")
    n_seg = got.count("SEG")
    if n_masks != n_seg:
        out.append(f"{n_masks} masks for {n_seg} SEG events")
    return out


def tight_box(mask: np.ndarray) -> list[int] | None:
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return None
    return [int(ys.min()), int(xs.min()), int(ys.max()), int(xs.max())]


def check_crop_boxes(trace: list[dict], masks: list[np.ndarray],
                     threshold: float) -> list[str]:
    """Each CROP box is the tight box of the latest SEG mask, binarized."""
    out = []
    current = None
    for e in trace:
        if e["event"] == "SEG":
            current = masks[e["mask_index"]]
        elif e["event"] == "CROP":
            want = tight_box(current > threshold) if current is not None else None
            if e["box"] != want:
                out.append(f"step {e['step']}: crop box {e['box']}, tight box "
                           f"of the binarized mask {want}")
    return out


def check_masks_match(got: list[np.ndarray], want: list[np.ndarray]) -> list[str]:
    """Engine masks against masks decoded from a full forward over the same
    prefix, rebuilt with the sequence builders."""
    out = []
    for k, (g, w) in enumerate(zip(got, want)):
        err = float(np.max(np.abs(g - w)))
        if not err <= MASK_TOL:
            out.append(f"mask {k}: max abs diff {err:.3e} vs full recompute")
    if len(got) != len(want):
        out.append(f"{len(got)} masks vs {len(want)} recomputed")
    return out


# ---- probe -----------------------------------------------------------------

def check_answers(answers: dict[str, tuple[str, str]], tokens: list[str]) -> list[str]:
    vocab = set(tokens)
    return [f"probe {key}: answer {a!r} is not a vocabulary token"
            for key, pair in answers.items() for a in pair if a not in vocab]


def recount(probes, answers: dict[str, tuple[str, str]],
            logits: dict[str, np.ndarray], id_of: dict[str, int],
            lexicons: dict[str, list[int]]) -> tuple[float, float, float]:
    """(vqa, acc1, acc3) counted by hand from answers and seg-state logits."""
    vqa = hit1 = hit3 = 0
    for p in probes:
        key = f"{p.object_id}|{p.attr_class}"
        pos, neg = answers[key]
        vqa += pos == "yes" and neg == "no"
        row = logits[key]
        subset = lexicons[p.attr_class]
        ranked = sorted(subset, key=lambda i: (-row[i], i))
        true_id = id_of[p.true_value]
        hit1 += ranked[0] == true_id
        hit3 += true_id in ranked[:min(3, len(subset))]
    n = len(probes)
    return vqa / n, hit1 / n, hit3 / n


def check_scores(reported: tuple[float, float, float],
                 counted: tuple[float, float, float]) -> list[str]:
    out = []
    for name, got, want in zip(("vqa_acc", "acc1", "acc3"), reported, counted):
        if got != want:
            out.append(f"{name}: scored {got}, hand recount {want}")
    if not reported[1] <= reported[2]:
        out.append(f"acc1 {reported[1]} > acc3 {reported[2]}")
    return out


def check_seg_logits(states: dict[str, tuple[np.ndarray, np.ndarray]],
                     head_w: np.ndarray, head_b: np.ndarray) -> list[str]:
    """Each seg state's logits equal hidden @ lm.head.w + lm.head.b."""
    out = []
    for key, (hidden, logits) in states.items():
        err = float(np.max(np.abs(hidden @ head_w + head_b - logits)))
        if not err <= LOGIT_TOL:
            out.append(f"probe {key}: seg logits off by {err:.3e}")
    return out
