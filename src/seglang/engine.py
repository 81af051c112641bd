"""Token-driven generation loop with mask and crop events.

Decoding proceeds one token at a time over the interleaved sequence: the
prefill runs the feature block alone into a cache, and every later row, the
instruction's first, stays pending until the policy (through a reader of the
last row's logits), `record_logits` or a seg slot reads it; a read is one
cached LM call over every pending row that keeps the last. A frozen model
keeps the last image's feature block and its cache, so questions in a row
about one image encode it and prefill its block once, each on a fork of it.
A seg token triggers mask decoding against the cached raw pixel features and
becomes the current mask; a region-marker token crops the current mask's
bounding box, encodes it through the semantic branch, and splices the
features into the sequence; the end token stops the loop. Protocol
violations (marker before any mask, marker over an empty mask) abort the
episode and are recorded in the event trace; a token whose rows do not fit
in `max_seq` ends it unemitted. With interleaving disabled the marker token
is ordinary text and no crop can ever occur.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import lm, maskdec, sefe, sequence
from .model import Model
from .tensor import ShapeError


@dataclass
class GenerationResult:
    masks: list[np.ndarray]          # soft H x W maps, one per seg event
    output_tokens: list[int]
    trace: list[dict]
    protocol_error: str | None = None
    logits_log: list[np.ndarray] | None = None
    end_reason: str = "max_steps"  # or eos, context_full, protocol_error

    @property
    def truncated(self) -> bool:   # the episode stopped before an end token
        return self.end_reason != "eos"


def prompt_template(task: str, ilvc: bool, vocab) -> list[int]:
    """Instruction prefix for a task; the final word switches interleaving."""
    words = {"refseg": "segment", "gcg": "describe", "vqa": "answer"}
    if task not in words:
        raise ValueError(f"unknown task {task!r}")
    ctrl = "interleaved" if ilvc else "direct"
    return vocab.encode(f"{words[task]} {ctrl}")


def generate(model: Model, image: np.ndarray, instruction: list[int],
             ilvc_enabled: bool, max_steps: int = 256,
             region_hook=None, record_logits: bool = False) -> GenerationResult:
    """Run one greedy episode from (image, instruction).

    region_hook, when given, may replace each cropped region buffer before
    local encoding; it is the probe point for causal-coupling tests.
    """
    return _episode(model, image, instruction, ilvc_enabled, max_steps,
                    policy=lambda read: int(np.argmax(read())),
                    region_hook=region_hook, record_logits=record_logits)


def run_scripted(model: Model, image: np.ndarray, instruction: list[int],
                 script: list[int], ilvc_enabled: bool) -> GenerationResult:
    """Replay a fixed token stream through the full event machinery.

    The model still runs (features, mask decodes, crops are all real); only
    the next-token choice is overridden. Exercises every protocol branch
    deterministically; the forced rows up to each seg slot run in one pass.
    """
    it = iter([int(t) for t in script])
    return _episode(model, image, instruction, ilvc_enabled,
                    max_steps=len(script), policy=lambda read: next(it))


def prefill(model: Model, image: np.ndarray, instruction: list[int]):
    """Feature-block prefill -> (seq, f_p_raw, cache, logits): the block alone
    fills a DecodeCache, or a fork of the one a store with no parameter that
    requires grad keeps for the last image's block; the instruction rows wait
    unrun, so `logits` (the block's last row) is None unless the instruction
    is empty. A memo hit gives the same rows as a miss."""
    cfg, store = model.cfg, model.store
    img = sefe.check_image(image, cfg.patch)
    memo = store.frozen_memo(("",))   # "" prefixes every parameter's name
    entry = None if memo is None else memo.get("prefill")
    # compared bit for bit, so -0.0 and 0.0 pixels are different images
    if entry is None or not np.array_equal(entry[0].view(np.uint64), img.view(np.uint64)):
        f_g, f_p_raw = model.encode_image(img)
        cache = lm.DecodeCache(cfg)
        logits, _ = lm.forward(sequence.build_inference_prefix(f_g, [], model.vocab),
                               store, cfg, cache, rows=[f_g.tokens - 1])
        entry = (img.copy(), f_g, f_p_raw, cache, logits)
        if memo is not None:
            memo["prefill"] = entry
    _, f_g, f_p_raw, cache, logits = entry
    cache = cache if memo is None else cache.fork()   # the memo's rows stay as they are
    seq = sequence.build_inference_prefix(f_g, instruction, model.vocab)
    if len(seq) > cfg.max_seq:   # the waiting rows could never run
        raise ShapeError(f"sequence length {len(seq)} exceeds max_seq {cfg.max_seq}")
    return seq, f_p_raw, cache, logits if len(seq) == cache.length else None


def _episode(model: Model, image: np.ndarray, instruction: list[int],
             ilvc_enabled: bool, max_steps: int, policy,
             region_hook=None, record_logits: bool = False) -> GenerationResult:
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    cfg, vocab, store = model.cfg, model.vocab, model.store
    # one front-end pass per episode; every mask decode reuses f_p_raw
    seq, f_p_raw, cache, logits = prefill(model, image, instruction)

    masks: list[np.ndarray] = []
    output: list[int] = []
    trace: list[dict] = []
    logits_log: list[np.ndarray] = [] if record_logits else None
    m_current: np.ndarray | None = None
    seg_count = 0
    protocol_error = None
    end_reason = "max_steps"

    def read():   # the last row's logits, after one pass over the pending rows
        nonlocal logits
        if logits is None:
            logits, _ = lm.forward(seq, store, cfg, cache, rows=[len(seq) - 1])
        return logits.data[-1]

    for step in range(max_steps):
        if record_logits:
            logits_log.append(read().copy())
        token = policy(read)
        logits = None   # the rows this step appends stay pending until read

        if token == vocab.eos:
            output.append(token)
            trace.append({"step": step, "event": "EOS", "token": token})
            end_reason = "eos"
            break

        f_l = None
        if token == vocab.image_id and ilvc_enabled:
            if m_current is None or not m_current.any():
                protocol_error = "m_current_null" if m_current is None \
                    else "empty_mask"
                end_reason = "protocol_error"
                trace.append({"step": step, "event": "ERROR",
                              "reason": protocol_error})
                break
            crop = sequence.crop_region(image, m_current, cfg.local_res)
            region = crop.region
            if region_hook is not None:
                region = region_hook(region)
            f_l = sefe.encode_local(region, store, cfg)
        if len(seq) + 1 + (0 if f_l is None else f_l.tokens) > cfg.max_seq:
            end_reason = "context_full"
            break
        output.append(token)

        if token == vocab.seg:
            seg_count += 1
            seq.append_seg(seg_count, supervised=False)
            # every pending row: the slot's hidden feeds the mask, logits the next token
            logits, seg_states = lm.forward(seq, store, cfg, cache, rows=[len(seq) - 1])
            mask_map = maskdec.decode_mask(seg_states[-1].hidden, f_p_raw,
                                           image.shape[:2], store)
            masks.append(mask_map.data.copy())
            m_current = maskdec.binarize(mask_map, cfg.threshold)
            trace.append({"step": step, "event": "SEG", "token": token,
                          "mask_index": len(masks) - 1})
        elif f_l is not None:
            seq.append_text(token, supervised=False)
            seq.append_feat(f_l, f"local:{seg_count}")
            trace.append({"step": step, "event": "CROP", "token": token,
                          "box": list(crop.box)})
        else:
            seq.append_text(token, supervised=False)
            trace.append({"step": step, "event": "TEXT", "token": token})

    return GenerationResult(masks=masks, output_tokens=output, trace=trace,
                            protocol_error=protocol_error,
                            logits_log=logits_log, end_reason=end_reason)


def dump_trace(result: GenerationResult, path: str) -> None:
    """JSON-lines trace: one event per line."""
    with open(path, "w", encoding="utf-8") as f:
        for event in result.trace:
            f.write(json.dumps(event) + "\n")
