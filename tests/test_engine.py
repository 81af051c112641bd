"""Generation loop: protocol branches, event traces, probes, determinism.

Scripted streams drive the full machinery (real feature passes, real mask
decodes) while the next-token choice follows the script, so every branch
of the state machine can be forced. The emptiness of decoded masks is
controlled by zeroing the mask projector and setting its scalar bias.
"""

import json

import numpy as np
import pytest

from seglang import lm, maskdec
from seglang.config import RunConfig
from seglang.conformance import project_trace, reference_events
from seglang.engine import (_episode, dump_trace, generate, prompt_template,
                            run_scripted)
from seglang.model import Model
from seglang.scenes import default_vocab
from seglang.sefe import encode_local
from seglang.sequence import build_inference_prefix, crop_region
from seglang.training import conformance_suite, make_toy_config


@pytest.fixture(scope="module")
def rig():
    vocab = default_vocab()
    cfg = make_toy_config(0)
    model = Model(cfg, vocab, np.random.default_rng(0))
    model.store["segproj.w"].data[:] = 0.0
    model.store["segproj.b"].data[:] = 0.0
    image = np.random.default_rng(1).random((cfg.canvas, cfg.canvas, 3))
    return model, vocab, image


def set_nonempty(model, nonempty):
    model.store["segproj.bias"].data = np.asarray(3.0 if nonempty else -3.0)


def test_prompt_template_words():
    vocab = default_vocab()
    assert vocab.decode(prompt_template("refseg", True, vocab)) \
        == "segment interleaved"
    assert vocab.decode(prompt_template("gcg", False, vocab)) == "describe direct"
    assert vocab.decode(prompt_template("vqa", False, vocab)) == "answer direct"
    with pytest.raises(ValueError, match="unknown task"):
        prompt_template("detect", True, vocab)


def test_marker_before_any_mask_aborts(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment")
    result = run_scripted(model, image, words, [vocab.image_id, vocab.eos], True)
    assert result.protocol_error == "m_current_null"
    assert result.trace[-1]["event"] == "ERROR"
    assert result.trace[-1]["reason"] == "m_current_null"
    assert result.output_tokens == []          # nothing valid was emitted
    assert result.masks == []


def test_marker_over_empty_mask_aborts(rig):
    model, vocab, image = rig
    set_nonempty(model, False)
    words = vocab.encode("segment")
    script = [vocab.seg, vocab.image_id, vocab.eos]
    result = run_scripted(model, image, words, script, True)
    assert result.protocol_error == "empty_mask"
    assert len(result.masks) == 1              # the seg event still decoded
    assert [e["event"] for e in result.trace] == ["SEG", "ERROR"]


def test_standard_triplet_produces_crop(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment the red square")
    script = [vocab.seg, vocab.image_id, words[1], vocab.eos]
    result = run_scripted(model, image, words, script, True)
    assert result.protocol_error is None
    assert [e["event"] for e in result.trace] == ["SEG", "CROP", "TEXT", "EOS"]
    assert not result.truncated
    assert len(result.masks) == 1
    box = result.trace[1]["box"]
    assert len(box) == 4 and box[0] <= box[2] and box[1] <= box[3]
    # bias +3 puts every probability at sigmoid(3) > 0.5: a full-frame mask
    assert result.masks[0].shape == image.shape[:2]
    assert np.all(result.masks[0] > 0.5)


def test_marker_is_plain_text_without_interleaving(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment")
    script = [vocab.seg, vocab.image_id, vocab.image_id, vocab.eos]
    result = run_scripted(model, image, words, script, False)
    assert result.protocol_error is None
    assert [e["event"] for e in result.trace] == ["SEG", "TEXT", "TEXT", "EOS"]
    assert len(result.masks) == 1


def test_truncation_flag(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("describe")
    script = [words[0], words[0]]
    result = run_scripted(model, image, words, script, True)
    assert result.truncated
    assert result.protocol_error is None
    assert len(result.trace) == 2


def test_masks_align_with_seg_events(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment")
    script = [vocab.seg, vocab.seg, vocab.image_id, vocab.eos]
    result = run_scripted(model, image, words, script, True)
    n_seg = sum(1 for e in result.trace if e["event"] == "SEG")
    assert len(result.masks) == n_seg == 2
    for e in result.trace:
        assert e["step"] == result.trace.index(e)


def test_greedy_generate_terminates(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    instr = prompt_template("refseg", True, vocab)
    result = generate(model, image, instr, True, max_steps=12,
                      record_logits=True)
    assert len(result.trace) <= 12
    assert len(result.logits_log) == len(result.trace)
    assert all(row.shape == (len(vocab),) for row in result.logits_log)
    n_seg = sum(1 for e in result.trace if e["event"] == "SEG")
    assert len(result.masks) == n_seg


def test_region_hook_feeds_the_next_step(rig):
    # region perturbation must change post-crop logits under interleaving
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment the")
    script = [vocab.seg, vocab.image_id, words[1], vocab.eos]

    def run(hook):
        res = run_scripted_with_logits(model, image, words, script, True, hook)
        return res

    base = run(None)
    changed = run(lambda region: np.clip(region + 0.25, 0.0, 1.0))
    assert base.protocol_error is None and changed.protocol_error is None
    # logits recorded before the crop agree; those after differ
    steps_before_crop = 2   # positions 0 and 1 precede the spliced features
    for t in range(steps_before_crop):
        assert np.array_equal(base.logits_log[t], changed.logits_log[t])
    diff = np.abs(base.logits_log[2] - changed.logits_log[2]).max()
    assert diff > 1e-6


def run_scripted_with_logits(model, image, instruction, script, ilvc, hook):
    it = iter([int(t) for t in script])
    return _episode(model, image, instruction, ilvc, max_steps=len(script),
                    policy=lambda row: next(it), region_hook=hook,
                    record_logits=True)


def test_trace_dump_roundtrip(rig, tmp_path):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment")
    script = [vocab.seg, vocab.image_id, vocab.eos]
    result = run_scripted(model, image, words, script, True)
    p = str(tmp_path / "trace.jsonl")
    dump_trace(result, p)
    lines = [json.loads(line) for line in open(p)]
    assert lines == result.trace


def test_scripted_runs_are_deterministic(rig):
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment")
    script = [vocab.seg, vocab.image_id, words[0], vocab.eos]
    r1 = run_scripted(model, image, words, script, True)
    r2 = run_scripted(model, image, words, script, True)
    assert r1.trace == r2.trace
    assert all(np.array_equal(a, b) for a, b in zip(r1.masks, r2.masks))


def test_end_reasons(rig):
    model, vocab, image = rig
    words = vocab.encode("segment")
    set_nonempty(model, True)
    assert run_scripted(model, image, words, [vocab.eos], True).end_reason == "eos"
    done = run_scripted(model, image, words, [words[0]], True)
    assert done.end_reason == "max_steps" and done.truncated
    bad = run_scripted(model, image, words, [vocab.image_id], True)
    assert bad.end_reason == "protocol_error" and bad.truncated


@pytest.mark.parametrize("kind", ["text", "seg", "crop"])
def test_context_full_ends_the_episode(rig, kind):
    # make_toy_config(0) has max_seq 96: no script below fits in it
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("describe the red square")
    script = {"text": [words[1]] * 200,
              "seg": [vocab.seg] * 200,
              "crop": [words[1]] * 2 + [vocab.seg, vocab.image_id, words[2]] * 60}[kind]
    result = run_scripted(model, image, words, script, True)
    assert result.end_reason == "context_full"
    assert result.truncated and result.protocol_error is None
    consumed = script[:len(result.trace)]
    assert project_trace(result.trace) == reference_events(
        consumed, vocab.seg, vocab.image_id, vocab.eos, True, True)
    assert result.output_tokens == consumed
    # the context holds every consumed token; the next one does not fit
    cfg = model.cfg
    f_g, _ = model.encode_image(image)
    local = encode_local(np.zeros((cfg.local_res, cfg.local_res, 3)),
                         model.store, cfg).tokens
    rows = len(build_inference_prefix(f_g, words, vocab)) + len(consumed) \
        + local * consumed.count(vocab.image_id)
    refused = script[len(consumed)]
    assert refused == {"text": words[1], "seg": vocab.seg,
                       "crop": vocab.image_id}[kind]
    need = 1 + (local if refused == vocab.image_id else 0)
    assert rows <= cfg.max_seq < rows + need


# ---- decode cache against a full recompute ----------------------------------

def full_recompute_episode(model, image, instruction, ilvc, max_steps, policy):
    """Test oracle: the decoding rules with an uncached lm.forward over the
    whole sequence at every step, and again once a seg slot is appended."""
    cfg, vocab, store = model.cfg, model.vocab, model.store
    f_g, f_p_raw = model.encode_image(image)
    seq = build_inference_prefix(f_g, instruction, vocab)
    output, trace, masks, logits_log = [], [], [], []
    m_current = None
    for step in range(max_steps):
        logits, _ = lm.forward(seq, store, cfg)
        logits_log.append(logits.data[-1].copy())
        token = policy(logits.data[-1])
        if token == vocab.eos:
            output.append(token)
            trace.append({"step": step, "event": "EOS", "token": token})
            break
        if token == vocab.seg:
            seq.append_seg(len(masks) + 1, supervised=False)
            _, states = lm.forward(seq, store, cfg)
            masks.append(maskdec.decode_mask(states[-1].hidden, f_p_raw,
                                             image.shape[:2], store).data)
            m_current = masks[-1] > cfg.threshold
            trace.append({"step": step, "event": "SEG", "token": token,
                          "mask_index": len(masks) - 1})
        elif token == vocab.image_id and ilvc:
            if m_current is None or not m_current.any():
                reason = "m_current_null" if m_current is None else "empty_mask"
                trace.append({"step": step, "event": "ERROR", "reason": reason})
                break
            crop = crop_region(image, m_current, cfg.local_res)
            seq.append_text(token, supervised=False)
            seq.append_feat(encode_local(crop.region, store, cfg), "local")
            trace.append({"step": step, "event": "CROP", "token": token,
                          "box": list(crop.box)})
        else:
            seq.append_text(token, supervised=False)
            trace.append({"step": step, "event": "TEXT", "token": token})
        output.append(token)
    return output, trace, masks, logits_log


def assert_matches_oracle(result, oracle, threshold):
    output, trace, masks, logits_log = oracle
    assert result.output_tokens == output
    assert result.trace == trace
    assert len(result.masks) == len(masks)
    for got, want in zip(result.masks, masks):
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(maskdec.binarize(got, threshold),
                              maskdec.binarize(want, threshold))
    assert len(result.logits_log) == len(logits_log)
    for got, want in zip(result.logits_log, logits_log):
        assert np.max(np.abs(got - want)) <= 1e-12


ORACLE_CONFIGS = [make_toy_config(s) for s in range(4)] + [RunConfig(seed=11)]


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS,
                         ids=[f"toy{s}" for s in range(4)] + ["default"])
def test_cached_decoding_matches_full_recompute(cfg):
    vocab = default_vocab()
    model = Model(cfg, vocab, np.random.default_rng(cfg.seed))
    image = np.random.default_rng(cfg.seed + 7).random((cfg.canvas, cfg.canvas, 3))
    instruction = prompt_template("gcg", True, vocab)
    max_steps = 30

    def greedy(row):
        return int(np.argmax(row))

    result = generate(model, image, instruction, True, max_steps=max_steps,
                      record_logits=True)
    assert_matches_oracle(result, full_recompute_episode(
        model, image, instruction, True, max_steps, greedy), cfg.threshold)

    # greedy after a forced seg / crop / seg / crop opening, so the cache
    # also carries seg slots and spliced local blocks
    model.store["segproj.bias"].data = np.asarray(3.0)

    def steered():
        opening = iter([vocab.seg, vocab.image_id, vocab.seg, vocab.image_id])
        return lambda row: next(opening, greedy(row))

    result = _episode(model, image, instruction, True, max_steps, steered(),
                      record_logits=True)
    oracle = full_recompute_episode(model, image, instruction, True,
                                    max_steps, steered())
    assert [e["event"] for e in result.trace[:4]] == ["SEG", "CROP"] * 2
    assert_matches_oracle(result, oracle, cfg.threshold)


# ---- reference interpreter --------------------------------------------------

def test_reference_interpreter_hand_cases():
    SEG, IMG, EOS, W = 2, 3, 1, 9
    assert reference_events([SEG, IMG, W, EOS], SEG, IMG, EOS, True, True) \
        == [("SEG",), ("CROP",), ("TEXT", W), ("EOS",)]
    assert reference_events([IMG], SEG, IMG, EOS, True, True) \
        == [("ERROR", "m_current_null")]
    assert reference_events([SEG, IMG], SEG, IMG, EOS, True, False) \
        == [("SEG",), ("ERROR", "empty_mask")]
    assert reference_events([SEG, IMG, EOS], SEG, IMG, EOS, False, True) \
        == [("SEG",), ("TEXT", IMG), ("EOS",)]
    assert reference_events([W, W], SEG, IMG, EOS, True, True) \
        == [("TEXT", W), ("TEXT", W)]
    assert reference_events([EOS, W], SEG, IMG, EOS, True, True) == [("EOS",)]


def test_project_trace_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown trace event"):
        project_trace([{"event": "JUMP"}])


def test_conformance_suite_smoke():
    report = conformance_suite(n_streams=12, seed=3)
    assert report["agreements"] == 12
    assert report["failures"] == []
    assert "SEG" in report["coverage"] and "CROP" in report["coverage"]
