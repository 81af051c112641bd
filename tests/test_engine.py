"""Generation loop: protocol branches, event traces, probes, determinism.

Scripted streams drive the full machinery (real feature passes, real mask
decodes) while the next-token choice follows the script, so every branch
of the state machine can be forced. The emptiness of decoded masks is
controlled by zeroing the mask projector and setting its scalar bias.
"""

import dataclasses
import json

import numpy as np
import pytest

from seglang import lm, maskdec
from seglang.config import RunConfig
from seglang.conformance import project_trace, reference_events
from seglang.engine import (_episode, dump_trace, generate, prefill,
                            prompt_template, run_scripted)
from seglang.model import Model
from seglang.scenes import default_vocab
from seglang.sefe import encode_local
from seglang.sequence import build_inference_prefix, crop_region
from seglang.suites import conformance_suite, make_toy_config
from seglang.tensor import ShapeError
from seglang.training import seg_state_for


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
                    policy=lambda read: next(it), region_hook=hook,
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
    assert result.output_tokens == consumed
    cfg = model.cfg
    f_g, _ = model.encode_image(image)
    local = encode_local(np.zeros((cfg.local_res, cfg.local_res, 3)),
                         model.store, cfg).tokens
    prefix = len(build_inference_prefix(f_g, words, vocab))
    # the interpreter, given the budget, stops the whole script at the same token
    assert project_trace(result.trace) == reference_events(
        script, vocab.seg, vocab.image_id, vocab.eos, True, True,
        prefix_rows=prefix, max_seq=cfg.max_seq, crop_rows=local)
    # the context holds every consumed token; the next one does not fit
    rows = prefix + len(consumed) + local * consumed.count(vocab.image_id)
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
        token = policy(lambda: logits.data[-1])
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

    def greedy(read):
        return int(np.argmax(read()))

    result = generate(model, image, instruction, True, max_steps=max_steps,
                      record_logits=True)
    assert_matches_oracle(result, full_recompute_episode(
        model, image, instruction, True, max_steps, greedy), cfg.threshold)

    # greedy after a forced seg / crop / seg / crop opening, so the cache
    # also carries seg slots and spliced local blocks
    model.store["segproj.bias"].data = np.asarray(3.0)

    def steered():
        opening = iter([vocab.seg, vocab.image_id, vocab.seg, vocab.image_id])
        return lambda read: next(opening, greedy(read))

    result = _episode(model, image, instruction, True, max_steps, steered(),
                      record_logits=True)
    oracle = full_recompute_episode(model, image, instruction, True,
                                    max_steps, steered())
    assert [e["event"] for e in result.trace[:4]] == ["SEG", "CROP"] * 2
    assert_matches_oracle(result, oracle, cfg.threshold)


def test_a_scripted_episode_fills_the_default_context():
    # seg, crop and text steps until the next region no longer fits in the
    # default max_seq: read at every step, the cache grows row by row to the
    # end and every step's logits equal an uncached pass over the whole
    # sequence; unread, as run_scripted leaves them, the rows between two seg
    # slots run in one pass and give the same trace and masks
    cfg = RunConfig(seed=11)
    vocab = default_vocab()
    model = Model(cfg, vocab, np.random.default_rng(cfg.seed))
    set_nonempty(model, True)
    image = np.random.default_rng(cfg.seed + 7).random((cfg.canvas, cfg.canvas, 3))
    instruction = prompt_template("gcg", True, vocab)
    words = vocab.encode("the red square")
    script = [vocab.seg, vocab.image_id, vocab.p_open, *words, vocab.p_close] * 20

    def scripted():
        it = iter(script)
        return lambda read: next(it)

    result = _episode(model, image, instruction, True, len(script), scripted(),
                      record_logits=True)
    assert result.end_reason == "context_full"
    consumed = len(result.output_tokens)
    f_g, _ = model.encode_image(image)
    local = encode_local(np.zeros((cfg.local_res, cfg.local_res, 3)),
                         model.store, cfg).tokens
    rows = f_g.tokens + len(instruction) + consumed \
        + local * result.output_tokens.count(vocab.image_id)
    need = 1 + (local if script[consumed] == vocab.image_id else 0)
    assert rows <= cfg.max_seq < rows + need
    # the oracle also takes the refused token, after reading its logits
    output, trace, masks, logits_log = full_recompute_episode(
        model, image, instruction, True, consumed + 1, scripted())
    assert result.output_tokens == output[:-1] and result.trace == trace[:-1]
    assert len(result.masks) == len(masks)
    assert all(np.max(np.abs(a - b)) <= 1e-12 for a, b in zip(result.masks, masks))
    assert len(result.logits_log) == len(logits_log) == consumed + 1
    for got, want in zip(result.logits_log, logits_log):
        assert np.max(np.abs(got - want)) <= 1e-12
    unread = run_scripted(model, image, instruction, script, True)
    assert unread.end_reason == "context_full" and unread.logits_log is None
    assert unread.output_tokens == output[:-1] and unread.trace == trace[:-1]
    assert len(unread.masks) == len(masks)
    assert all(np.max(np.abs(a - b)) <= 1e-12 for a, b in zip(unread.masks, masks))


@pytest.mark.parametrize("n_regions", [0, 1, 3])
def test_a_scripted_episode_runs_one_pass_per_seg_slot(rig, monkeypatch, n_regions):
    # the model requires grad, so every prefill misses the memo: one pass for
    # the feature block, then one per seg slot, which also runs the waiting
    # instruction, forced text, marker and crop rows before it
    model, vocab, image = rig
    set_nonempty(model, True)
    words = vocab.encode("segment the red square")
    script = [words[1], words[2]] \
        + [vocab.seg, vocab.image_id, words[2], words[3]] * n_regions + [vocab.eos]
    calls = []
    forward = lm.forward

    def counted(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(lm, "forward", counted)
    result = run_scripted(model, image, words[:1], script, True)
    assert result.end_reason == "eos" and len(result.masks) == n_regions
    assert len(calls) == 1 + n_regions

    # read at every step, the same script runs the block's pass, the first
    # read's pass over the instruction, and one pass for each later step (a
    # seg slot's pass serves the next step's read)
    calls.clear()
    it = iter(script)
    logged = _episode(model, image, words[:1], True, len(script),
                      policy=lambda read: next(it), record_logits=True)
    assert logged.trace == result.trace
    assert len(calls) == 2 + len(script) - 1
    assert len(logged.logits_log) == len(script)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS,
                         ids=[f"toy{s}" for s in range(4)] + ["default"])
def test_two_chunk_prefill_matches_one_pass(cfg):
    """The feature-block chunk plus one cached pass over the waiting instruction
    against one uncached lm.forward over the whole prefix, on a frozen model's
    memo miss and hit."""
    vocab = default_vocab()
    model = Model(cfg, vocab, np.random.default_rng(cfg.seed))
    model.store.set_trainable(())
    image = np.random.default_rng(cfg.seed + 3).random((cfg.canvas, cfg.canvas, 3))
    instruction = prompt_template("refseg", False, vocab) + vocab.encode("the red one")
    f_g, _ = model.encode_image(image)
    seq = build_inference_prefix(f_g, instruction, vocab)
    want_logits, _ = lm.forward(seq, model.store, cfg)
    seq.append_seg(1, supervised=False)
    _, want_states = lm.forward(seq, model.store, cfg)
    for _ in range(2):   # the second pass starts from the memo
        waiting, _, cache, logits = prefill(model, image, instruction)
        assert logits is None and cache.length == f_g.tokens
        logits, _ = lm.forward(waiting, model.store, cfg, cache,
                               rows=[len(waiting) - 1])
        assert cache.length == len(seq) - 1
        assert np.max(np.abs(logits.data[-1] - want_logits.data[-1])) <= 1e-12
        assert np.argmax(logits.data[-1]) == np.argmax(want_logits.data[-1])
        state = seg_state_for(model, image, "the red one")
        assert state.position == want_states[-1].position
        assert np.max(np.abs(state.hidden.data - want_states[-1].hidden.data)) <= 1e-12
        assert np.max(np.abs(state.logits.data - want_states[-1].logits.data)) <= 1e-12
        assert "prefill" in model.store.frozen_memo(("",))


@pytest.mark.parametrize("frozen", [False, True])
def test_prefill_runs_the_feature_block_alone(rig, monkeypatch, frozen):
    # one pass on a miss (every call while the model requires grad), none on
    # a memo hit; the instruction rows wait, so only an empty instruction
    # gets the block's last-row logits back
    model, vocab, image = rig
    if frozen:
        model.store.set_trainable(())
    calls = []
    forward = lm.forward
    monkeypatch.setattr(lm, "forward",
                        lambda *a, **k: calls.append(1) or forward(*a, **k))
    f_g, _ = model.encode_image(image)
    want, _ = forward(build_inference_prefix(f_g, [], vocab), model.store, model.cfg)
    for n, instruction in enumerate(([], vocab.encode("segment the"), [])):
        seq, _, cache, logits = prefill(model, image, instruction)
        assert len(calls) == (1 if frozen else n + 1)
        assert cache.length == f_g.tokens == len(seq) - len(instruction)
        if instruction:
            assert logits is None
        else:
            assert np.max(np.abs(logits.data[-1] - want.data[-1])) <= 1e-12


def test_fuzzed_scripts_at_small_max_seq_match_the_interpreter():
    """Random instructions and token streams with max_seq from the feature
    block's rows up to 20 more: every trace equals the interpreter's given the
    budget, and a prefix that does not fit raises the named ShapeError."""
    vocab = default_vocab()
    base = make_toy_config(0)
    rng = np.random.default_rng(5)
    image = rng.random((base.canvas, base.canvas, 3))
    words = [i for i in range(len(vocab)) if i > vocab.p_close]
    seg, mark, eos = vocab.seg, vocab.image_id, vocab.eos
    model = Model(base, vocab)
    feature_rows = model.encode_image(image)[0].tokens
    crop_rows = encode_local(np.zeros((base.local_res, base.local_res, 3)),
                             model.store, base).tokens
    seen = set()
    for trial in range(80):
        max_seq = feature_rows + int(rng.integers(0, 21))
        model = Model(dataclasses.replace(base, max_seq=max_seq), vocab,
                      np.random.default_rng(trial))
        model.store["segproj.w"].data[:] = 0.0
        nonempty = bool(rng.integers(2))
        set_nonempty(model, nonempty)
        if trial % 2:
            model.store.set_trainable(())   # frozen: the memo path
        instruction = [words[int(i)] for i in
                       rng.integers(0, len(words), int(rng.integers(0, 6)))]
        script = [int(rng.choice([seg, mark, eos, words[int(rng.integers(len(words)))]],
                                 p=[0.25, 0.25, 0.05, 0.45]))
                  for _ in range(int(rng.integers(1, 26)))]
        ilvc = bool(rng.integers(2))
        prefix_rows = feature_rows + len(instruction)
        if prefix_rows > max_seq:
            with pytest.raises(ShapeError, match=f"sequence length {prefix_rows} "
                                                 f"exceeds max_seq {max_seq}"):
                run_scripted(model, image, instruction, script, ilvc)
            seen.add("prefix_too_long")
            continue
        result = run_scripted(model, image, instruction, script, ilvc)
        want = reference_events(script, seg, mark, eos, ilvc, nonempty,
                                prefix_rows=prefix_rows, max_seq=max_seq,
                                crop_rows=crop_rows)
        assert project_trace(result.trace) == want, (trial, script)
        assert len(result.masks) == sum(e == ("SEG",) for e in want)
        last = want[-1][0] if want else None
        assert result.end_reason == ("eos" if last == "EOS" else
                                     "protocol_error" if last == "ERROR" else
                                     "max_steps" if len(want) == len(script) else
                                     "context_full")
        seen.add(result.end_reason)
    assert seen == {"prefix_too_long", "eos", "protocol_error", "max_steps",
                    "context_full"}


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
    # context budget: 5 prefix rows of 9; a crop takes 1 + 2 rows, EOS none
    fit = dict(prefix_rows=5, max_seq=9, crop_rows=2)
    assert reference_events([SEG, IMG, W, W, EOS], SEG, IMG, EOS, True, True,
                            **fit) == [("SEG",), ("CROP",)]
    assert reference_events([W, SEG, IMG], SEG, IMG, EOS, True, True,
                            **fit) == [("TEXT", W), ("SEG",)]
    assert reference_events([W] * 4 + [EOS], SEG, IMG, EOS, True, True,
                            **fit) == [("TEXT", W)] * 4 + [("EOS",)]
    assert reference_events([W] * 4 + [IMG], SEG, IMG, EOS, True, True,
                            **fit)[-1] == ("ERROR", "m_current_null")


def test_project_trace_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown trace event"):
        project_trace([{"event": "JUMP"}])


def test_conformance_suite_smoke():
    report = conformance_suite(n_streams=12, seed=3)
    assert report["agreements"] == 12
    assert report["failures"] == []
    assert "SEG" in report["coverage"] and "CROP" in report["coverage"]
