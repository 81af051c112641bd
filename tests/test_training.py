"""Training drivers: toy fixtures, stage freezing, eval plumbing, determinism."""

import dataclasses
import os

import numpy as np
import pytest

from seglang import sefe
from seglang.attreval import build_probes
from seglang.config import RunConfig
from seglang.engine import generate, prompt_template
from seglang.model import Model, STAGE_PREFIXES
from seglang.scenes import default_vocab, load_attr_records
from seglang.suites import grad_check_suite, make_toy_config, make_toy_sample
from seglang.training import (answer_question, description_positions,
                              eval_refseg, load_model, score_probes,
                              seg_state_for, train, write_refseg_csv)
from seglang.vocab import Vocab


# ---- toy fixtures ----------------------------------------------------------

def test_toy_sample_contents():
    cfg = make_toy_config(0)
    vocab = default_vocab()
    rng = np.random.default_rng(5)
    s = make_toy_sample(cfg, rng, vocab, n_regions=2, ilvc=True,
                        with_response=True)
    assert s.task == "refseg" and s.ilvc
    assert s.image.shape == (cfg.canvas, cfg.canvas, 3)
    assert len(s.regions) == 2
    for mask, desc in s.regions:
        assert mask.shape == (cfg.canvas, cfg.canvas) and mask.any()
        assert 2 <= len(desc) <= 4
        assert all(t > vocab.p_close for t in desc)  # plain words only
    assert 2 <= len(s.instruction) <= 5
    assert len(s.response) == 2
    assert make_toy_sample(cfg, rng, vocab, 0, False).response == []


def test_description_positions_match_layout(toy_vocab):
    cfg = make_toy_config(1)
    rng = np.random.default_rng(7)
    model = Model(cfg, toy_vocab, rng)
    sample = make_toy_sample(cfg, rng, toy_vocab, n_regions=2, ilvc=True)
    seq, _ = model.build_sequence(sample)
    token_ids, _, _, feat_spans = seq.layout()
    positions = description_positions(seq)
    want = [t for _, desc in sample.regions for t in desc]
    assert [token_ids[p] for p in positions] == want
    for lo, hi, _ in feat_spans:
        assert not any(lo <= p < hi for p in positions)


def test_description_positions_empty_without_regions(toy_vocab):
    cfg = make_toy_config(0)
    rng = np.random.default_rng(8)
    model = Model(cfg, toy_vocab, rng)
    sample = make_toy_sample(cfg, rng, toy_vocab, n_regions=0, ilvc=True)
    seq, _ = model.build_sequence(sample)
    assert description_positions(seq) == []


# ---- gradient-fidelity suite ----------------------------------------------

def test_grad_check_suite_small():
    reports = grad_check_suite(n_configs=3, sample_per_param=1, base_seed=0)
    assert [r["config"] for r in reports] == [0, 1, 2]
    for r in reports:
        assert r["checked"] > 0
        assert r["max_rel_err"] < 1e-4, r


# ---- train() ---------------------------------------------------------------

def stage_cfg(data_dir, tmp_path, stage, run, **kw):
    out = tmp_path / run
    return RunConfig(data_dir=data_dir, stage=stage, steps=3, lr=0.05,
                     seed=3, checkpoint=str(out / "model.ckpt"),
                     out_dir=str(out), **kw)


def test_stage1_moves_only_scheduled_params(tiny_split, tmp_path):
    cfg = stage_cfg(tiny_split, tmp_path, 1, "a")
    report = train(cfg)
    assert report["steps"] == 3 and report["stage"] == 1
    assert os.path.exists(report["log"]) and os.path.exists(cfg.checkpoint)
    fresh = Model(cfg, Vocab.load(cfg.vocab_file))
    trained = load_model(cfg)
    moved = []
    for name in fresh.store.names():
        same = np.array_equal(trained.store[name].data, fresh.store[name].data)
        if name.startswith(STAGE_PREFIXES[1]):
            if not same:
                moved.append(name)
        else:
            assert same, f"{name} should be frozen in stage 1"
    assert moved, "no scheduled parameter moved"


def test_load_model_freezes_every_parameter(tiny_split, tmp_path):
    cfg = stage_cfg(tiny_split, tmp_path, 1, "frozen")
    Model(cfg, Vocab.load(cfg.vocab_file)).save(str(tmp_path / "init.ckpt"))
    cfg.checkpoint = str(tmp_path / "init.ckpt")
    model = load_model(cfg)
    assert not any(model.store[n].requires_grad for n in model.store.names())
    image = np.random.default_rng(0).random((cfg.canvas, cfg.canvas, 3))
    state = seg_state_for(model, image, "the red square")
    assert not state.hidden.requires_grad    # so it holds no forward tape


def test_train_is_bit_deterministic(tiny_split, tmp_path):
    cfg1 = stage_cfg(tiny_split, tmp_path, 1, "d1")
    cfg2 = stage_cfg(tiny_split, tmp_path, 1, "d2")
    r1, r2 = train(cfg1), train(cfg2)
    assert open(r1["log"], "rb").read() == open(r2["log"], "rb").read()
    assert open(cfg1.checkpoint, "rb").read() == open(cfg2.checkpoint, "rb").read()


def test_train_runs_each_encoder_once_per_distinct_input(tiny_split, tmp_path,
                                                         encoder_calls):
    runs, inputs = encoder_calls
    train(stage_cfg(tiny_split, tmp_path, 2, "memo"))
    assert len(runs) == len(set(inputs)) < len(inputs)


def test_stage2_warm_starts_from_checkpoint(tiny_split, tmp_path):
    cfg1 = stage_cfg(tiny_split, tmp_path, 1, "w1")
    train(cfg1)
    cfg2 = stage_cfg(tiny_split, tmp_path, 2, "w2",
                     init_checkpoint=cfg1.checkpoint)
    train(cfg2)
    m1, m2 = load_model(cfg1), load_model(cfg2)
    # encoders stay frozen through both stages
    for name in m2.store.names():
        if name.startswith(("sem_enc.", "pix_enc.")):
            assert np.array_equal(m2.store[name].data, m1.store[name].data)
    assert any(not np.array_equal(m2.store[n].data, m1.store[n].data)
               for n in m2.store.names() if n.startswith("lm."))


def test_train_rejects_empty_split(tmp_path):
    os.makedirs(tmp_path / "train")
    open(tmp_path / "train" / "samples.jsonl", "w").close()
    default_vocab().save(str(tmp_path / "vocab.txt"))
    cfg = stage_cfg(str(tmp_path), tmp_path, 1, "e")
    with pytest.raises(RuntimeError, match="empty"):
        train(cfg)


# ---- evaluation drivers ----------------------------------------------------

def test_eval_refseg_smoke(tiny_split):
    cfg = RunConfig(data_dir=tiny_split)
    model = Model(cfg, Vocab.load(cfg.vocab_file))
    rep = eval_refseg(model, tiny_split, ilvc_enabled=True, max_steps=10)
    assert rep["n_samples"] >= 1
    assert len(rep["rows"]) == rep["n_samples"]
    assert {r["end_reason"] for r in rep["rows"]} <= {
        "eos", "max_steps", "context_full", "protocol_error"}
    assert 0.0 <= rep["metrics"]["giou"] <= 1.0
    assert rep["desc_tokens"] > 0
    assert 0.0 <= rep["desc_token_acc"] <= 1.0


def test_eval_refseg_runs_each_encoder_once_per_distinct_input(tiny_split, tmp_path,
                                                               encoder_calls):
    cfg = stage_cfg(tiny_split, tmp_path, 1, "eval_memo")
    Model(cfg, Vocab.load(cfg.vocab_file)).save(str(tmp_path / "init.ckpt"))
    cfg.checkpoint = str(tmp_path / "init.ckpt")
    model = load_model(cfg)
    runs, inputs = encoder_calls
    eval_refseg(model, tiny_split, ilvc_enabled=True, max_steps=10)
    assert len(runs) == len(set(inputs)) < len(inputs)


def test_write_refseg_csv(tmp_path):
    rows = [{"sample": "s0", "iou": 0.5, "n_masks": 1,
             "protocol_error": "", "truncated": False, "end_reason": "eos"}]
    path = str(tmp_path / "refseg.csv")
    write_refseg_csv(rows, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "sample,iou,n_masks,protocol_error,truncated,end_reason"
    assert lines[1].startswith("s0,0.5,1") and lines[1].endswith(",eos")


def test_score_probes_smoke(tiny_split):
    cfg = RunConfig(data_dir=tiny_split)
    model = Model(cfg, Vocab.load(cfg.vocab_file))
    eval_dir = os.path.join(tiny_split, "eval")
    probes = build_probes(load_attr_records(eval_dir), model.vocab, seed=0)
    rep = score_probes(model, probes, eval_dir)
    assert rep["n"] >= 1
    for key in ("vqa_acc", "acc1", "acc3"):
        assert 0.0 <= rep[key] <= 1.0
    assert rep["acc1"] <= rep["acc3"] + 1e-12


# ---- AttrEval answers ------------------------------------------------------

QUESTION = "is the circle red ?"


def first_word_of_long_episode(model, image, question, max_steps=8):
    instruction = prompt_template("vqa", False, model.vocab) \
        + model.vocab.encode(question)
    result = generate(model, image, instruction, False, max_steps=max_steps)
    first = result.output_tokens[:1]
    if not first or first[0] == model.vocab.eos:
        return "", result
    return model.vocab.tokens[first[0]], result


@pytest.mark.parametrize("seed", range(4))
def test_answer_is_the_first_word_of_an_eight_step_episode(toy_vocab, seed):
    cfg = make_toy_config(seed)
    rng = np.random.default_rng(seed)
    model = Model(cfg, toy_vocab, rng)
    for _ in range(3):
        image = rng.random((cfg.canvas, cfg.canvas, 3))
        want, _ = first_word_of_long_episode(model, image, QUESTION)
        assert want != ""
        assert answer_question(model, image, QUESTION) == want


def test_answer_is_empty_when_the_head_favours_eos(toy_vocab):
    cfg = make_toy_config(1)
    model = Model(cfg, toy_vocab, np.random.default_rng(1))
    model.store["lm.head.b"].data[toy_vocab.eos] = 1e3
    image = np.random.default_rng(2).random((cfg.canvas, cfg.canvas, 3))
    want, result = first_word_of_long_episode(model, image, QUESTION)
    assert want == "" and result.end_reason == "eos"
    assert answer_question(model, image, QUESTION) == ""


def test_answer_is_empty_when_the_first_token_does_not_fit(toy_vocab):
    cfg = make_toy_config(0)
    image = np.random.default_rng(3).random((cfg.canvas, cfg.canvas, 3))
    f_g, _ = Model(cfg, toy_vocab).encode_image(image)
    rows = f_g.tokens + len(prompt_template("vqa", False, toy_vocab)
                            + toy_vocab.encode(QUESTION))
    model = Model(dataclasses.replace(cfg, max_seq=rows), toy_vocab)
    want, result = first_word_of_long_episode(model, image, QUESTION)
    assert want == "" and result.end_reason == "context_full"
    assert answer_question(model, image, QUESTION) == ""


# ---- the frozen model's one-image prefill memo -------------------------------

def frozen_toy(toy_vocab, seed=3):
    model = Model(make_toy_config(seed), toy_vocab, np.random.default_rng(seed))
    model.store.set_trainable(())
    return model


def prefill_entry(model):
    """A frozen model's prefill entry: (image, f_g, f_p_raw, cache, logits)."""
    return model.store.frozen_memo(("",)).get("prefill")


def probe_calls(model, image):
    """What each AttrEval call returns, as plain values: the answer, the seg
    state's hidden and logits, and a short greedy episode's tokens and logits."""
    state = seg_state_for(model, image, "the red square")
    episode = generate(model, image, prompt_template("gcg", True, model.vocab),
                       True, max_steps=4, record_logits=True)
    return [answer_question(model, image, QUESTION), state.hidden.data,
            state.logits.data, episode.output_tokens, *episode.logits_log]


def test_prefill_memo_outputs_equal_a_fresh_models(toy_vocab, monkeypatch):
    rng = np.random.default_rng(4)
    cfg = make_toy_config(3)
    a, b = (rng.random((cfg.canvas, cfg.canvas, 3)) for _ in range(2))
    encodes = []
    real = sefe.sefe_forward
    monkeypatch.setattr(sefe, "sefe_forward",
                        lambda *args: encodes.append(1) or real(*args))
    model = frozen_toy(toy_vocab)
    for image, misses in ((a, 1), (b, 2), (a, 3), (a, 3)):
        got = probe_calls(model, image)
        assert len(encodes) == misses   # three calls, one encode per new image
        assert np.array_equal(prefill_entry(model)[0],
                              sefe.check_image(image, cfg.patch))
        want = probe_calls(frozen_toy(toy_vocab), image)
        del encodes[-1]                  # the fresh model's one encode
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_prefill_memo_keeps_its_own_copy_and_compares_bits(toy_vocab, monkeypatch):
    # the caller may write into its image after a call, and -0.0 is not 0.0
    encodes = []
    real = sefe.sefe_forward
    monkeypatch.setattr(sefe, "sefe_forward",
                        lambda *args: encodes.append(1) or real(*args))
    model = frozen_toy(toy_vocab)
    cfg = model.cfg
    image = np.random.default_rng(8).random((cfg.canvas, cfg.canvas, 3))
    image[0, 0, 0] = 0.0
    for edit, misses in ((None, 1), (0.5, 2), (0.5, 2), (-0.0, 3), (0.0, 4)):
        if edit is not None:
            image[0, 0, 0] = edit
        answer_question(model, image, QUESTION)
        assert len(encodes) == misses
        assert prefill_entry(model)[0] is not image


def test_prefill_memo_hit_leaves_the_stored_cache_unchanged(toy_vocab):
    model = frozen_toy(toy_vocab)
    cfg = model.cfg
    image = np.random.default_rng(5).random((cfg.canvas, cfg.canvas, 3))
    answer_question(model, image, QUESTION)
    memo = prefill_entry(model)
    cache = memo[3]
    stored = list(cache.layers)
    copies = [(k.tobytes(), v.tobytes()) for k, v in cache.layers]
    length = cache.length
    seg_state_for(model, image, "the red square")
    generate(model, image, prompt_template("gcg", True, model.vocab), True,
             max_steps=6)
    assert prefill_entry(model) is memo and cache.length == length
    # the same buffers, not one byte written: every question ran on a fork
    for layer, before, copy in zip(cache.layers, stored, copies):
        assert layer is before
        assert (layer[0].tobytes(), layer[1].tobytes()) == copy


def test_prefill_memo_needs_every_parameter_frozen(toy_vocab, monkeypatch):
    encodes = []
    real = sefe.sefe_forward
    monkeypatch.setattr(sefe, "sefe_forward",
                        lambda *args: encodes.append(1) or real(*args))
    cfg = make_toy_config(3)
    image = np.random.default_rng(6).random((cfg.canvas, cfg.canvas, 3))
    model = Model(cfg, toy_vocab, np.random.default_rng(3))   # all trainable
    for _ in range(2):
        answer_question(model, image, QUESTION)
    assert len(encodes) == 2
    model.store.set_trainable(("lm.head.",))
    for _ in range(2):
        assert seg_state_for(model, image, "the red square").logits.requires_grad
    assert len(encodes) == 4
    model.store.set_trainable(())
    for _ in range(2):
        seg_state_for(model, image, "the red square")
    assert len(encodes) == 5
    model.store["lm.head.w"].requires_grad = True   # bypassing set_trainable
    assert seg_state_for(model, image, "the red square").logits.requires_grad
    model.store["lm.head.w"].requires_grad = False  # that call dropped the entry
    seg_state_for(model, image, "the red square")
    assert len(encodes) == 7


def test_prefill_memo_dropped_by_set_trainable_and_load(toy_vocab, tmp_path):
    model = frozen_toy(toy_vocab)
    cfg = model.cfg
    image = np.random.default_rng(7).random((cfg.canvas, cfg.canvas, 3))
    path = str(tmp_path / "frozen.ckpt")
    model.save(path)
    answer_question(model, image, QUESTION)
    assert prefill_entry(model) is not None
    model.store.set_trainable(())
    assert prefill_entry(model) is None
    answer_question(model, image, QUESTION)
    model.load(path)
    assert prefill_entry(model) is None
