"""Causal LM over mixed sequences: shapes, causality, loss oracle, ranking."""

import numpy as np
import pytest

from seglang import layers, lm
from seglang.config import RunConfig
from seglang.lm import DecodeCache, SegState, next_token_loss, top_k_attribute
from seglang.model import Model
from seglang.scenes import default_vocab
from seglang.sequence import InterleavedSequence, build_inference_prefix
from seglang.tensor import ShapeError, Tensor, add, concat, mul, tslice, tsum
from seglang.suites import make_toy_config, make_toy_sample


def toy(seed=0, n_regions=1, ilvc=True):
    vocab = default_vocab()
    cfg = make_toy_config(seed)
    model = Model(cfg, vocab, np.random.default_rng(seed))
    sample = make_toy_sample(cfg, np.random.default_rng(seed + 50), vocab,
                             n_regions, ilvc)
    seq, _ = model.build_sequence(sample)
    return vocab, cfg, model, sample, seq


def test_forward_shapes_and_seg_states():
    vocab, cfg, model, _, seq = toy(0, n_regions=2)
    logits, seg_states = lm.forward(seq, model.store, cfg)
    n = len(seq)
    assert logits.shape == (n, len(vocab))
    assert len(seg_states) == 2
    token_ids, _, seg_positions, _ = seq.layout()
    for state, pos in zip(seg_states, seg_positions):
        assert state.position == pos
        assert state.hidden.shape == (cfg.d_model,)
        assert state.logits.shape == (len(vocab),)
        # the per-slot views are the matching rows of the full pass
        assert np.array_equal(state.logits.data, logits.data[pos])


def test_causality_is_bit_exact():
    # rewriting a suffix token must leave every earlier row untouched
    vocab, cfg, model, sample, seq = toy(1)
    logits_a, _ = lm.forward(seq, model.store, cfg)

    seq_b = InterleavedSequence(vocab)
    seq_b.elements = list(seq.elements[:-1])
    seq_b.append_text(vocab.p_open)  # different final token
    logits_b, _ = lm.forward(seq_b, model.store, cfg)
    assert np.array_equal(logits_a.data[:-1], logits_b.data[:-1])
    assert not np.array_equal(logits_a.data[-1], logits_b.data[-1])


def test_feature_rows_join_the_input():
    vocab, cfg, model, sample, seq = toy(2)
    logits_a, _ = lm.forward(seq, model.store, cfg)
    # perturb the local feature block in place; rows before it must hold
    spans = [s for s in seq.layout()[3] if s[2].source.startswith("local")]
    lo, hi, fb = spans[0]
    fb.grid.values.data += 0.25
    logits_b, _ = lm.forward(seq, model.store, cfg)
    assert np.array_equal(logits_a.data[:lo], logits_b.data[:lo])
    assert not np.array_equal(logits_a.data[hi:], logits_b.data[hi:])


def test_max_seq_and_width_guards():
    vocab, cfg, model, _, seq = toy(3)
    small = make_toy_config(3)
    small.max_seq = 4
    with pytest.raises(ShapeError, match="max_seq"):
        lm.forward(seq, model.store, small)
    with pytest.raises(ShapeError, match="empty"):
        lm.forward(InterleavedSequence(vocab), model.store, cfg)


# ---- read rows --------------------------------------------------------------

@pytest.mark.parametrize("cfg", [make_toy_config(s) for s in range(4)]
                         + [RunConfig(seed=11)],
                         ids=[f"toy{s}" for s in range(4)] + ["default"])
def test_read_rows_match_the_full_rows(cfg):
    # the loss rows plus the seg slots, run pruned and sliced out of a full
    # pass: logits, seg states, the loss and every gradient agree
    vocab = default_vocab()
    model = Model(cfg, vocab, np.random.default_rng(cfg.seed))
    model.store.set_trainable(("",))
    sample = make_toy_sample(cfg, np.random.default_rng(cfg.seed + 50), vocab,
                             n_regions=2, ilvc=True, with_response=True)
    weights = np.random.default_rng(cfg.seed + 60).standard_normal(
        (2, cfg.d_model + len(vocab)))

    def run(pruned):
        seq, _ = model.build_sequence(sample)
        token_ids, supervised, seg_positions, _ = seq.layout()
        scored, targets = lm.loss_rows(token_ids, supervised)
        rows = np.union1d(scored, seg_positions)
        if pruned:
            logits, states = lm.forward(seq, model.store, cfg, rows=rows)
        else:
            full, states = lm.forward(seq, model.store, cfg)
            logits = tslice(full, rows)
        loss = next_token_loss(tslice(logits, np.searchsorted(rows, scored)),
                               targets)
        total = loss
        for st, w in zip(states, weights):
            total = add(total, tsum(mul(concat([st.hidden, st.logits]), Tensor(w))))
        model.store.zero_grad()
        total.backward()
        grads = {n: p.grad for n, p in model.store.params.items()
                 if p.grad is not None}
        return len(seq), rows, logits.data, states, loss.item(), grads

    n, rows, logits, states, loss, grads = run(True)
    _, _, want_logits, want_states, want_loss, want_grads = run(False)
    assert len(rows) < n and logits.shape == (len(rows), len(vocab))
    assert np.max(np.abs(logits - want_logits)) <= 1e-12
    assert [st.position for st in states] == [st.position for st in want_states]
    assert len(states) == 2
    for got, want in zip(states, want_states):
        assert np.max(np.abs(got.hidden.data - want.hidden.data)) <= 1e-12
        assert np.max(np.abs(got.logits.data - want.logits.data)) <= 1e-12
    assert abs(loss - want_loss) <= 1e-12
    assert grads.keys() == want_grads.keys()
    assert any(n.startswith("lm.blk") for n in grads)
    for name, g in grads.items():
        assert np.max(np.abs(g - want_grads[name])) <= 1e-12, name


def test_bad_rows_raise_a_named_error():
    vocab, cfg, model, _, seq = toy(0)
    n = len(seq)
    for rows in ([3, 1], [2, 2], [-1], [n], []):
        with pytest.raises(ShapeError, match="rows"):
            lm.forward(seq, model.store, cfg, rows=rows)
    part = InterleavedSequence(vocab)
    part.elements = list(seq.elements[:-1])
    cache = DecodeCache(cfg)
    lm.forward(part, model.store, cfg, cache, rows=[len(part) - 1])
    with pytest.raises(ShapeError, match="rows"):
        lm.forward(seq, model.store, cfg, cache, rows=[n - 2, n - 1])
    assert cache.length == n - 1   # a refused pass leaves the cache alone
    logits, _ = lm.forward(seq, model.store, cfg, cache, rows=[n - 1])
    assert logits.shape == (1, len(vocab))


# ---- loss -------------------------------------------------------------------

def ce_oracle(logits, targets, supervised):
    """Direct-formula mean cross-entropy, one position at a time."""
    total = 0.0
    count = 0
    for t in range(len(targets)):
        if not supervised[t]:
            continue
        row = logits[t - 1]
        p = np.exp(row) / np.exp(row).sum()
        total += -np.log(p[targets[t]])
        count += 1
    return total / count


def full_row_loss(logits, targets, supervised):
    """next_token_loss over a full T x V logits matrix."""
    rows, picked = lm.loss_rows(targets, supervised)
    return next_token_loss(tslice(logits, rows), picked)


def test_next_token_loss_matches_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n, v = 9, 12
        logits = rng.standard_normal((n, v)) * 2
        targets = rng.integers(0, v, n)
        supervised = rng.random(n) < 0.5
        supervised[0] = False
        if not supervised.any():
            supervised[3] = True
        got = full_row_loss(Tensor(logits), targets, supervised).item()
        want = ce_oracle(logits, targets, supervised)
        assert abs(got - want) < 1e-12


def test_loss_only_reads_predecessor_rows():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 8))
    targets = rng.integers(0, 8, 6)
    supervised = np.array([False, True, False, False, True, False])
    base = full_row_loss(Tensor(logits), targets, supervised).item()
    messed = logits.copy()
    messed[2] += 10.0   # position 2 precedes nothing supervised
    messed[5] += 10.0   # final row precedes nothing at all
    assert full_row_loss(Tensor(messed), targets, supervised).item() == base


def test_loss_gradient_reaches_only_used_rows():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    targets = rng.integers(0, 7, 5)
    supervised = np.array([False, True, True, False, False])
    full_row_loss(logits, targets, supervised).backward()
    used = {0, 1}
    for t in range(5):
        row = logits.grad[t]
        if t in used:
            assert np.abs(row).sum() > 0
        else:
            assert np.array_equal(row, np.zeros(7))


def test_loss_input_validation():
    logits = Tensor(np.zeros((4, 5)))
    with pytest.raises(ValueError, match="position 0"):
        full_row_loss(logits, np.zeros(4, dtype=int),
                      np.array([True, False, False, False]))
    with pytest.raises(ValueError, match="no supervised"):
        full_row_loss(logits, np.zeros(4, dtype=int), np.zeros(4, dtype=bool))
    with pytest.raises(ShapeError):
        full_row_loss(logits, np.zeros(3, dtype=int), np.zeros(4, dtype=bool))
    with pytest.raises(ShapeError, match="next_token_loss"):
        next_token_loss(logits, np.zeros(3, dtype=int))


# ---- decoding helpers -------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_cached_forward_matches_full_pass(seed):
    # run a training sequence element by element through one cache
    vocab, cfg, model, _, seq = toy(seed, n_regions=2)
    full, full_states = lm.forward(seq, model.store, cfg)
    cache = DecodeCache(cfg)
    part = InterleavedSequence(vocab)
    rows, states = [], []
    for e in seq.elements:
        part.elements.append(e)
        logits, new_states = lm.forward(part, model.store, cfg, cache)
        assert cache.length == len(part) == sum(len(r) for r in rows) + len(logits.data)
        rows.append(logits.data)
        states += new_states
    assert np.max(np.abs(np.concatenate(rows) - full.data)) <= 1e-12
    assert [st.position for st in states] == [st.position for st in full_states]
    for got, want in zip(states, full_states):
        assert np.max(np.abs(got.hidden.data - want.hidden.data)) <= 1e-12
    with pytest.raises(ShapeError, match="empty sequence after"):
        lm.forward(part, model.store, cfg, cache)


def test_cached_one_row_step_slices_only_the_positions(monkeypatch):
    # a step reads every row it runs, so the last block takes all of them
    vocab, cfg, model, _, seq = toy(1)
    cache = DecodeCache(cfg)
    lm.forward(seq, model.store, cfg, cache, rows=[len(seq) - 1])
    seq.append_text(vocab.encode("red")[0], supervised=False)
    want, _ = lm.forward(seq, model.store, cfg)
    sliced = []
    for module in (lm, layers):
        monkeypatch.setattr(module, "tslice", lambda x, i, real=module.tslice:
                            sliced.append(i) or real(x, i))
    logits, _ = lm.forward(seq, model.store, cfg, cache, rows=[len(seq) - 1])
    assert sliced == [slice(len(seq) - 1, len(seq))]   # lm.pos rows only
    assert np.max(np.abs(logits.data[0] - want.data[-1])) <= 1e-12


def decode_steps(seq, cache, model, cfg, steps):
    """Append each (kind, arg) step and run it on `cache` -> per step the
    last row's logits and the (hidden, logits) of its seg states."""
    out = []
    for kind, arg in steps:
        if kind == "seg":
            seq.append_seg(arg, supervised=False)
        else:
            seq.append_text(arg, supervised=False)
        logits, states = lm.forward(seq, model.store, cfg, cache, rows=[len(seq) - 1])
        out.append((logits.data.copy(),
                    [(st.hidden.data.copy(), st.logits.data.copy()) for st in states]))
    return out


def assert_steps_bit_equal(got, want):
    assert len(got) == len(want)
    for (logits, states), (w_logits, w_states) in zip(got, want):
        assert np.array_equal(logits, w_logits) and len(states) == len(w_states)
        for (h, lg), (w_h, w_lg) in zip(states, w_states):
            assert np.array_equal(h, w_h) and np.array_equal(lg, w_lg)


def test_forks_of_one_cache_decode_independently():
    # two forks of one prefilled cache take different tokens in turn; each
    # gives the logits and seg states of a fresh run, bit for bit, and the
    # parent's buffers are not written
    vocab, cfg, model, sample, _ = toy(3)
    f_g, _ = model.encode_image(sample.image)
    words = vocab.encode("the red square")
    scripts = ([("text", words[0]), ("seg", 1), ("text", words[1]), ("seg", 2)],
               [("seg", 1), ("text", words[2]), ("seg", 2), ("text", words[2])])

    def prefilled():
        cache, seq = DecodeCache(cfg), build_inference_prefix(f_g, words, vocab)
        lm.forward(seq, model.store, cfg, cache, rows=[len(seq) - 1])
        return cache, seq

    parent, _ = prefilled()
    before = [(k.tobytes(), v.tobytes()) for k, v in parent.layers]
    forks = [parent.fork(), parent.fork()]
    seqs = [build_inference_prefix(f_g, words, vocab) for _ in forks]
    got: list[list] = [[], []]
    for i in range(4):
        for j in (0, 1):
            got[j] += decode_steps(seqs[j], forks[j], model, cfg, scripts[j][i:i + 1])
    assert [(k.tobytes(), v.tobytes()) for k, v in parent.layers] == before
    for j in (0, 1):
        cache, seq = prefilled()
        assert_steps_bit_equal(got[j], decode_steps(seq, cache, model, cfg, scripts[j]))
    # the parent decodes on, and fork 0 after it still matches a fresh run
    decode_steps(build_inference_prefix(f_g, words, vocab), parent, model, cfg,
                 scripts[1])
    more = [("text", words[1]), ("seg", 3)]
    cache, seq = prefilled()
    assert_steps_bit_equal(got[0] + decode_steps(seqs[0], forks[0], model, cfg, more),
                           decode_steps(seq, cache, model, cfg, scripts[0] + more))


def test_a_pass_that_raises_leaves_the_cache_as_it_was(monkeypatch):
    # the second block raises after the first wrote its rows past `length`:
    # every readable row stays as it was and the next pass is a fresh one's
    vocab, cfg, model, _, seq = toy(3)
    assert cfg.lm_layers == 2
    part = InterleavedSequence(vocab)
    part.elements = list(seq.elements[:-3])

    def cached():
        cache = DecodeCache(cfg)
        lm.forward(part, model.store, cfg, cache)
        return cache

    cache = cached()
    length = cache.length
    filled = [(k[:, :, :length].copy(), v[:, :length].copy()) for k, v in cache.layers]
    real = layers.block

    def failing(x, store, prefix, *args, **kwargs):
        if prefix == "lm.blk1":
            raise RuntimeError("second block failed")
        return real(x, store, prefix, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(layers, "block", failing)
        with pytest.raises(RuntimeError, match="second block"):
            lm.forward(seq, model.store, cfg, cache)
    assert cache.length == length
    for (k, v), (want_k, want_v) in zip(cache.layers, filled):
        assert np.array_equal(k[:, :, :length], want_k)
        assert np.array_equal(v[:, :length], want_v)
    got, got_states = lm.forward(seq, model.store, cfg, cache)
    want, want_states = lm.forward(seq, model.store, cfg, cached())
    assert np.array_equal(got.data, want.data) and cache.length == len(seq)
    assert [st.position for st in got_states] == [st.position for st in want_states]
    for a, b in zip(got_states, want_states):
        assert np.array_equal(a.hidden.data, b.hidden.data)


def test_top_k_attribute_ordering_and_ties():
    scores = np.zeros(10)
    scores[3], scores[7], scores[5] = 2.0, 2.0, 1.0
    state = SegState(hidden=Tensor(np.zeros(4)), logits=Tensor(scores), position=0)
    assert top_k_attribute(state, [3, 5, 7], 3) == [3, 7, 5]  # tie -> lower id
    assert top_k_attribute(state, [5, 7], 1) == [7]
    with pytest.raises(ValueError, match="empty lexicon"):
        top_k_attribute(state, [], 1)
    with pytest.raises(ValueError, match="exceeds subset"):
        top_k_attribute(state, [3, 5], 3)
