"""Causal LM over mixed sequences: shapes, causality, loss oracle, ranking."""

import numpy as np
import pytest

from seglang import lm
from seglang.lm import DecodeCache, SegState, next_token_loss, top_k_attribute
from seglang.model import Model
from seglang.scenes import default_vocab
from seglang.sequence import InterleavedSequence
from seglang.tensor import ShapeError, Tensor
from seglang.training import make_toy_config, make_toy_sample


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
        got = next_token_loss(Tensor(logits), targets, supervised).item()
        want = ce_oracle(logits, targets, supervised)
        assert abs(got - want) < 1e-12


def test_loss_only_reads_predecessor_rows():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 8))
    targets = rng.integers(0, 8, 6)
    supervised = np.array([False, True, False, False, True, False])
    base = next_token_loss(Tensor(logits), targets, supervised).item()
    messed = logits.copy()
    messed[2] += 10.0   # position 2 precedes nothing supervised
    messed[5] += 10.0   # final row precedes nothing at all
    assert next_token_loss(Tensor(messed), targets, supervised).item() == base


def test_loss_gradient_reaches_only_used_rows():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    targets = rng.integers(0, 7, 5)
    supervised = np.array([False, True, True, False, False])
    next_token_loss(logits, targets, supervised).backward()
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
        next_token_loss(logits, np.zeros(4, dtype=int),
                        np.array([True, False, False, False]))
    with pytest.raises(ValueError, match="no supervised"):
        next_token_loss(logits, np.zeros(4, dtype=int), np.zeros(4, dtype=bool))
    with pytest.raises(ShapeError):
        next_token_loss(logits, np.zeros(3, dtype=int), np.zeros(4, dtype=bool))


# ---- decoding helpers -------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_cached_forward_matches_full_pass(seed):
    # run a training sequence element by element through one cache
    vocab, cfg, model, _, seq = toy(seed, n_regions=2)
    full, full_states = lm.forward(seq, model.store, cfg)
    cache = DecodeCache(cfg.lm_layers)
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
