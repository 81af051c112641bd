"""Tiny causal decoder over mixed text/feature sequences.

Text tokens and seg slots embed through the token table; feature blocks
splice their rows straight into the input matrix. All positions share one
learned absolute positional table. The forward pass returns the logits of
the rows the caller reads plus one SegState per seg slot among them (the
final-layer hidden at that position and the logits the output head produces
from it). With a DecodeCache a pass runs only the rows appended since the
previous one (incremental decoding); the engine prefills the feature block
alone and runs the instruction on that cache, or on a fork of it when its
memo keeps the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from .sequence import FeatureBlock, InterleavedSequence
from .store import ParamStore
from .tensor import (Tensor, ShapeError, add, concat, embedding_lookup,
                     layer_norm, log_softmax, mul, take_rows, tmean, tslice)


@dataclass
class SegState:
    hidden: Tensor   # (D,) final-layer hidden at the seg position
    logits: Tensor   # (V,) output-head logits at that position
    position: int


class DecodeCache:
    """Each LM layer's K (heads x d_head x max_seq) and V (heads x max_seq x
    d_head) buffers for `tensor.attend`; the first `length` rows are filled.
    `forward` writes a pass's rows in place after them and advances `length`
    only when it returns, so a pass that raises changes no readable row."""

    def __init__(self, cfg):
        self.cfg, self.length, h, dh = cfg, 0, cfg.n_heads, cfg.d_model // cfg.n_heads
        self.layers = [(np.empty((h, dh, cfg.max_seq)), np.empty((h, cfg.max_seq, dh)))
                       for _ in range(cfg.lm_layers)]

    def fork(self) -> "DecodeCache":
        """A cache with its own copy of the filled rows: rows that either one
        runs later stay unseen by the other."""
        twin = DecodeCache(self.cfg)
        twin.length = n = self.length
        for (k, v), (k2, v2) in zip(self.layers, twin.layers):
            k2[:, :, :n], v2[:, :n] = k[:, :, :n], v[:, :n]
        return twin


def init_lm(store: ParamStore, cfg, vocab_size: int,
            rng: np.random.Generator) -> None:
    store.add("lm.tok", Tensor(rng.standard_normal((vocab_size, cfg.d_model)) * 0.02))
    store.add("lm.pos", Tensor(rng.standard_normal((cfg.max_seq, cfg.d_model)) * 0.02))
    for i in range(cfg.lm_layers):
        layers.init_block(store, f"lm.blk{i}", cfg.d_model, rng)
    layers.init_linear(store, "lm.head", cfg.d_model, vocab_size, rng)


def forward(seq: InterleavedSequence, store: ParamStore, cfg,
            cache: DecodeCache | None = None,
            rows=None) -> tuple[Tensor, list[SegState]]:
    """Causal forward pass -> (logits of `rows`, their seg states in slot order).

    `rows` lists the absolute positions the caller reads, strictly increasing
    (None: every row that runs). With a cache only the rows past cache.length
    run, and the cache then covers them too.
    """
    token_ids, _, seg_positions, feat_spans = seq.layout()
    n = len(token_ids)
    start = 0 if cache is None else cache.length
    if n <= start:
        raise ShapeError(f"forward: empty sequence after {start} cached rows")
    if n > cfg.max_seq:
        raise ShapeError(f"sequence length {n} exceeds max_seq {cfg.max_seq}")
    read = np.arange(start, n) if rows is None else np.asarray(rows, np.int64)
    if not read.size or read[0] < start or read[-1] >= n \
            or (read.size > 1 and (np.diff(read) < 1).any()):
        raise ShapeError(
            f"forward: rows {read.tolist()} not increasing in [{start}, {n})")

    # assemble the input matrix: embed each run of token rows between feature
    # blocks in one lookup, splice the blocks through unchanged
    pieces: list[Tensor] = []
    pos = start
    for lo, hi, e in feat_spans:
        if lo < pos:   # a block before the cached length already ran
            continue
        if lo > pos:
            pieces.append(embedding_lookup(store["lm.tok"], token_ids[pos:lo]))
        if e.grid.dim != cfg.d_model:
            raise ShapeError(
                f"feature block width {e.grid.dim} != model width {cfg.d_model}")
        pieces.append(e.grid.values)
        pos = hi
    if pos < n:
        pieces.append(embedding_lookup(store["lm.tok"], token_ids[pos:n]))
    x = pieces[0] if len(pieces) == 1 else concat(pieces)
    x = add(x, tslice(store["lm.pos"], slice(start, n)))

    # earlier blocks feed later keys and values: only the last prunes unread rows
    last = cfg.lm_layers - 1 if read.size < n - start else None
    for i in range(cfg.lm_layers):
        x = layers.block(x, store, f"lm.blk{i}", cfg.n_heads, causal=True,
                         past=None if cache is None else (*cache.layers[i], start),
                         rows=read - start if i == last else None)
    hidden = layer_norm(x)
    logits = layers.linear(hidden, store, "lm.head")
    if cache is not None:
        cache.length = n

    seg_states = [SegState(hidden=tslice(hidden, i), logits=tslice(logits, i),
                           position=int(p))
                  for i, p in enumerate(read) if p in seg_positions]
    return logits, seg_states


def loss_rows(targets: np.ndarray,
              supervised: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, target ids) of next-token prediction: a supervised position t is
    scored from the logits at row t-1, so position 0 (always the global
    feature block) can never carry supervision."""
    targets = np.asarray(targets, dtype=np.int64)
    supervised = np.asarray(supervised, dtype=bool)
    if targets.shape != supervised.shape:
        raise ShapeError(f"loss_rows: targets {targets.shape}, mask {supervised.shape}")
    if supervised[:1].any():
        raise ValueError("position 0 cannot be supervised (nothing precedes it)")
    idx = np.nonzero(supervised)[0]
    if idx.size == 0:
        raise ValueError("no supervised positions")
    return idx - 1, targets[idx]


def next_token_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of each logits row against its target id."""
    if logits.ndim != 2 or np.shape(targets) != (logits.shape[0],):
        raise ShapeError(f"next_token_loss: logits {logits.shape}, "
                         f"targets {np.shape(targets)}")
    return mul(tmean(take_rows(log_softmax(logits), targets)), -1.0)


def top_k_attribute(seg: SegState, subset: list[int], k: int) -> list[int]:
    """The k subset ids with the highest seg logits, ties broken by lower id."""
    if not subset:
        raise ValueError("top_k_attribute: empty lexicon subset")
    if k > len(subset):
        raise ValueError(f"top_k_attribute: k={k} exceeds subset size {len(subset)}")
    scores = seg.logits.data
    ranked = sorted(subset, key=lambda i: (-scores[i], i))
    return ranked[:k]
