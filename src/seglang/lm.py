"""Tiny causal decoder over mixed text/feature sequences.

Text tokens and seg slots embed through the token table; feature blocks
splice their rows straight into the input matrix. All positions share one
learned absolute positional table. The forward pass returns full logits
plus one SegState per seg slot (the final-layer hidden at that position
and the logits the output head produces from it). With a DecodeCache a pass
runs only the rows appended since the previous one (incremental decoding).
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
    """Each LM layer's K and V for the first `length` rows of one sequence,
    held as plain arrays, so the cache never keeps an autodiff tape."""

    def __init__(self, n_layers: int):
        self.length = 0
        self.layers: list[dict] = [{} for _ in range(n_layers)]


def init_lm(store: ParamStore, cfg, vocab_size: int,
            rng: np.random.Generator) -> None:
    store.add("lm.tok", Tensor(rng.standard_normal((vocab_size, cfg.d_model)) * 0.02))
    store.add("lm.pos", Tensor(rng.standard_normal((cfg.max_seq, cfg.d_model)) * 0.02))
    for i in range(cfg.lm_layers):
        layers.init_block(store, f"lm.blk{i}", cfg.d_model, rng)
    layers.init_linear(store, "lm.head", cfg.d_model, vocab_size, rng)


def forward(seq: InterleavedSequence, store: ParamStore, cfg,
            cache: DecodeCache | None = None) -> tuple[Tensor, list[SegState]]:
    """Causal forward pass -> (T x V logits, seg states in slot order).

    With a cache only the rows past cache.length run, and the logits and
    seg states cover just those rows; the cache then covers them too.
    """
    token_ids, _, seg_positions, feat_spans = seq.layout()
    n = len(token_ids)
    start = 0 if cache is None else cache.length
    if n <= start:
        raise ShapeError(f"forward: empty sequence after {start} cached rows")
    if n > cfg.max_seq:
        raise ShapeError(f"sequence length {n} exceeds max_seq {cfg.max_seq}")

    # assemble the input matrix: embed runs of single-token elements in one
    # lookup each, splice feature blocks through unchanged
    pieces: list[Tensor] = []
    feat_at = {lo: e for lo, _, e in feat_spans}
    pos = start
    run: list[int] = []
    while pos < n:
        e = feat_at.get(pos)
        if e is not None:
            if run:
                pieces.append(embedding_lookup(store["lm.tok"], run))
                run = []
            if e.grid.dim != cfg.d_model:
                raise ShapeError(
                    f"feature block width {e.grid.dim} != model width {cfg.d_model}")
            pieces.append(e.grid.values)
            pos += e.grid.tokens
        else:
            run.append(int(token_ids[pos]))
            pos += 1
    if run:
        pieces.append(embedding_lookup(store["lm.tok"], run))
    x = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
    x = add(x, tslice(store["lm.pos"], slice(start, n)))

    for i in range(cfg.lm_layers):
        x = layers.block(x, store, f"lm.blk{i}", cfg.n_heads, causal=True,
                         past=None if cache is None else cache.layers[i])
    hidden = layer_norm(x)
    logits = layers.linear(hidden, store, "lm.head")
    if cache is not None:
        cache.length = n

    seg_states = [SegState(hidden=tslice(hidden, p - start),
                           logits=tslice(logits, p - start), position=p)
                  for p in seg_positions if p >= start]
    return logits, seg_states


def next_token_loss(logits: Tensor, targets: np.ndarray,
                    supervised: np.ndarray) -> Tensor:
    """Mean cross-entropy over supervised positions.

    A supervised position t is scored from the logits at t-1, so position 0
    (always the global feature block) can never carry supervision.
    """
    targets = np.asarray(targets, dtype=np.int64)
    supervised = np.asarray(supervised, dtype=bool)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],) \
            or supervised.shape != (logits.shape[0],):
        raise ShapeError(
            f"next_token_loss: logits {logits.shape}, targets {targets.shape}, "
            f"mask {supervised.shape}")
    if supervised[0]:
        raise ValueError("position 0 cannot be supervised (nothing precedes it)")
    idx = np.nonzero(supervised)[0]
    if idx.size == 0:
        raise ValueError("no supervised positions")
    logp = log_softmax(logits, axis=-1)
    rows = tslice(logp, idx - 1)
    picked = take_rows(rows, targets[idx])
    return mul(tmean(picked), -1.0)


def top_k_attribute(seg: SegState, subset: list[int], k: int) -> list[int]:
    """The k subset ids with the highest seg logits, ties broken by lower id."""
    if not subset:
        raise ValueError("top_k_attribute: empty lexicon subset")
    if k > len(subset):
        raise ValueError(f"top_k_attribute: k={k} exceeds subset size {len(subset)}")
    scores = seg.logits.data
    ranked = sorted(subset, key=lambda i: (-scores[i], i))
    return ranked[:k]
