"""Full model assembly: parameters, per-sample forward, loss, stage schedule.

A Model owns the config, vocabulary, and parameter store. The per-sample
loss path runs the front end, builds the interleaved sequence (GT-mask
crops), scores next-token prediction, decodes one mask per seg slot, and
combines the objectives.
"""

from __future__ import annotations

import numpy as np

from . import lm, losses, maskdec, sefe, sequence
from .config import RunConfig
from .scenes import Sample
from .store import ParamStore
from .tensor import tslice
from .vocab import Vocab

STAGE_PREFIXES = {
    1: ("mlp_p.", "segproj."),
    2: ("mlp_p.", "segproj.", "mhca.", "lm.", "mlp_s."),
}


class Model:
    def __init__(self, cfg: RunConfig, vocab: Vocab,
                 rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.store = ParamStore()
        rng = rng or np.random.default_rng(cfg.seed)
        sefe.init_sefe(self.store, cfg, rng)
        lm.init_lm(self.store, cfg, len(vocab), rng)
        maskdec.init_pixel_decoder(self.store, cfg, rng)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        self.store.save(path)

    def load(self, path: str) -> None:
        self.store.load(path)

    # -- stage schedule ------------------------------------------------------

    def configure_trainable(self, stage: int) -> list[str]:
        """Stage 1 trains the pixel projection and seg projector; stage 2
        adds fusion, the language model, and the semantic projection. The
        encoders stay frozen in both stages."""
        if stage not in STAGE_PREFIXES:
            raise ValueError(f"unknown stage {stage}")
        return self.store.set_trainable(STAGE_PREFIXES[stage])

    # -- forward pieces ------------------------------------------------------

    def encode_image(self, image: np.ndarray):
        return sefe.sefe_forward(image, self.store, self.cfg)

    def build_sequence(self, sample: Sample) -> tuple[sequence.InterleavedSequence,
                                                      sefe.FeatureGrid]:
        f_g, f_p_raw = self.encode_image(sample.image)
        seq = sequence.build_training_sequence(
            f_g, sample.instruction, sample.regions, sample.image,
            self.store, self.cfg, self.vocab, ilvc=sample.ilvc,
            response=sample.response)
        return seq, f_p_raw

    def sample_loss(self, sample: Sample) -> losses.LossReport:
        """Combined text + mask objective for one training sample."""
        seq, f_p_raw = self.build_sequence(sample)
        token_ids, supervised, seg_positions, _ = seq.layout()
        scored, targets = lm.loss_rows(token_ids, supervised)
        rows = np.union1d(scored, seg_positions)
        logits, seg_states = lm.forward(seq, self.store, self.cfg, rows=rows)
        text = lm.next_token_loss(tslice(logits, np.searchsorted(rows, scored)),
                                 targets)
        dims = sample.image.shape[:2]
        masks = [(maskdec.decode_mask(st.hidden, f_p_raw, dims, self.store),
                  gt.astype(np.float64))
                 for st, (gt, _) in zip(seg_states, sample.regions)]
        return losses.combined_loss(text, masks)
