"""Interleaved mask-region-text sequences and region cropping.

A training sample becomes one flat sequence of elements: the global feature
block, the instruction, then one run per region (a seg slot, the region
marker, the local feature block, and the bracketed description), closed by
an optional response and the end token.
Supervision flags mark every text/control position and never a feature
position. At inference the engine appends to a bare prefix instead.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .images import bilinear_resize
from .sefe import FeatureGrid, encode_local
from .tensor import ShapeError
from .vocab import Vocab


class EmptyMaskError(ValueError):
    """A region operation met a mask with zero foreground pixels."""


@dataclass
class TextToken:
    token_id: int
    supervised: bool = True


@dataclass
class SegSlot:
    index: int          # 1-based region index
    supervised: bool = True


@dataclass
class FeatureBlock:
    grid: FeatureGrid
    source: str         # "global" or "local:<i>"


@dataclass
class RegionCrop:
    box: tuple[int, int, int, int]   # (row0, col0, row1, col1) inclusive
    region: np.ndarray               # local_res x local_res x 3 floats


class InterleavedSequence:
    """Elements, with running views of their rows that `len()` and `layout()`
    extend by the elements added since the last call. Append through the
    methods or `elements.append`, cut only the tail (`del elements[k:]`) or
    rebind `elements`; never replace or edit an element in the middle."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab
        self.elements: list = []
        self._list = None   # the list whose prefix the views cover

    # -- construction --------------------------------------------------------

    def append_text(self, token_id: int, supervised: bool = True) -> None:
        self.elements.append(TextToken(int(token_id), supervised))

    def append_seg(self, index: int, supervised: bool = True) -> None:
        self.elements.append(SegSlot(index, supervised))

    def append_feat(self, grid: FeatureGrid, source: str) -> None:
        self.elements.append(FeatureBlock(grid, source))

    # -- flat views ----------------------------------------------------------

    def __len__(self) -> int:   # the row count, once the views cover every element
        els = self.elements
        if els is not self._list:   # a new list: start over
            self._list, self._ends, self._segs, self._spans = els, [], [], []
            self._ids, self._sup = array("q"), array("b")
        ends, ids, sup = self._ends, self._ids, self._sup   # ends: (e, rows, segs, spans)
        k = min(len(ends), len(els))
        while k and els[k - 1] is not ends[k - 1][0]:
            k -= 1
        if k < len(ends):   # the tail was cut: drop its rows
            _, rows, segs, spans = ends[k - 1] if k else (None, 0, 0, 0)
            del ends[k:], ids[rows:], sup[rows:], self._segs[segs:], self._spans[spans:]
        for e in els[k:]:
            if isinstance(e, FeatureBlock):
                self._spans.append((len(ids), len(ids) + e.grid.tokens, e))
                ids.extend([self.vocab.pad] * e.grid.tokens)
                sup.frombytes(bytes(e.grid.tokens))
            else:
                if isinstance(e, SegSlot):
                    self._segs.append(len(ids))
                ids.append(self.vocab.seg if isinstance(e, SegSlot) else e.token_id)
                sup.append(bool(e.supervised))
            ends.append((e, len(ids), len(self._segs), len(self._spans)))
        return len(ids)

    def layout(self):
        """(token_ids, supervised, seg_positions, feat_spans), owned by the
        caller; token_ids has the pad id at feature rows, never supervised."""
        len(self)
        return (np.array(self._ids, np.int64), np.array(self._sup, bool),
                list(self._segs), list(self._spans))


# ---- region cropping -------------------------------------------------------

def crop_region(img: np.ndarray, mask: np.ndarray, local_res: int) -> RegionCrop:
    """Tight bounding box of the mask, bilinear-resized to local_res square.

    Background pixels inside the box are kept; the crop is a rectangle, not
    a matte.
    """
    img = np.asarray(img, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != img.shape[:2]:
        raise ShapeError(f"crop_region: mask {mask.shape} vs image {img.shape[:2]}")
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise EmptyMaskError("crop_region: mask has no foreground pixels")
    r0, r1 = int(ys.min()), int(ys.max())
    c0, c1 = int(xs.min()), int(xs.max())
    region = bilinear_resize(img[r0:r1 + 1, c0:c1 + 1], local_res, local_res)
    return RegionCrop((r0, c0, r1, c1), region)


# ---- sequence builders -----------------------------------------------------

def build_training_sequence(f_g: FeatureGrid, instruction: list[int],
                            regions: list[tuple[np.ndarray, list[int]]],
                            img: np.ndarray, store, cfg, vocab: Vocab,
                            ilvc: bool = True,
                            response: list[int] | None = None) -> InterleavedSequence:
    """Assemble one supervised sequence from a sample.

    regions: (gt_mask, description token ids) per region, in annotation
    order. With ilvc on, each region contributes its full run: seg slot,
    marker token, local features cropped via the GT mask, and the bracketed
    description. With ilvc off only the seg slots remain.
    """
    seq = InterleavedSequence(vocab)
    seq.append_feat(f_g, "global")
    for t in instruction:
        seq.append_text(t)
    for i, (gt_mask, description) in enumerate(regions, start=1):
        seq.append_seg(i)
        if not ilvc:
            continue
        if not description:
            raise ValueError(f"region {i}: empty description")
        crop = crop_region(img, gt_mask, cfg.local_res)
        f_l = encode_local(crop.region, store, cfg)
        seq.append_text(vocab.image_id)
        seq.append_feat(f_l, f"local:{i}")
        seq.append_text(vocab.p_open)
        for t in description:
            seq.append_text(t)
        seq.append_text(vocab.p_close)
    if response:
        for t in response:
            seq.append_text(t)
    seq.append_text(vocab.eos)
    return seq


def build_inference_prefix(f_g: FeatureGrid, instruction: list[int],
                           vocab: Vocab) -> InterleavedSequence:
    """Generation prefix: global features plus the instruction, unsupervised."""
    seq = InterleavedSequence(vocab)
    seq.append_feat(f_g, "global")
    for t in instruction:
        seq.append_text(t, supervised=False)
    return seq
