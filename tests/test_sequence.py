"""Interleaved sequence layout, region cropping, and the structural parser.

The layout check builds the expected element-kind signature from scratch
for each region count and compares it against the built sequence, then the
parser must recover every input id exactly.
"""

import numpy as np
import pytest

from seglang.images import bilinear_resize
from seglang.model import Model
from seglang.scenes import default_vocab
from seglang.sefe import FeatureGrid
from seglang.sequence import (EmptyMaskError, FeatureBlock, InterleavedSequence,
                              SegSlot, TextToken, build_inference_prefix,
                              build_training_sequence, crop_region,
                              parse_training_sequence)
from seglang.tensor import ShapeError, Tensor
from seglang.suites import make_toy_config, make_toy_sample


def build(n_regions, ilvc=True, with_response=False, seed=0):
    vocab = default_vocab()
    cfg = make_toy_config(seed)
    model = Model(cfg, vocab, np.random.default_rng(seed))
    sample = make_toy_sample(cfg, np.random.default_rng(seed + 1), vocab,
                             n_regions, ilvc, with_response)
    f_g, _ = model.encode_image(sample.image)
    seq = build_training_sequence(
        f_g, sample.instruction, sample.regions, sample.image, model.store,
        cfg, vocab, ilvc=ilvc, response=sample.response or None)
    return vocab, cfg, sample, seq


def expected_kinds(sample, ilvc):
    kinds = ["feat:global"] + ["text"] * len(sample.instruction)
    for i in range(1, len(sample.regions) + 1):
        kinds.append(f"seg:{i}")
        if ilvc:
            kinds += ["text", f"feat:local:{i}", "text"]
            kinds += ["text"] * len(sample.regions[i - 1][1])
            kinds += ["text"]
    kinds += ["text"] * len(sample.response)
    kinds += ["text"]  # end token
    return kinds


@pytest.mark.parametrize("n_regions", [0, 1, 2, 5])
def test_layout_kind_order(n_regions):
    _, _, sample, seq = build(n_regions, ilvc=True, seed=n_regions)
    assert seq.kinds() == expected_kinds(sample, ilvc=True)


@pytest.mark.parametrize("n_regions", [0, 1, 2, 5])
def test_layout_kind_order_without_interleaving(n_regions):
    _, _, sample, seq = build(n_regions, ilvc=False, seed=10 + n_regions)
    assert seq.kinds() == expected_kinds(sample, ilvc=False)


@pytest.mark.parametrize("n_regions", [0, 1, 2, 5])
def test_parser_roundtrip(n_regions):
    _, _, sample, seq = build(n_regions, with_response=(n_regions % 2 == 0),
                              seed=20 + n_regions)
    parsed = parse_training_sequence(seq)
    assert parsed["n"] == n_regions
    assert parsed["descriptions"] == [d for _, d in sample.regions]
    if n_regions > 0:
        # the seg-slot run anchors the split, so both runs come back exactly
        assert parsed["instruction"] == sample.instruction
        assert parsed["response"] == sample.response
    else:
        # no anchor between the two text runs; the concatenation is exact
        assert parsed["instruction"] == sample.instruction + sample.response
        assert parsed["response"] == []


def test_parser_roundtrip_without_interleaving():
    _, _, sample, seq = build(2, ilvc=False, seed=30)
    parsed = parse_training_sequence(seq)
    assert parsed["n"] == 2
    assert parsed["descriptions"] == []
    assert parsed["instruction"] == sample.instruction


def test_layout_flat_views():
    vocab, _, sample, seq = build(2, seed=31)
    token_ids, supervised, seg_positions, feat_spans = seq.layout()
    assert len(token_ids) == len(seq)
    assert not supervised[0]                       # global features lead
    assert len(seg_positions) == 2
    for p in seg_positions:
        assert token_ids[p] == vocab.seg
    sources = [fb.source for _, _, fb in feat_spans]
    assert sources == ["global", "local:1", "local:2"]
    for lo, hi, fb in feat_spans:
        assert hi - lo == fb.grid.tokens
        assert not supervised[lo:hi].any()
        assert (token_ids[lo:hi] == vocab.pad).all()
    # every non-feature position of a training sequence is supervised
    feat_mask = np.zeros(len(seq), dtype=bool)
    for lo, hi, _ in feat_spans:
        feat_mask[lo:hi] = True
    assert supervised[~feat_mask].all()


def walk_layout(seq):
    """The element walk that `len()` and `layout()` replaced, kept as their
    oracle: (row count, token_ids, supervised, seg_positions, feat_spans)."""
    n = len(seq.elements) + sum(e.grid.tokens - 1 for e in seq.elements
                                if isinstance(e, FeatureBlock))
    token_ids = np.full(n, seq.vocab.pad, dtype=np.int64)
    supervised = np.zeros(n, dtype=bool)
    seg_positions, feat_spans = [], []
    pos = 0
    for e in seq.elements:
        if isinstance(e, FeatureBlock):
            feat_spans.append((pos, pos + e.grid.tokens, e))
            pos += e.grid.tokens
        elif isinstance(e, SegSlot):
            token_ids[pos] = seq.vocab.seg
            supervised[pos] = e.supervised
            seg_positions.append(pos)
            pos += 1
        else:
            token_ids[pos] = e.token_id
            supervised[pos] = e.supervised
            pos += 1
    return n, token_ids, supervised, seg_positions, feat_spans


def test_running_views_match_the_element_walk():
    # seeded mixes of method appends, direct `elements.append`, tail cuts and
    # rebinding `elements`, with the views read after a random number of edits
    vocab = default_vocab()
    rng = np.random.default_rng(41)
    grids = [FeatureGrid(Tensor(np.zeros((t, 4)))) for t in (1, 3, 5)]

    def element():
        kind, sup = int(rng.integers(3)), bool(rng.integers(2))
        return (TextToken(int(rng.integers(6, len(vocab))), sup) if kind == 0
                else SegSlot(int(rng.integers(1, 4)), sup) if kind == 1
                else FeatureBlock(grids[int(rng.integers(3))], "local:1"))

    edits = set()
    for _ in range(30):
        seq = InterleavedSequence(vocab)
        for _ in range(40):
            edit = int(rng.integers(8))
            edits.add(edit)
            if edit == 0:
                seq.append_text(int(rng.integers(6, len(vocab))), bool(rng.integers(2)))
            elif edit == 1:
                seq.append_seg(int(rng.integers(1, 4)), bool(rng.integers(2)))
            elif edit == 2:
                seq.append_feat(grids[int(rng.integers(3))], "local:1")
            elif edit == 3:
                seq.elements.append(element())
            elif edit == 4:
                del seq.elements[int(rng.integers(len(seq.elements) + 1)):]
            elif edit == 5:   # a copy of a prefix, plus new elements
                seq.elements = seq.elements[:int(rng.integers(len(seq.elements) + 1))] \
                    + [element() for _ in range(int(rng.integers(3)))]
            elif edit == 6:   # a cut then as many new elements as were cut
                k = int(rng.integers(len(seq.elements) + 1))
                cut = len(seq.elements) - k
                del seq.elements[k:]
                seq.elements += [element() for _ in range(cut)]
            else:             # a new list that differs only in its first element
                seq.elements = [element()] + seq.elements[1:]
            if rng.integers(3):
                continue
            n, token_ids, supervised, seg_positions, feat_spans = walk_layout(seq)
            assert len(seq) == n
            got = seq.layout()
            assert got[0].dtype == np.int64 and got[1].dtype == bool
            assert np.array_equal(got[0], token_ids) and np.array_equal(got[1], supervised)
            assert got[2] == seg_positions
            assert [(lo, hi) for lo, hi, _ in got[3]] == [(lo, hi) for lo, hi, _ in feat_spans]
            assert all(a is b for (*_, a), (*_, b) in zip(got[3], feat_spans))
            # the caller owns what it got: editing it leaves the next layout alone
            got[0][:] = -1
            got[1][:] = True
            got[2].append(-1)
            got[3].clear()
            again = seq.layout()
            assert np.array_equal(again[0], token_ids) and again[2] == seg_positions
            assert len(again[3]) == len(feat_spans)
    assert edits == set(range(8))


def test_inference_prefix_is_unsupervised():
    vocab = default_vocab()
    cfg = make_toy_config(0)
    model = Model(cfg, vocab, np.random.default_rng(0))
    img = np.random.default_rng(1).random((cfg.canvas, cfg.canvas, 3))
    f_g, _ = model.encode_image(img)
    seq = build_inference_prefix(f_g, vocab.encode("segment interleaved"), vocab)
    _, supervised, _, _ = seq.layout()
    assert not supervised.any()


def test_empty_description_rejected():
    vocab = default_vocab()
    cfg = make_toy_config(0)
    model = Model(cfg, vocab, np.random.default_rng(0))
    sample = make_toy_sample(cfg, np.random.default_rng(2), vocab, 1, True)
    f_g, _ = model.encode_image(sample.image)
    regions = [(sample.regions[0][0], [])]
    with pytest.raises(ValueError, match="empty description"):
        build_training_sequence(f_g, sample.instruction, regions, sample.image,
                                model.store, cfg, vocab, ilvc=True)


# ---- cropping ---------------------------------------------------------------

def test_crop_region_tight_box_oracle():
    rng = np.random.default_rng(33)
    img = rng.random((12, 10, 3))
    mask = np.zeros((12, 10), dtype=bool)
    mask[3:7, 2:5] = True
    mask[5, 8] = True          # outlier pixel widens the box
    crop = crop_region(img, mask, local_res=8)
    assert crop.box == (3, 2, 6, 8)
    want = bilinear_resize(img[3:7, 2:9], 8, 8)
    assert np.array_equal(crop.region, want)
    assert crop.region.shape == (8, 8, 3)


def test_crop_region_single_pixel():
    img = np.random.default_rng(34).random((6, 6, 3))
    mask = np.zeros((6, 6), dtype=bool)
    mask[2, 3] = True
    crop = crop_region(img, mask, local_res=4)
    assert crop.box == (2, 3, 2, 3)
    assert np.allclose(crop.region, img[2, 3], atol=1e-12)


def test_crop_region_errors():
    img = np.zeros((6, 6, 3))
    with pytest.raises(EmptyMaskError):
        crop_region(img, np.zeros((6, 6), dtype=bool), 4)
    with pytest.raises(ShapeError, match="crop_region"):
        crop_region(img, np.zeros((5, 6), dtype=bool), 4)
