"""Synthetic scenes: geometry, unambiguity, file layout, determinism."""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from seglang.images import write_pgm
from seglang.scenes import (BACKGROUND, COLOR_RGB, COLOR_WORDS,
                            LOCATION_WORDS, SHAPE_WORDS, SceneLayoutError,
                            _cells, default_vocab, generate_scene,
                            load_attr_records, load_split, make_split)


def test_scene_masks_are_disjoint_and_in_cell():
    for seed in range(8):
        scene = generate_scene(seed, n_objects=3)
        total = np.zeros((64, 64), dtype=int)
        cells = _cells(64)
        for obj in scene.objects:
            assert obj.mask.any(), "empty object mask"
            total += obj.mask
            r0, r1, c0, c1 = cells[obj.location]
            ys, xs = np.nonzero(obj.mask)
            assert r0 <= ys.min() and ys.max() < r1
            assert c0 <= xs.min() and xs.max() < c1
        assert total.max() <= 1, "objects overlap"


def test_scene_attributes_unique_within_scene():
    for seed in range(8):
        scene = generate_scene(100 + seed, n_objects=3)
        colors = [o.color for o in scene.objects]
        locations = [o.location for o in scene.objects]
        assert len(set(colors)) == len(colors)
        assert len(set(locations)) == len(locations)


def test_scene_pixels_match_color_table():
    scene = generate_scene(3, n_objects=2)
    painted = np.zeros((64, 64), dtype=bool)
    for obj in scene.objects:
        painted |= obj.mask
        assert np.allclose(scene.image[obj.mask], COLOR_RGB[obj.color])
    assert np.allclose(scene.image[~painted], BACKGROUND)


def test_square_masks_are_patch_aligned():
    seen = 0
    for seed in range(40):
        scene = generate_scene(200 + seed, n_objects=1, patch=8)
        obj = scene.objects[0]
        if obj.shape != "square":
            continue
        seen += 1
        ys, xs = np.nonzero(obj.mask)
        h = ys.max() - ys.min() + 1
        w = xs.max() - xs.min() + 1
        assert h == w == 16                       # side = canvas // 4
        assert obj.mask.sum() == h * w            # solid rectangle
        assert ys.min() % 8 == 0 and xs.min() % 8 == 0
    assert seen >= 5


def test_descriptions_tokenize_in_default_vocab():
    vocab = default_vocab()
    scene = generate_scene(5, n_objects=3)
    for obj in scene.objects:
        assert obj.description == (
            f"the {obj.color} {obj.shape} on the {obj.location}")
        for variant in obj.variants():
            vocab.encode(variant)                 # raises on unknown words
        assert obj.variants()[1].split().count(obj.color) == 0
        assert obj.shape not in obj.variants()[3].split()


def test_generate_scene_is_seed_deterministic():
    a = generate_scene(42, n_objects=2)
    b = generate_scene(42, n_objects=2)
    assert np.array_equal(a.image, b.image)
    for oa, ob in zip(a.objects, b.objects):
        assert np.array_equal(oa.mask, ob.mask)
        assert (oa.color, oa.shape, oa.location) == (ob.color, ob.shape,
                                                     ob.location)
    assert generate_scene(43, 2).objects[0].mask.sum() \
        != a.objects[0].mask.sum() or True


def test_n_objects_bounds():
    with pytest.raises(ValueError):
        generate_scene(0, n_objects=0)
    with pytest.raises(ValueError):
        generate_scene(0, n_objects=6)


def test_square_wider_than_its_cell_raises():
    # canvas 16, patch 8: the side max(2 * patch, canvas // 4) = 16 exceeds
    # every 5-6 pixel cell, which once rasterized an all-empty mask
    raised = 0
    for seed in range(30):
        try:
            scene = generate_scene(seed, 2, canvas=16, patch=8)
        except SceneLayoutError as exc:
            assert "does not fit" in str(exc)
            raised += 1
            continue
        assert all(o.shape != "square" and o.mask.any() for o in scene.objects)
    assert raised > 0
    assert issubclass(SceneLayoutError, ValueError)


def test_canvas_64_scenes_are_unchanged():
    # digest of 60 scenes as rasterized before oversized squares raised
    h = hashlib.sha256()
    for seed in range(60):
        scene = generate_scene(seed, 1 + seed % 3)
        h.update(scene.image.tobytes())
        for obj in scene.objects:
            h.update(obj.mask.tobytes())
            h.update(f"{obj.color} {obj.shape} {obj.location}".encode())
    assert h.hexdigest() == \
        "163dc5a3047bae380195a1be76d85758e632451383356b33aeed67db3366adce"


# ---- split files ------------------------------------------------------------

def test_split_layout_and_contents(tiny_split):
    vocab = default_vocab()
    meta = json.load(open(os.path.join(tiny_split, "meta.json")))
    assert meta["train"]["scenes"] == 6 and meta["eval"]["scenes"] == 3

    train = load_split(os.path.join(tiny_split, "train"), vocab)
    evals = load_split(os.path.join(tiny_split, "eval"), vocab)
    assert len(train) == meta["train"]["samples"]
    assert len(evals) == meta["eval"]["samples"]

    for s in evals:
        if s.task == "refseg":
            assert len(s.regions) == 1
    tasks = {s.task for s in train}
    assert tasks == {"refseg", "gcg", "vqa"}

    for s in train + evals:
        assert s.image.shape == (64, 64, 3)
        assert 0.0 <= s.image.min() and s.image.max() <= 1.0
        if s.task == "refseg":
            words = vocab.decode(s.instruction).split()
            assert words[0] == "segment"
            assert words[1] == ("interleaved" if s.ilvc else "direct")
            assert len(s.regions) == 1 and s.regions[0][0].any()
        if s.task == "vqa":
            assert vocab.decode(s.response) in ("yes", "no")
            assert s.regions == []
        if s.task == "gcg":
            assert s.ilvc and len(s.regions) >= 1


@pytest.mark.parametrize("bad,why", [("{not json", "JSONDecodeError"),
                                     ('{"id": "x1"}', "KeyError"),
                                     ("[1, 2]", "TypeError")])
def test_bad_sample_line_names_the_file_and_line(tiny_split, tmp_path, bad,
                                                 why):
    split = tmp_path / "train"
    shutil.copytree(os.path.join(tiny_split, "train"), split)
    lines = (split / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    lines.insert(2, bad)
    (split / "samples.jsonl").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    with pytest.raises(ValueError, match=f"samples.jsonl:3: .*{why}"):
        load_split(str(split), default_vocab())


@pytest.mark.parametrize("field,value", [("task", "segmentt"), ("ilvc", "no"),
                                         ("ilvc", 1), ("instruction", 7),
                                         ("response", None), ("description", 3),
                                         ("regions", [])])
def test_sample_record_with_a_bad_field_is_refused(tiny_split, tmp_path, field,
                                                   value):
    split = tmp_path / "train"
    shutil.copytree(os.path.join(tiny_split, "train"), split)
    lines = (split / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])          # an interleaved refseg sample
    if field == "description":
        record["regions"][0][field] = value
    else:
        record[field] = value
    lines[0] = json.dumps(record)
    (split / "samples.jsonl").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    with pytest.raises(ValueError, match="samples.jsonl:1: bad sample record"):
        load_split(str(split), default_vocab())


def test_mask_whose_size_differs_from_its_image_is_refused(tiny_split, tmp_path):
    split = tmp_path / "train"
    shutil.copytree(os.path.join(tiny_split, "train"), split)
    lines = (split / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    mask = json.loads(lines[0])["regions"][0]["mask"]   # an interleaved refseg sample
    write_pgm(str(split / mask), np.ones((8, 8), dtype=bool))
    with pytest.raises(ValueError, match=r"samples.jsonl:1: bad sample record: "
                                         r"mask sizes \[\(8, 8\)\]"):
        load_split(str(split), default_vocab())


@pytest.mark.parametrize("edit,match", [
    (lambda recs: recs[1].pop("mask"), "record 1: record holds"),
    (lambda recs: recs[1].update(extra=1), "record 1: record holds"),
    (lambda recs: recs[1].update(descriptions="the red one"),
     "record 1: 'descriptions' must be list"),
    (lambda recs: recs[1]["descriptions"].append(5), "record 1: descriptions"),
    (lambda recs: recs[1]["attributes"].update(color=None), "record 1: descriptions"),
    (lambda recs: recs[1]["attributes"].update(colour="red"), "record 1: descriptions"),
    (lambda recs: recs.__setitem__(1, "scene"), "record 1: record holds str"),
], ids=["missing-key", "unknown-key", "descriptions-not-list",
        "description-not-str", "attribute-not-str", "unknown-class", "not-object"])
def test_attr_record_flaws_name_the_file_and_record(tiny_split, tmp_path, edit,
                                                    match):
    path = tmp_path / "attr_records.json"
    with open(os.path.join(tiny_split, "eval", "attr_records.json"),
              encoding="utf-8") as f:
        records = json.load(f)
    edit(records)
    path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(ValueError, match=match) as err:
        load_attr_records(str(tmp_path))
    assert str(err.value).startswith(f"{path}: ")
    for text, why in (("[{", "not valid JSON"), ("{}", "must be a JSON list, got dict")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=why) as err:
            load_attr_records(str(tmp_path))
        assert str(err.value).startswith(f"{path}: ")


def test_attr_records_align_with_masks(tiny_split):
    records = load_attr_records(os.path.join(tiny_split, "eval"))
    assert records
    from seglang.images import read_pgm
    for rec in records:
        assert set(rec.attributes) == {"category", "color", "location"}
        mask = read_pgm(os.path.join(tiny_split, "eval", rec.mask))
        assert mask.any()
        assert rec.attributes["category"] in SHAPE_WORDS
        assert rec.attributes["color"] in COLOR_WORDS
        assert rec.attributes["location"] in LOCATION_WORDS
        assert len(rec.descriptions) == 4


def test_make_split_is_byte_deterministic(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    make_split(seed=5, n_train=3, n_eval=2, out_dir=d1)
    make_split(seed=5, n_train=3, n_eval=2, out_dir=d2)
    for rel in ("vocab.txt", "meta.json", "train/samples.jsonl",
                "eval/samples.jsonl", "train/attr_records.json"):
        b1 = open(os.path.join(d1, rel), "rb").read()
        b2 = open(os.path.join(d2, rel), "rb").read()
        assert b1 == b2, rel
    img = "train/images/scene_00000.ppm"
    assert open(os.path.join(d1, img), "rb").read() \
        == open(os.path.join(d2, img), "rb").read()


def test_train_eval_scene_seeds_disjoint(tmp_path):
    out = str(tmp_path / "s")
    make_split(seed=2, n_train=2, n_eval=2, out_dir=out)
    train_imgs = sorted(os.listdir(os.path.join(out, "train", "images")))
    eval_imgs = sorted(os.listdir(os.path.join(out, "eval", "images")))
    assert train_imgs == ["scene_00000.ppm", "scene_00001.ppm"]
    assert eval_imgs == ["scene_00002.ppm", "scene_00003.ppm"]
