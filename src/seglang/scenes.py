"""Seeded synthetic referring-segmentation scenes.

A scene is a flat-background canvas with one to three colored shapes, each
anchored in its own region of a 3x3 layout (left / right / top / bottom /
center cross). Colors and positions are drawn without replacement inside a
scene, so every description variant, including the attribute-omitting ones
used for probing, refers unambiguously. Masks are exact rasterizations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .attreval import AttrRecord, make_question
from .images import read_pgm, read_ppm, to_unit_float, write_pgm, write_ppm
from .vocab import SPECIALS, Vocab

COLOR_WORDS = ("red", "green", "blue", "yellow", "purple")
COLOR_RGB = {
    "red": (0.85, 0.10, 0.10),
    "green": (0.10, 0.75, 0.15),
    "blue": (0.15, 0.20, 0.85),
    "yellow": (0.90, 0.85, 0.10),
    "purple": (0.60, 0.15, 0.75),
}
LOCATION_WORDS = ("left", "right", "top", "bottom", "center")
SHAPE_WORDS = ("square", "circle", "triangle")
SCAFFOLD_WORDS = ("the", "on", "at", "a", "is", "one", "yes", "no", "?",
                  "segment", "describe", "answer", "interleaved", "direct")
BACKGROUND = (0.92, 0.92, 0.92)


def default_vocab() -> Vocab:
    return Vocab({
        "specials": list(SPECIALS),
        "colors": list(COLOR_WORDS),
        "locations": list(LOCATION_WORDS),
        "categories": list(SHAPE_WORDS),
        "words": list(SCAFFOLD_WORDS),
    })


# ---- geometry --------------------------------------------------------------

def _cells(canvas: int) -> dict[str, tuple[int, int, int, int]]:
    """location -> (r0, r1, c0, c1), half-open row/col ranges."""
    a, b = canvas // 3, 2 * canvas // 3
    return {
        "left": (a, b, 0, a),
        "right": (a, b, b, canvas),
        "top": (0, a, a, b),
        "bottom": (b, canvas, a, b),
        "center": (a, b, a, b),
    }


class SceneLayoutError(ValueError):
    """A shape does not fit in its layout cell at this canvas and patch."""


def _aligned_starts(lo: int, hi: int, size: int, patch: int) -> list[int]:
    if size > hi - lo:
        raise SceneLayoutError(
            f"a {size}-pixel square does not fit its {hi - lo}-pixel cell")
    starts = [s for s in range(lo, hi - size + 1) if s % patch == 0]
    return starts or [(lo + hi - size) // 2]


def _raster_square(canvas, cell, side, patch, rng):
    r0, r1, c0, c1 = cell
    rs = _aligned_starts(r0, r1, side, patch)
    cs = _aligned_starts(c0, c1, side, patch)
    rr = rs[int(rng.integers(len(rs)))]
    cc = cs[int(rng.integers(len(cs)))]
    mask = np.zeros((canvas, canvas), dtype=bool)
    mask[rr:rr + side, cc:cc + side] = True
    return mask


def _raster_circle(canvas, cell, radius):
    r0, r1, c0, c1 = cell
    cy, cx = (r0 + r1 - 1) / 2.0, (c0 + c1 - 1) / 2.0
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2


def _raster_triangle(canvas, cell, base, height):
    """Isoceles, apex up, base along the bottom of its span."""
    r0, r1, c0, c1 = cell
    top = (r0 + r1 - height) // 2
    cx = (c0 + c1 - 1) // 2
    mask = np.zeros((canvas, canvas), dtype=bool)
    for i in range(height):
        hw = int(round(i * (base / 2.0) / max(height - 1, 1)))
        mask[top + i, max(cx - hw, 0):min(cx + hw + 1, canvas)] = True
    return mask


def _raster(shape, canvas, cell, patch, rng):
    if shape == "square":
        side = max(2 * patch, canvas // 4)
        return _raster_square(canvas, cell, side, patch, rng)
    if shape == "circle":
        radius = int(rng.integers(canvas // 8, canvas // 6 + 1))
        return _raster_circle(canvas, cell, radius)
    base = canvas // 4 if rng.integers(2) == 0 else (5 * canvas) // 16
    return _raster_triangle(canvas, cell, base, base)


# ---- scene assembly --------------------------------------------------------

@dataclass
class SceneObject:
    mask: np.ndarray
    color: str
    shape: str
    location: str

    @property
    def description(self) -> str:
        return f"the {self.color} {self.shape} on the {self.location}"

    def variants(self) -> list[str]:
        """Full description plus the three attribute-omitting forms."""
        return [
            self.description,
            f"the {self.shape} on the {self.location}",          # no color
            f"the {self.color} {self.shape}",                    # no location
            f"the {self.color} one on the {self.location}",      # no category
        ]


@dataclass
class Scene:
    image: np.ndarray            # canvas x canvas x 3 floats in [0,1]
    objects: list[SceneObject]


def generate_scene(seed: int, n_objects: int, canvas: int = 64,
                   patch: int = 8) -> Scene:
    if n_objects < 1 or n_objects > len(LOCATION_WORDS):
        raise ValueError(f"n_objects must be 1..{len(LOCATION_WORDS)}")
    rng = np.random.default_rng(seed)
    cells = _cells(canvas)
    locations = [LOCATION_WORDS[i] for i in
                 rng.choice(len(LOCATION_WORDS), n_objects, replace=False)]
    colors = [COLOR_WORDS[i] for i in
              rng.choice(len(COLOR_WORDS), n_objects, replace=False)]
    shapes = [SHAPE_WORDS[int(i)] for i in
              rng.integers(0, len(SHAPE_WORDS), n_objects)]
    img = np.empty((canvas, canvas, 3), dtype=np.float64)
    img[:] = BACKGROUND
    objects = []
    for color, shape, location in zip(colors, shapes, locations):
        mask = _raster(shape, canvas, cells[location], patch, rng)
        img[mask] = COLOR_RGB[color]
        objects.append(SceneObject(mask, color, shape, location))
    return Scene(img, objects)


def attr_record(scene_name: str, k: int, obj: SceneObject,
                image_path: str, mask_path: str) -> AttrRecord:
    return AttrRecord(
        object_id=f"{scene_name}:{k}", image=image_path, mask=mask_path,
        descriptions=obj.variants(),
        attributes={"category": obj.shape, "color": obj.color,
                    "location": obj.location})


# ---- dataset files ---------------------------------------------------------

@dataclass
class Sample:
    sample_id: str
    task: str                    # refseg | gcg | vqa
    ilvc: bool
    image: np.ndarray
    regions: list[tuple[np.ndarray, list[int]]]
    instruction: list[int]
    response: list[int]


def _scene_samples(scene_name: str, scene: Scene, rng, rel_image: str,
                   rel_masks: list[str]) -> list[dict]:
    """Sample records (JSON-ready) for one scene."""
    samples = []

    def rec(kind, task, ilvc, instruction, regions, response=""):
        samples.append({
            "id": f"{scene_name}:{kind}",
            "task": task, "ilvc": ilvc, "image": rel_image,
            "instruction": instruction,
            "regions": regions, "response": response,
        })

    for k, obj in enumerate(scene.objects):
        region = [{"mask": rel_masks[k], "description": obj.description}]
        rec(f"seg{k}", "refseg", True,
            f"segment interleaved {obj.description}", region)
        rec(f"dir{k}", "refseg", False,
            f"segment direct {obj.description}", region)
    rec("describe", "gcg", True, "describe interleaved",
        [{"mask": m, "description": o.description}
         for m, o in zip(rel_masks, scene.objects)])
    for k, obj in enumerate(scene.objects):
        attrs = {"category": obj.shape, "color": obj.color,
                 "location": obj.location}
        for q in range(2):
            attr_class = ("category", "color", "location")[
                int(rng.integers(3))]
            variants = obj.variants()
            referring = next(d for d in variants
                             if attrs[attr_class] not in d.split())
            if rng.integers(2) == 0:
                value, answer = attrs[attr_class], "yes"
            else:
                lex = {"category": SHAPE_WORDS, "color": COLOR_WORDS,
                       "location": LOCATION_WORDS}[attr_class]
                wrong = [w for w in lex if w != attrs[attr_class]]
                value, answer = wrong[int(rng.integers(len(wrong)))], "no"
            rec(f"qa{k}_{q}", "vqa", False,
                "answer direct " + make_question(referring, attr_class, value),
                [], answer)
    return samples


def make_split(seed: int, n_train: int, n_eval: int, out_dir: str,
               canvas: int = 64, patch: int = 8) -> dict:
    """Write train/ and eval/ splits plus the vocabulary; returns counts.

    Scene seeds are `seed*10_000_000 + index` with train taking the first
    n_train indices, so the two splits can never share a scene. Eval scenes
    hold a single object each (the held-out referring task is single-object);
    train scenes hold one to three.
    """
    vocab = default_vocab()
    os.makedirs(out_dir, exist_ok=True)
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    counts = {}
    for split, n_scenes, first in (("train", n_train, 0),
                                   ("eval", n_eval, n_train)):
        sdir = os.path.join(out_dir, split)
        os.makedirs(os.path.join(sdir, "images"), exist_ok=True)
        os.makedirs(os.path.join(sdir, "masks"), exist_ok=True)
        samples = []
        records = []
        for i in range(n_scenes):
            scene_seed = seed * 10_000_000 + first + i
            rng = np.random.default_rng(scene_seed + 1)   # sample-level draws
            n_obj = 1 if split == "eval" else int(rng.integers(1, 4))
            scene_name = f"scene_{first + i:05d}"
            scene = generate_scene(scene_seed, n_obj, canvas, patch)
            rel_image = f"images/{scene_name}.ppm"
            write_ppm(os.path.join(sdir, rel_image),
                      np.rint(scene.image * 255.0).astype(np.uint8))
            rel_masks = []
            for k, obj in enumerate(scene.objects):
                rel_mask = f"masks/{scene_name}_obj{k}.pgm"
                write_pgm(os.path.join(sdir, rel_mask), obj.mask)
                rel_masks.append(rel_mask)
                records.append(attr_record(scene_name, k, obj, rel_image,
                                           rel_mask).to_dict())
            samples.extend(_scene_samples(scene_name, scene, rng, rel_image,
                                          rel_masks))
        with open(os.path.join(sdir, "samples.jsonl"), "w",
                  encoding="utf-8") as f:
            for s in samples:
                f.write(json.dumps(s) + "\n")
        with open(os.path.join(sdir, "attr_records.json"), "w",
                  encoding="utf-8") as f:
            json.dump(records, f, indent=2)
            f.write("\n")
        counts[split] = {"scenes": n_scenes, "samples": len(samples),
                         "objects": len(records)}
    meta = {"seed": seed, "canvas": canvas, "patch": patch, **counts}
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    return meta


def load_split(split_dir: str, vocab: Vocab) -> list[Sample]:
    """Materialize a split into memory, tokenizing instructions/descriptions."""
    samples = []
    image_cache: dict[str, np.ndarray] = {}
    with open(os.path.join(split_dir, "samples.jsonl"), encoding="utf-8") as f:
        for line in f:
            d = json.loads(line)
            path = d["image"]
            if path not in image_cache:
                image_cache[path] = to_unit_float(
                    read_ppm(os.path.join(split_dir, path)))
            regions = [(read_pgm(os.path.join(split_dir, r["mask"])),
                        vocab.encode(r["description"]))
                       for r in d["regions"]]
            samples.append(Sample(
                sample_id=d["id"], task=d["task"], ilvc=bool(d["ilvc"]),
                image=image_cache[path], regions=regions,
                instruction=vocab.encode(d["instruction"]),
                response=vocab.encode(d["response"]) if d["response"] else []))
    return samples


def load_attr_records(split_dir: str) -> list[AttrRecord]:
    with open(os.path.join(split_dir, "attr_records.json"),
              encoding="utf-8") as f:
        return [AttrRecord.from_dict(d) for d in json.load(f)]
