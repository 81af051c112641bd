"""Run configuration: model dims, training schedule, generation, paths.

A JSON config file populates the dataclass; CLI flags override single
fields. Everything a run can vary is in here, so config + seed fully
determine outputs; the objective has no settings (see `losses`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass
class RunConfig:
    # model shape
    d_model: int = 64
    n_heads: int = 4
    lm_layers: int = 2
    enc_blocks: int = 2
    d_sem: int = 48
    d_pix: int = 32
    patch: int = 8
    canvas: int = 64
    local_res: int = 32
    max_seq: int = 384

    # training
    stage: int = 1
    seed: int = 0
    lr: float = 1.2e-3
    steps: int = 400
    batch: int = 4              # samples averaged into one update
    interleave_boost: float = 0.8   # extra draw weight on interleaved refseg

    # generation / eval
    ilvc_enabled: bool = True
    max_steps: int = 256
    threshold: float = 0.5

    # paths
    data_dir: str = "data"
    vocab_path: str = ""        # empty -> <data_dir>/vocab.txt
    checkpoint: str = "model.ckpt"
    init_checkpoint: str = ""   # warm start (stage 2 resumes from stage 1)
    out_dir: str = "out"

    def __post_init__(self):
        if min(self.d_model, self.n_heads, self.lm_layers, self.enc_blocks,
               self.d_sem, self.d_pix, self.patch, self.canvas, self.local_res,
               self.max_seq) < 1:
            raise ValueError("model shape values must be positive")
        if self.stage not in (1, 2):
            raise ValueError(f"stage must be 1 or 2, got {self.stage}")
        if self.local_res % self.patch:
            raise ValueError("local_res must be divisible by patch")
        if self.canvas % self.patch:
            raise ValueError("canvas must be divisible by patch")
        if self.d_model % self.n_heads or self.d_sem % self.n_heads \
                or self.d_pix % self.n_heads:
            raise ValueError("widths must be divisible by n_heads")
        if self.batch < 1 or self.max_steps < 1:
            raise ValueError("batch and max_steps must be at least 1, got "
                             f"{self.batch} and {self.max_steps}")
        if not 0.0 <= self.interleave_boost < 1.0:
            raise ValueError("interleave_boost must be in [0, 1)")
        if not 0.0 < self.lr < float("inf") or self.steps < 0:
            raise ValueError(f"lr must be finite and positive and steps at least 0, "
                             f"got {self.lr} and {self.steps}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")

    @property
    def vocab_file(self) -> str:
        return self.vocab_path or f"{self.data_dir}/vocab.txt"

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "RunConfig":
        """The file's JSON object over the defaults, then non-None overrides.
        A file that is not valid JSON, not an object, or holds an unknown key
        or a value of the wrong type raises a ValueError naming the file."""
        fields = {}
        if path:
            loaded = read_json(path, dict)
            kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
            unknown = set(loaded) - set(kinds)
            if unknown:
                raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
            for key, value in loaded.items():
                want = kinds[key]   # a float field also takes a JSON integer
                if isinstance(value, bool) != (want is bool) or not isinstance(
                        value, (int, float) if want is float else want):
                    raise ValueError(f"{path}: {key!r} must be {want.__name__}, "
                                     f"got {value!r}")
            fields.update(loaded)
        if overrides:
            fields.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**fields)


def read_json(path: str, kind: type):
    """The JSON document at `path`, which must be a `kind` (dict or list).
    Bad JSON or another top level raises a ValueError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            loaded = json.load(f)
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(loaded, kind):
        want = "object" if kind is dict else "list"
        raise ValueError(f"{path}: must be a JSON {want}, got {type(loaded).__name__}")
    return loaded


def write_json(path: str, obj, sort_keys: bool = False) -> None:
    """`obj` at `path` as JSON indented by two, ending in a newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=sort_keys)
        f.write("\n")
