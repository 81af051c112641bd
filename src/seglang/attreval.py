"""Attribute probing: paired yes/no questions and seg-logit ranking.

Each object record carries several descriptions plus its true attributes.
For every attribute class absent from at least one description we emit one
probe: a positive question asking about the true value and a negative
question about a sampled wrong value, asked against a referring description
that does not mention the probed class. VQA credit requires both answers
correct; Acc_k asks whether the true attribute token ranks in the top k of
the seg-token logits restricted to that class's lexicon.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import read_json, write_json
from .lm import SegState, top_k_attribute
from .vocab import Vocab

ATTR_CLASSES = ("category", "color", "location")


@dataclass
class AttrRecord:
    object_id: str
    image: str
    mask: str
    descriptions: list[str]
    attributes: dict[str, str]   # class -> value word

    @classmethod
    def from_dict(cls, d: dict) -> "AttrRecord":
        _check_record(d, dict(object_id=str, image=str, mask=str, descriptions=list,
                              attributes=dict))
        texts = [*d["descriptions"], *d["attributes"].values()]
        if not set(d["attributes"]) <= set(ATTR_CLASSES) or not all(
                isinstance(t, str) for t in texts):
            raise ValueError(f"descriptions must be strings and attributes map "
                             f"classes in {ATTR_CLASSES} to strings")
        return cls(**d)


@dataclass
class AttrProbe:
    object_id: str
    image: str
    mask: str
    referring: str               # description omitting the probed attribute
    attr_class: str
    true_value: str
    false_value: str
    question_pos: str
    question_neg: str

    @classmethod
    def from_dict(cls, d: dict) -> "AttrProbe":
        _check_record(d, {f.name: str for f in fields(cls)})
        if d["attr_class"] not in ATTR_CLASSES:
            raise ValueError(f"unknown attribute class {d['attr_class']!r}")
        return cls(**d)


def _check_record(d, kinds: dict[str, type]) -> None:
    """ValueError unless `d` is a dict with exactly the keys and types of `kinds`."""
    if not isinstance(d, dict) or set(d) != set(kinds):
        got = sorted(d) if isinstance(d, dict) else type(d).__name__
        raise ValueError(f"record holds {got}, expected the keys {sorted(kinds)}")
    for key, kind in kinds.items():
        if not isinstance(d[key], kind):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {d[key]!r}")


def make_question(referring: str, attr_class: str, value: str) -> str:
    """Phrase a yes/no question about one attribute of the referred object."""
    if attr_class not in ATTR_CLASSES:
        raise ValueError(f"unknown attribute class {attr_class!r}")
    link = {"category": " a", "color": "", "location": " at"}[attr_class]
    return f"is {referring}{link} {value} ?"


def referring_description(descriptions: list[str], value: str) -> str | None:
    """The first description whose word set lacks `value`, or None."""
    return next((d for d in descriptions if value not in d.split()), None)


def wrong_values(vocab: Vocab, attr_class: str, value: str) -> list[str]:
    """The other words of `attr_class`'s lexicon; ValueError unless `value` is one."""
    words = [vocab.tokens[i] for i in vocab.lexicon(attr_class)]
    if value not in words:
        raise ValueError(f"value {value!r} outside the {attr_class} lexicon")
    return [w for w in words if w != value]


def build_probes(records: list[AttrRecord], vocab: Vocab,
                 seed: int) -> list[AttrProbe]:
    """One probe per (record, attribute class omitted from some description).

    The referring description is the first one whose word set lacks the true
    attribute word; the negative value is a seeded uniform draw from the
    rest of the lexicon. A lexicon of size one cannot yield a negative, so
    that class is skipped with a warning.
    """
    rng = np.random.default_rng(seed)
    probes: list[AttrProbe] = []
    for rec in records:
        for attr_class in ATTR_CLASSES:
            true_value = rec.attributes.get(attr_class)
            if true_value is None:
                continue
            try:
                candidates = wrong_values(vocab, attr_class, true_value)
            except ValueError as exc:
                raise ValueError(f"{rec.object_id}: {exc}") from None
            referring = referring_description(rec.descriptions, true_value)
            if referring is None:
                continue
            if not candidates:
                warnings.warn(
                    f"{attr_class} lexicon has a single value; skipping probe "
                    f"for {rec.object_id}")
                continue
            false_value = candidates[int(rng.integers(len(candidates)))]
            probes.append(AttrProbe(
                object_id=rec.object_id, image=rec.image, mask=rec.mask,
                referring=referring, attr_class=attr_class,
                true_value=true_value, false_value=false_value,
                question_pos=make_question(referring, attr_class, true_value),
                question_neg=make_question(referring, attr_class, false_value)))
    return probes


def score_vqa(probes: list[AttrProbe],
              answers: dict[str, tuple[str, str]]) -> float:
    """Both-correct accuracy: credit iff (yes to positive, no to negative).

    `answers` keys are probe keys (see probe_key); values are the model's
    answers to (positive, negative) questions.
    """
    if not probes:
        raise ValueError("score_vqa: no probes")
    credit = 0
    for p in probes:
        key = probe_key(p)
        if key not in answers:
            raise ValueError(f"missing answer for probe {key}")
        ans_pos, ans_neg = answers[key]
        if ans_pos == "yes" and ans_neg == "no":
            credit += 1
    return credit / len(probes)


def score_logits(probes: list[AttrProbe],
                 seg_states: dict[str, SegState],
                 vocab: Vocab) -> tuple[float, float]:
    """(Acc1, Acc3) of the true attribute token in lexicon-restricted logits."""
    if not probes:
        raise ValueError("score_logits: no probes")
    hit1 = 0
    hit3 = 0
    for p in probes:
        key = probe_key(p)
        if key not in seg_states:
            raise ValueError(f"missing seg state for probe {key}")
        if p.true_value not in vocab.id_of:
            raise ValueError(f"attribute {p.true_value!r} not in vocabulary")
        true_id = vocab.id_of[p.true_value]
        subset = vocab.lexicon(p.attr_class)
        k3 = min(3, len(subset))
        top3 = top_k_attribute(seg_states[key], subset, k3)
        if top3[0] == true_id:
            hit1 += 1
        if true_id in top3:
            hit3 += 1
    return hit1 / len(probes), hit3 / len(probes)


def probe_key(p: AttrProbe) -> str:
    return f"{p.object_id}|{p.attr_class}"


def save_probes(probes: list[AttrProbe], path: str) -> None:
    write_json(path, [asdict(p) for p in probes])


def load_probes(path: str) -> list[AttrProbe]:
    if not (probes := load_records(path, AttrProbe)):
        raise ValueError(f"{path}: holds no probe")
    return probes


def load_records(path: str, cls) -> list:
    """`cls.from_dict` of each record in the JSON list at `path`; any flaw
    raises a ValueError naming the file (and the bad record's index)."""
    records = []
    for i, d in enumerate(read_json(path, list)):
        try:
            records.append(cls.from_dict(d))
        except ValueError as exc:
            raise ValueError(f"{path}: record {i}: {exc}") from None
    return records
