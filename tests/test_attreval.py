"""Attribute probing: question forms, probe construction, recount oracles."""

import json

import numpy as np
import pytest

from seglang.attreval import (AttrProbe, AttrRecord, build_probes,
                              load_probes, make_question, probe_key,
                              save_probes, score_logits, score_vqa)
from seglang.lm import SegState
from seglang.scenes import attr_record, default_vocab, generate_scene
from seglang.tensor import Tensor
from seglang.vocab import Vocab


def records_from_scenes(n=6, seed=0):
    records = []
    for k in range(n):
        scene = generate_scene(seed + k, n_objects=2)
        for j, obj in enumerate(scene.objects):
            records.append(attr_record(f"s{k}", j, obj, f"img{k}.ppm",
                                       f"m{k}_{j}.pgm"))
    return records


def test_make_question_forms():
    assert make_question("the square", "color", "red") == "is the square red ?"
    assert make_question("the square", "location", "left") \
        == "is the square at left ?"
    assert make_question("the red one", "category", "circle") \
        == "is the red one a circle ?"
    with pytest.raises(ValueError, match="unknown attribute class"):
        make_question("x", "size", "big")


def test_probes_omit_the_probed_attribute():
    vocab = default_vocab()
    probes = build_probes(records_from_scenes(), vocab, seed=1)
    assert probes
    for p in probes:
        assert p.true_value not in p.referring.split()
        assert p.false_value != p.true_value
        lexicon_words = [vocab.tokens[i] for i in vocab.lexicon(p.attr_class)]
        assert p.true_value in lexicon_words
        assert p.false_value in lexicon_words
        assert p.question_pos == make_question(p.referring, p.attr_class,
                                               p.true_value)
        assert p.question_neg == make_question(p.referring, p.attr_class,
                                               p.false_value)


def test_probe_building_is_seeded():
    vocab = default_vocab()
    records = records_from_scenes()
    a = build_probes(records, vocab, seed=7)
    b = build_probes(records, vocab, seed=7)
    assert [p.to_dict() for p in a] == [p.to_dict() for p in b]
    c = build_probes(records, vocab, seed=8)
    assert [p.false_value for p in a] != [p.false_value for p in c] \
        or len(a) <= 3  # tiny record sets can coincide


def test_single_value_lexicon_warns_and_skips():
    sections = {"specials": list(default_vocab().sections["specials"]),
                "colors": ["red"], "locations": ["left", "right"],
                "categories": ["square", "circle"],
                "words": ["the", "on", "is", "a", "at", "one", "?"]}
    vocab = Vocab(sections)
    rec = AttrRecord("obj0", "i.ppm", "m.pgm",
                     ["the one on the left", "the red one"],
                     {"color": "red", "location": "left", "category": "square"})
    with pytest.warns(UserWarning, match="single value"):
        probes = build_probes([rec], vocab, seed=0)
    assert all(p.attr_class != "color" for p in probes)


def test_value_outside_lexicon_rejected():
    vocab = default_vocab()
    rec = AttrRecord("obj0", "i.ppm", "m.pgm", ["the thing"],
                     {"color": "crimson"})
    with pytest.raises(ValueError, match="outside"):
        build_probes([rec], vocab, seed=0)


def test_description_never_omitting_value_skips_class():
    vocab = default_vocab()
    rec = AttrRecord("obj0", "i.ppm", "m.pgm",
                     ["the red square on the left"],   # mentions everything
                     {"color": "red", "location": "left",
                      "category": "square"})
    probes = build_probes([rec], vocab, seed=0)
    assert probes == []


# ---- scoring oracles --------------------------------------------------------

def test_score_vqa_matches_recount():
    rng = np.random.default_rng(2)
    vocab = default_vocab()
    probes = build_probes(records_from_scenes(8, seed=3), vocab, seed=3)
    options = ["yes", "no", "maybe", ""]
    for _ in range(20):
        answers = {probe_key(p): (options[rng.integers(4)],
                                  options[rng.integers(4)]) for p in probes}
        got = score_vqa(probes, answers)
        want = sum(answers[probe_key(p)] == ("yes", "no") for p in probes) \
            / len(probes)
        assert got == want


def test_score_vqa_both_correct_rule():
    probes = build_probes(records_from_scenes(2, seed=5),
                          default_vocab(), seed=5)
    p = probes[0]
    answers = {probe_key(q): ("no", "no") for q in probes}
    answers[probe_key(p)] = ("yes", "yes")   # half right earns nothing
    assert score_vqa(probes, answers) == 0.0
    answers[probe_key(p)] = ("yes", "no")
    assert score_vqa(probes, answers) == 1 / len(probes)
    with pytest.raises(ValueError, match="missing answer"):
        score_vqa(probes, {})


def test_score_logits_matches_recount_and_ordering():
    rng = np.random.default_rng(6)
    vocab = default_vocab()
    probes = build_probes(records_from_scenes(8, seed=7), vocab, seed=7)
    for trial in range(20):
        states = {}
        for p in probes:
            logits = rng.standard_normal(len(vocab))
            states[probe_key(p)] = SegState(hidden=Tensor(np.zeros(4)),
                                            logits=Tensor(logits), position=0)
        acc1, acc3 = score_logits(probes, states, vocab)
        hit1 = hit3 = 0
        for p in probes:
            scores = states[probe_key(p)].logits.data
            subset = vocab.lexicon(p.attr_class)
            ranked = sorted(subset, key=lambda i: (-scores[i], i))
            true_id = vocab.id_of[p.true_value]
            hit1 += ranked[0] == true_id
            hit3 += true_id in ranked[:min(3, len(subset))]
        assert acc1 == hit1 / len(probes)
        assert acc3 == hit3 / len(probes)
        assert acc1 <= acc3


def test_score_logits_missing_state_rejected():
    probes = build_probes(records_from_scenes(2, seed=8),
                          default_vocab(), seed=8)
    with pytest.raises(ValueError, match="missing seg state"):
        score_logits(probes, {}, default_vocab())


def test_probe_file_roundtrip(tmp_path):
    probes = build_probes(records_from_scenes(3, seed=9),
                          default_vocab(), seed=9)
    p = str(tmp_path / "probes.json")
    save_probes(probes, p)
    back = load_probes(p)
    assert [q.to_dict() for q in back] == [q.to_dict() for q in probes]


@pytest.mark.parametrize("edit,match", [
    (lambda probes: probes[1].pop("image"), "record 1: record holds"),
    (lambda probes: probes[1].update(extra="x"), "record 1: record holds"),
    (lambda probes: probes[1].update(referring=5), "record 1: 'referring' must be str"),
    (lambda probes: probes[1].update(attr_class="colour"),
     "record 1: unknown attribute class 'colour'"),
    (lambda probes: probes.__setitem__(1, [1]), "record 1: record holds list"),
], ids=["missing-key", "unknown-key", "wrong-type", "unknown-class", "not-object"])
def test_probe_file_flaws_name_the_file_and_record(tmp_path, edit, match):
    p = tmp_path / "probes.json"
    save_probes(build_probes(records_from_scenes(2), default_vocab(), seed=0), str(p))
    probes = json.loads(p.read_text())
    edit(probes)
    p.write_text(json.dumps(probes))
    with pytest.raises(ValueError, match=match) as err:
        load_probes(str(p))
    assert str(err.value).startswith(f"{p}: ")
    for text, why in (("[{", "not valid JSON"), ("{}", "must be a JSON list, got dict")):
        p.write_text(text)
        with pytest.raises(ValueError, match=why) as err:
            load_probes(str(p))
        assert str(err.value).startswith(f"{p}: ")


def test_record_roundtrip():
    rec = records_from_scenes(1, seed=10)[0]
    assert AttrRecord.from_dict(rec.to_dict()) == rec
