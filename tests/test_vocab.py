"""Vocabulary invariants and the sectioned file format."""

import numpy as np
import pytest

from seglang.scenes import default_vocab
from seglang.vocab import SPECIALS, Vocab


def test_specials_occupy_fixed_header():
    v = default_vocab()
    assert tuple(v.tokens[:6]) == SPECIALS
    assert (v.pad, v.eos, v.seg, v.image_id, v.p_open, v.p_close) == (0, 1, 2, 3, 4, 5)


def test_lexicons_are_section_id_lists():
    v = default_vocab()
    for attr_class, words in [("color", v.sections["colors"]),
                              ("location", v.sections["locations"]),
                              ("category", v.sections["categories"])]:
        ids = v.lexicon(attr_class)
        assert [v.tokens[i] for i in ids] == words
        assert len(set(ids)) == len(ids)
    with pytest.raises(ValueError, match="unknown attribute class"):
        v.lexicon("shape")


def test_encode_decode_roundtrip():
    v = default_vocab()
    text = "segment interleaved the red square on the left"
    ids = v.encode(text)
    assert v.decode(ids) == text
    with pytest.raises(ValueError, match="not in vocabulary"):
        v.encode("the magenta square")


def test_save_load_preserves_ids(tmp_path):
    v = default_vocab()
    p = str(tmp_path / "vocab.txt")
    v.save(p)
    w = Vocab.load(p)
    assert w.tokens == v.tokens
    assert w.id_of == v.id_of
    assert w.sections == v.sections


def test_constructor_validation():
    base = default_vocab().sections
    bad = {k: list(vs) for k, vs in base.items()}
    bad["specials"] = list(SPECIALS[:-1])
    with pytest.raises(ValueError, match="specials"):
        Vocab(bad)

    dup = {k: list(vs) for k, vs in base.items()}
    dup["words"] = dup["words"] + [dup["colors"][0]]
    with pytest.raises(ValueError, match="duplicate"):
        Vocab(dup)

    missing = {k: list(vs) for k, vs in base.items() if k != "locations"}
    with pytest.raises(ValueError, match="missing section"):
        Vocab(missing)


def test_load_rejects_headerless_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("red\n")
    with pytest.raises(ValueError, match="before any section"):
        Vocab.load(str(p))


@pytest.mark.parametrize("extra,why", [("# colors\nred2\n", "repeated section 'colors'"),
                                       ("# extra\nfoo\n", "unknown section 'extra'")])
def test_load_rejects_a_repeated_or_unknown_section(tmp_path, extra, why):
    # either would load a vocab other than the file's: a repeated header used
    # to replace the earlier section, an unknown one was dropped
    p = tmp_path / "vocab.txt"
    default_vocab().save(str(p))
    p.write_text(p.read_text() + extra)
    with pytest.raises(ValueError, match=why) as err:
        Vocab.load(str(p))
    assert str(p) in str(err.value)


def test_load_refuses_sections_out_of_file_order(tmp_path):
    # ids follow file order: a file with `# words` first would have loaded
    # with the colors' ids in the words' place
    sections = default_vocab().sections
    p = tmp_path / "vocab.txt"
    p.write_text("".join(f"# {key}\n" + "".join(t + "\n" for t in sections[key])
                         for key in ("specials", "words", "colors", "locations",
                                     "categories")))
    with pytest.raises(ValueError, match="out-of-order section 'words'") as err:
        Vocab.load(str(p))
    assert str(p) in str(err.value)


def write_sections(path, sections):
    path.write_text("".join(f"# {key}\n" + "".join(t + "\n" for t in tokens)
                            for key, tokens in sections.items()))


@pytest.mark.parametrize("edit,why", [
    (lambda s: s.pop("words"), "missing section 'words'"),
    (lambda s: s["specials"].__setitem__(0, "<blank>"), "specials must be exactly"),
    (lambda s: s["words"].append(s["colors"][0]), "duplicate tokens")],
    ids=["missing-section", "edited-specials", "repeated-token"])
def test_load_names_the_file_for_every_content_fault(tmp_path, edit, why):
    # the constructor's refusals reach the caller with the path, as the
    # header errors do
    sections = {k: list(v) for k, v in default_vocab().sections.items()}
    edit(sections)
    p = tmp_path / "vocab.txt"
    write_sections(p, sections)
    with pytest.raises(ValueError, match=why) as err:
        Vocab.load(str(p))
    assert str(err.value).startswith(f"vocab file {p}: ")
