"""Closed word-level vocabulary with control tokens and attribute lexicons.

The token inventory is fixed at data-generation time: six control tokens in
a fixed header, then the attribute lexicons (colors, locations, categories),
then the remaining scaffold words. Ids follow file order, so the file is the
single source of truth for id assignment. A file must hold each `# <section>`
header once and in that order. Every fault, a repeated, unknown or
out-of-order header or an invalid vocabulary, raises a ValueError naming the file.
"""

from __future__ import annotations

SPECIALS = ("<pad>", "<eos>", "<seg>", "<image_id>", "<p>", "</p>")

_SECTION_ORDER = ("specials", "colors", "locations", "categories", "words")


class Vocab:
    def __init__(self, sections: dict[str, list[str]]):
        for key in _SECTION_ORDER:
            if key not in sections:
                raise ValueError(f"vocab missing section {key!r}")
        if tuple(sections["specials"]) != SPECIALS:
            raise ValueError(f"specials must be exactly {SPECIALS}")
        self.sections = {k: list(sections[k]) for k in _SECTION_ORDER}
        self.tokens: list[str] = []
        for key in _SECTION_ORDER:
            self.tokens.extend(self.sections[key])
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocab contains duplicate tokens")
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self.pad = self.id_of["<pad>"]
        self.eos = self.id_of["<eos>"]
        self.seg = self.id_of["<seg>"]
        self.image_id = self.id_of["<image_id>"]
        self.p_open = self.id_of["<p>"]
        self.p_close = self.id_of["</p>"]

    def __len__(self) -> int:
        return len(self.tokens)

    def lexicon(self, attr_class: str) -> list[int]:
        section = {"color": "colors", "location": "locations",
                   "category": "categories"}.get(attr_class)
        if section is None:
            raise ValueError(f"unknown attribute class {attr_class!r}")
        return [self.id_of[t] for t in self.sections[section]]

    def encode(self, text: str) -> list[int]:
        ids = []
        for word in text.split():
            if word not in self.id_of:
                raise ValueError(f"word {word!r} not in vocabulary")
            ids.append(self.id_of[word])
        return ids

    def decode(self, ids) -> str:
        return " ".join(self.tokens[int(i)] for i in ids)

    # -- file format ---------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for key in _SECTION_ORDER:
                f.write(f"# {key}\n")
                for tok in self.sections[key]:
                    f.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        sections: dict[str, list[str]] = {}
        current = None
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("# "):
                    current = line[2:].strip()
                    if _SECTION_ORDER[len(sections):len(sections) + 1] != (current,):
                        why = ("repeated" if current in sections else "out-of-order"
                               if current in _SECTION_ORDER else "unknown")
                        raise ValueError(
                            f"vocab file {path}: {why} section {current!r}")
                    sections[current] = []
                elif current is None:
                    raise ValueError(f"vocab file {path}: token before any section")
                else:
                    sections[current].append(line)
        try:
            return cls(sections)
        except ValueError as exc:
            raise ValueError(f"vocab file {path}: {exc}") from exc
