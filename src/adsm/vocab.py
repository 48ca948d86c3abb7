"""Subword unit inventories and per-word segmentation tables.

A unit is a ``(spelling, word_end)`` pair; word-final copies of a spelling
are distinct labels from their word-internal form.  The blank class used by
the alignment machinery is not a unit: it always takes the dense id ``len(V)``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .errors import FormatError, located, read_rows

# (spelling, word_end)
Unit = tuple[str, bool]

WORD_END_MARK = "_"

VOCAB_HEADER = "#adsm-vocab-v1"
SEGTABLE_HEADER = "#adsm-segtable-v1"

WEIGHT_SUM_TOL = 1e-9


def marked(unit: Unit) -> str:
    """Render a unit as its spelling, with the trailing word-end marker."""
    spelling, word_end = unit
    return spelling + WORD_END_MARK if word_end else spelling


def parse_marked(token: str) -> Unit:
    """Inverse of :func:`marked`."""
    if token.endswith(WORD_END_MARK):
        body = token[: -len(WORD_END_MARK)]
        if not body:
            raise ValueError("empty unit spelling in marked token %r" % token)
        return (body, True)
    if not token:
        raise ValueError("empty unit token")
    return (token, False)


def check_word_chars(word: str) -> None:
    """Reject spellings that would collide with the serialization markers."""
    if not word:
        raise ValueError("empty word")
    for ch in word:
        if ch.isspace() or ch in (WORD_END_MARK, "}", "\t"):
            raise ValueError(f"character {ch!r} is reserved and cannot appear in a word")


class Vocabulary:
    """Dense, immutable bijection between units and integer ids.

    Ids are assigned by position in the ``units`` sequence; the blank class
    sits at ``len(units)`` and is not part of the inventory.
    """

    def __init__(self, units: Iterable[Unit]):
        units = tuple((str(s), bool(e)) for s, e in units)
        id_of: dict[Unit, int] = {}
        for i, unit in enumerate(units):
            spelling, _ = unit
            check_word_chars(spelling)
            if unit in id_of:
                raise ValueError(f"duplicate unit {marked(unit)!r}")
            id_of[unit] = i
        self.units = units
        self.id_of = id_of

    @classmethod
    def from_units(cls, units: Iterable[Unit]) -> "Vocabulary":
        """Build with a canonical sorted unit order (stable dense ids)."""
        return cls(sorted(set(units)))

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[Unit]:
        return iter(self.units)

    def __contains__(self, unit: Unit) -> bool:
        return unit in self.id_of

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.units == other.units

    @property
    def blank_id(self) -> int:
        return len(self.units)

    @property
    def num_classes(self) -> int:
        """Unit count plus the blank class."""
        return len(self.units) + 1

    def unit(self, uid: int) -> Unit:
        return self.units[uid]

    def id(self, spelling: str, word_end: bool) -> int:
        return self.id_of[(spelling, word_end)]

    def spelling(self, uid: int) -> str:
        """Marked spelling of a unit id; the blank renders as ``eps``."""
        if uid == self.blank_id:
            return "eps"
        return marked(self.units[uid])

    def alphabet(self) -> set[str]:
        return {ch for spelling, _ in self.units for ch in spelling}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(VOCAB_HEADER + "\n")
            for i, (spelling, word_end) in enumerate(self.units):
                fh.write(f"{spelling}\t{int(word_end)}\t{i}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        rows: dict[Unit, int] = {}
        for lineno, (spelling, end_s, id_s) in read_rows(path, VOCAB_HEADER,
                                                         ("spelling", "word_end", "id")):
            with located(path, lineno):
                check_word_chars(spelling)
                if end_s not in ("0", "1"):
                    raise ValueError(f"word_end must be 0 or 1, not {end_s!r}")
                unit = (spelling, end_s == "1")
                if unit in rows:
                    raise ValueError(f"duplicate unit {marked(unit)!r}")
                rows[unit] = int(id_s)
        if sorted(rows.values()) != list(range(len(rows))):
            raise FormatError("unit ids are not dense", path=path)
        return cls(sorted(rows, key=rows.get))


class SegMode(enum.Enum):
    IMPLICIT_ALL = "IMPLICIT_ALL"
    EXPLICIT = "EXPLICIT"


# (unit id sequence, weight)
Variant = tuple[tuple[int, ...], float]


class SegTable:
    """Per-word segmentation sets, either enumerated or "all over V".

    EXPLICIT entries map each word to weighted unit-id sequences against the
    backing vocabulary; IMPLICIT_ALL tables store only the word list and
    define membership as every segmentation of the word over the vocabulary.
    """

    def __init__(self, mode: SegMode, vocab: Vocabulary,
                 entries: dict[str, list[Variant]]):
        self.mode = mode
        self.vocab = vocab
        self.entries = entries
        for word, variants in entries.items():
            self._check_word_entry(word, variants)

    def _check_word_entry(self, word: str, variants: list[Variant]) -> None:
        check_word_chars(word)
        if self.mode is SegMode.IMPLICIT_ALL:
            if variants:
                raise ValueError("implicit table cannot store variants")
            return
        if not variants:
            raise ValueError(f"word {word!r} has no variants")
        total = 0.0
        seen = set()
        for ids, weight in variants:
            if ids in seen:
                raise ValueError(f"duplicate variant for {word!r}")
            seen.add(ids)
            units = [self.vocab.unit(i) for i in ids]
            spelled = "".join(s for s, _ in units)
            if spelled != word:
                raise ValueError(
                    f"variant {' '.join(map(marked, units))!r} spells {spelled!r}, not {word!r}")
            flags = [e for _, e in units]
            if not flags[-1] or any(flags[:-1]):
                raise ValueError(
                    f"variant for {word!r} must carry word_end exactly on its last unit")
            if not (0.0 < weight <= 1.0):
                raise ValueError(f"variant weight {weight} for {word!r} outside (0, 1]")
            total += weight
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights for {word!r} sum to {total}, expected 1")

    @classmethod
    def implicit(cls, words: Iterable[str], vocab: Vocabulary) -> "SegTable":
        entries = {w: [] for w in sorted(set(words))}
        return cls(SegMode.IMPLICIT_ALL, vocab, entries)

    @classmethod
    def explicit(cls, entries: dict[str, list[Variant]], vocab: Vocabulary) -> "SegTable":
        ordered = {w: list(entries[w]) for w in sorted(entries)}
        return cls(SegMode.EXPLICIT, vocab, ordered)

    def words(self) -> list[str]:
        return list(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def variants(self, word: str) -> list[Variant]:
        if self.mode is not SegMode.EXPLICIT:
            raise ValueError("implicit tables do not enumerate variants; build a lattice instead")
        if word not in self.entries:
            raise ValueError(f"word {word!r} is not in the segmentation table")
        return self.entries[word]

    def unit_variants(self, word: str) -> list[tuple[tuple[Unit, ...], float]]:
        """Variants rendered as unit tuples (vocabulary-independent form)."""
        return [(tuple(self.vocab.unit(i) for i in ids), w)
                for ids, w in self.variants(word)]

    def best_variant(self, word: str) -> tuple[int, ...]:
        """Highest-weight variant; ties resolved by smallest spelled form."""
        variants = self.variants(word)
        def key(v):
            ids, weight = v
            spelled = tuple(marked(self.vocab.unit(i)) for i in ids)
            return (-weight, spelled)
        return min(variants, key=key)[0]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{SEGTABLE_HEADER}\tmode={self.mode.value}\n")
            if self.mode is SegMode.IMPLICIT_ALL:
                for word in self.entries:
                    fh.write(word + "\n")
                return
            for word, variants in self.entries.items():
                for ids, weight in variants:
                    tokens = " ".join(marked(self.vocab.unit(i)) for i in ids)
                    fh.write(f"{word}\t{tokens}\t{weight!r}\n")

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "SegTable":
        rows = read_rows(path, SEGTABLE_HEADER, keep_header=True)
        _, header = next(rows)
        fields = dict(part.split("=", 1) for part in header[1:] if "=" in part)
        with located(path, 1, "unknown segtable mode"):
            table = cls(SegMode(fields.get("mode", "")), vocab, {})
        width = 1 if table.mode is SegMode.IMPLICIT_ALL else 3
        entries: dict[str, list[Variant]] = {}
        first_line: dict[str, int] = {}
        for lineno, parts in rows:
            word = parts[0]
            with located(path, lineno):
                if len(parts) != width:
                    raise ValueError(f"expected {width} tab-separated fields")
                if width == 1 and word in entries:
                    raise ValueError(f"repeated word {word!r}")
            variants = entries.setdefault(word, [])
            first_line.setdefault(word, lineno)
            if width == 3:
                with located(path, lineno, "bad variant"):
                    ids = tuple(vocab.id_of[parse_marked(tok)] for tok in parts[1].split())
                    variants.append((ids, float(parts[2])))
        # Check word by word so that an error names the word's first line.
        for word, variants in entries.items():
            with located(path, first_line[word]):
                table._check_word_entry(word, variants)
        table.entries = entries
        return table
