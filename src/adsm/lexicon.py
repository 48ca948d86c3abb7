"""Ingest grapheme-to-phoneme alignments and seed the unit inventory.

The alignment file is UTF-8 TSV, one word per line::

    word<TAB>chunk}phoneme chunk}phoneme ...

where a chunk aligned to no phoneme writes ``_`` in the phoneme slot.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

from .errors import located, read_rows
from .vocab import SegTable, Unit, Vocabulary, check_word_chars

log = logging.getLogger(__name__)

NULL_PHONEME = "_"


@dataclass(frozen=True)
class G2PEntry:
    """One lexicon word with its aligned (grapheme chunk, phoneme) pairs.

    ``phoneme`` is None for chunks the aligner mapped to nothing.
    """

    word: str
    pairs: tuple[tuple[str, str | None], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError(f"entry for {self.word!r} has no pairs")
        spelled = "".join(g for g, _ in self.pairs)
        if spelled != self.word:
            raise ValueError(f"chunks spell {spelled!r}, not {self.word!r}")


def parse_g2p(path) -> list[G2PEntry]:
    """Read an alignment file; entries whose chunks misspell the word are
    dropped with a warning, structurally malformed lines raise."""
    entries: list[G2PEntry] = []
    for lineno, (word, pair_field) in read_rows(path, fields=("word", "pairs")):
        with located(path, lineno):
            check_word_chars(word)
            pairs = []
            for token in pair_field.split():
                if "}" not in token:
                    raise ValueError(f"pair {token!r} lacks '}}'")
                chunk, phoneme = token.split("}", 1)
                if not chunk or not phoneme:
                    raise ValueError(f"pair {token!r} has an empty side")
                pairs.append((chunk, None if phoneme == NULL_PHONEME else phoneme))
            if not pairs:
                raise ValueError("no pairs on line")
        spelled = "".join(g for g, _ in pairs)
        if spelled != word:
            log.warning("%s:%d: chunks spell %r, not %r; entry dropped",
                        path, lineno, spelled, word)
            continue
        entries.append(G2PEntry(word, tuple(pairs)))
    return entries


def merge_null_chunks(entry: G2PEntry) -> G2PEntry:
    """Attach phoneme-less chunks to a phoneme-bearing neighbor.

    The left neighbor is preferred; a leading run of null chunks merges right.
    Raises ValueError when every chunk is null (nothing to anchor to).
    """
    merged: list[tuple[str, str]] = []
    pending = ""
    for chunk, phoneme in entry.pairs:
        if phoneme is None:
            if merged:
                prev_chunk, prev_phoneme = merged[-1]
                merged[-1] = (prev_chunk + chunk, prev_phoneme)
            else:
                pending += chunk
        else:
            merged.append((pending + chunk, phoneme))
            pending = ""
    if pending:
        raise ValueError(f"word {entry.word!r}: every chunk is aligned to the null phoneme")
    return G2PEntry(entry.word, tuple(merged))


def prepare_entries(entries: Iterable[G2PEntry]) -> list[G2PEntry]:
    """Null-merge all entries, dropping (with a warning) all-null words."""
    out = []
    for entry in entries:
        try:
            out.append(merge_null_chunks(entry))
        except ValueError as exc:
            log.warning("%s", exc)
    return out


def build_initial_vocab(entries: Iterable[G2PEntry],
                        corpus_words: Iterable[str] = ()) -> Vocabulary:
    """Initial inventory: every chunk, word-end copies of word-final chunks,
    and every single character (of the lexicon and corpus) in both forms.

    The forced single characters make the implicit "all segmentations"
    definition cover any word over the observed alphabet.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("no G2P entries")
    units: set[Unit] = set()
    alphabet: set[str] = set()
    for entry in entries:
        for chunk, phoneme in entry.pairs:
            if phoneme is None:
                raise ValueError("entries must be null-merged first")
            units.add((chunk, False))
        units.add((entry.pairs[-1][0], True))
        alphabet.update(entry.word)
    for word in corpus_words:
        check_word_chars(word)
        alphabet.update(word)
    for ch in alphabet:
        units.add((ch, False))
        units.add((ch, True))
    return Vocabulary.from_units(units)


def make_initial_segtable(words: Iterable[str], vocab: Vocabulary) -> SegTable:
    """All-segmentations table over the given words.

    Every word must be spellable character-by-character, which
    :func:`build_initial_vocab` guarantees for the words it has seen.
    """
    words = sorted(set(words))
    alphabet = vocab.alphabet()
    for word in words:
        check_word_chars(word)
        for ch in word:
            if ch not in alphabet or (ch, False) not in vocab or (ch, True) not in vocab:
                raise ValueError(f"word {word!r} contains {ch!r}, absent from the alphabet")
    return SegTable.implicit(words, vocab)
