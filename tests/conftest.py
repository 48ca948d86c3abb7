"""Shared builders for randomized test instances."""

import numpy as np

from adsm.lattice import (build_word_dag_explicit, build_word_dag_implicit,
                          concat_utterance, ctc_expand)
from adsm.vocab import Vocabulary


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def random_logp(rng: np.random.Generator, n_frames: int, n_classes: int,
                scale: float = 2.0) -> np.ndarray:
    return log_softmax_rows(scale * rng.standard_normal((n_frames, n_classes)))


def enumerate_segmentations(word: str, spellings) -> list[tuple[str, ...]]:
    """All ways to split ``word`` into pieces drawn from ``spellings``.

    Plain recursion, independent of the lattice machinery.
    """
    spellings = set(spellings)
    out = []

    def walk(pos, acc):
        if pos == len(word):
            out.append(tuple(acc))
            return
        for end in range(pos + 1, len(word) + 1):
            piece = word[pos:end]
            if piece in spellings:
                walk(end, acc + [piece])

    walk(0, [])
    return out


def flagged(pieces) -> tuple:
    """Attach word-end flags to a spelling split: last True, rest False."""
    pieces = tuple(pieces)
    return tuple((p, i == len(pieces) - 1) for i, p in enumerate(pieces))


# Pool of unit inventories over a two-letter alphabet, all of size <= 4.
_UNIT_POOLS = [
    (("a", False), ("a", True), ("b", False), ("b", True)),
    (("a", False), ("a", True), ("b", True), ("ab", True)),
    (("a", False), ("b", False), ("ab", True), ("b", True)),
    (("a", False), ("a", True), ("ba", True), ("b", False)),
]


def random_oracle_instance(rng: np.random.Generator, max_frames: int = 6):
    """A small utterance lattice plus log posteriors, sized for enumeration.

    Returns (lattice, vocab, logp).  At most 2 words, at most 3 variants per
    word, at most 4 units, and a frame count drawn from [min_frames, 6].
    """
    while True:
        vocab = Vocabulary.from_units(_UNIT_POOLS[int(rng.integers(len(_UNIT_POOLS)))])
        spellings = {s for s, _ in vocab.units}
        n_words = int(rng.integers(1, 3))
        dags = []
        ok = True
        for _ in range(n_words):
            length = int(rng.integers(1, 3))
            word = "".join(rng.choice(["a", "b"]) for _ in range(length))
            segs = [s for s in enumerate_segmentations(word, spellings)
                    if all(u in vocab.id_of for u in flagged(s))]
            if not segs:
                ok = False
                break
            take = min(len(segs), int(rng.integers(1, 4)))
            idx = rng.choice(len(segs), size=take, replace=False)
            variants = [tuple(vocab.id_of[u] for u in flagged(segs[i])) for i in idx]
            dags.append(build_word_dag_explicit(variants, vocab))
        if not ok:
            continue
        lat = concat_utterance(dags)
        graph = ctc_expand(lat, vocab)
        if graph.min_frames > max_frames:
            continue
        n_frames = int(rng.integers(graph.min_frames, max_frames + 1))
        return lat, vocab, random_logp(rng, n_frames, vocab.num_classes)


def chars_vocab(word: str) -> Vocabulary:
    units = []
    for c in sorted(set(word)):
        units.append((c, False))
        units.append((c, True))
    return Vocabulary.from_units(units)


def implicit_instance(rng: np.random.Generator, word: str = "abba",
                      max_frames: int = 6):
    """Single-word all-segmentations lattice over the word's characters."""
    vocab = chars_vocab(word)
    lat = build_word_dag_implicit(word, vocab)
    graph = ctc_expand(lat, vocab)
    n_frames = int(rng.integers(graph.min_frames, max_frames + 1))
    return lat, vocab, random_logp(rng, n_frames, vocab.num_classes)
