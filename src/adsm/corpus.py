"""Corpus ingestion, synthetic data generation, and metrics reporting.

Features live in a UTF-8 text file, one block per utterance: a ``utt_id T D``
header line followed by T rows of D space-separated decimals.  Transcripts
are one ``utt_id<TAB>word word ...`` line per utterance.  Floats are written
with ``repr`` so write/read round-trips are exact.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import float_rows, located, read_rows
from .lexicon import G2PEntry
from .vocab import Unit, check_word_chars

log = logging.getLogger(__name__)

FEATURES_HEADER = "#adsm-feats-v1"
TRANSCRIPTS_HEADER = "#adsm-trans-v1"
TARGETS_HEADER = "#adsm-targets-v1"
METRICS_HEADER = "#adsm-metrics-v1"


@dataclass
class FeatureMatrix:
    utt_id: str
    values: np.ndarray            # (T, D) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError(f"features for {self.utt_id!r} must be (T>=1, D)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"features for {self.utt_id!r} contain non-finite values")


@dataclass
class Utterance:
    utt_id: str
    features: FeatureMatrix
    words: tuple[str, ...]

    def __post_init__(self):
        self.words = tuple(self.words)
        if not self.words:
            raise ValueError(f"utterance {self.utt_id!r} has an empty transcription")
        for w in self.words:
            check_word_chars(w)


class Corpus:
    """Feature/transcription pairs with unique utterance ids."""

    def __init__(self, utterances):
        self.utterances = list(utterances)
        seen = set()
        for utt in self.utterances:
            if utt.utt_id in seen:
                raise ValueError(f"duplicate utterance id {utt.utt_id!r}")
            seen.add(utt.utt_id)

    def __len__(self):
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def __getitem__(self, i):
        return self.utterances[i]

    def words(self) -> list[str]:
        return sorted({w for utt in self.utterances for w in utt.words})

    def word_counts(self) -> Counter:
        counts: Counter = Counter()
        for utt in self.utterances:
            counts.update(utt.words)
        return counts

    def alphabet(self) -> set[str]:
        return {ch for utt in self.utterances for w in utt.words for ch in w}


def write_features(mats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FEATURES_HEADER + "\n")
        for mat in mats:
            T, D = mat.values.shape
            fh.write(f"{mat.utt_id} {T} {D}\n")
            for row in mat.values:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_features(path) -> list[FeatureMatrix]:
    mats: dict[str, FeatureMatrix] = {}
    rows = read_rows(path, FEATURES_HEADER, sep=None)
    width = None
    for lineno, parts in rows:
        with located(path, lineno):
            if len(parts) != 3:
                raise ValueError("expected 'utt_id T D' header")
            utt_id, T, D = parts[0], int(parts[1]), int(parts[2])
            if utt_id in mats:
                raise ValueError(f"duplicate utterance id {utt_id!r}")
            if T < 1 or D < 1:
                raise ValueError(f"features for {utt_id!r} must be (T>=1, D>=1)")
            width = width or D
            if D != width:
                raise ValueError(f"features for {utt_id!r} have {D} columns, "
                                 f"the first block {width}")
            block = list(islice(rows, T))
            if len(block) < T:
                raise ValueError(f"features for {utt_id!r} end after {len(block)} of {T} rows")
        mats[utt_id] = FeatureMatrix(utt_id, float_rows(path, block, D))
    return list(mats.values())


def write_transcripts(pairs, path) -> None:
    """``pairs``: iterable of (utt_id, word sequence)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRANSCRIPTS_HEADER + "\n")
        for utt_id, words in pairs:
            fh.write(utt_id + "\t" + " ".join(words) + "\n")


def _read_items(path, header, check_item=None) -> dict[str, tuple[str, ...]]:
    """The ``utt_id<TAB>item item ...`` lines of a transcript or targets file,
    each item passed to ``check_item`` when one is given."""
    out: dict[str, tuple[str, ...]] = {}
    for lineno, (utt_id, items) in read_rows(path, header, ("utt_id", "items")):
        with located(path, lineno):
            if utt_id in out:
                raise ValueError(f"duplicate utterance id {utt_id!r}")
            out[utt_id] = tuple(items.split())
            if not out[utt_id]:
                raise ValueError(f"empty item list for {utt_id!r}")
            if check_item is not None:
                for item in out[utt_id]:
                    check_item(item)
    return out


def read_transcripts(path) -> dict[str, tuple[str, ...]]:
    return _read_items(path, TRANSCRIPTS_HEADER, check_word_chars)


def load_corpus(feature_path, transcript_path) -> Corpus:
    """Join features and transcripts on utterance id; unmatched ids on either
    side are excluded with a warning.  Raises ValueError when no utterance
    is left."""
    mats = read_features(feature_path)
    trans = read_transcripts(transcript_path)
    have = {m.utt_id for m in mats}
    utts = []
    for mat in mats:
        if mat.utt_id not in trans:
            log.warning("feature block %r has no transcription; dropped", mat.utt_id)
            continue
        utts.append(Utterance(mat.utt_id, mat, trans[mat.utt_id]))
    for utt_id in trans:
        if utt_id not in have:
            log.warning("transcription %r has no features; dropped", utt_id)
    if not utts:
        raise ValueError(f"no utterance of {feature_path} has a transcript in {transcript_path}")
    return Corpus(utts)


def write_targets(pairs, path) -> None:
    """``pairs``: iterable of (utt_id, marked-token sequence)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TARGETS_HEADER + "\n")
        for utt_id, tokens in pairs:
            fh.write(utt_id + "\t" + " ".join(tokens) + "\n")


def read_targets(path) -> dict[str, tuple[str, ...]]:
    return _read_items(path, TARGETS_HEADER)


@dataclass
class SyntheticSpec:
    """Generator recipe: each word is a fixed sequence of latent chunks, each
    chunk emits ``frames_per_unit`` noisy copies of its prototype vector."""

    word_segs: dict[str, tuple[str, ...]]
    dim: int = 10
    frames_per_unit: int = 8
    noise: float = 0.1
    n_utterances: int = 500
    min_words: int = 2
    max_words: int = 5
    seed: int = 0
    prototypes: dict[str, np.ndarray] | None = field(default=None)

    def __post_init__(self):
        if not self.word_segs:
            raise ValueError("no words in the synthetic spec")
        for word, chunks in self.word_segs.items():
            check_word_chars(word)
            if "".join(chunks) != word:
                raise ValueError(f"chunks {chunks!r} do not spell {word!r}")
        if self.dim < 1 or self.frames_per_unit < 1 or self.n_utterances < 1:
            raise ValueError("dim, frames_per_unit, n_utterances must be positive")
        if not 1 <= self.min_words <= self.max_words:
            raise ValueError("need 1 <= min_words <= max_words")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")

    def chunk_inventory(self) -> list[str]:
        return sorted({c for chunks in self.word_segs.values() for c in chunks})


def make_prototypes(spec: SyntheticSpec) -> dict[str, np.ndarray]:
    """One gaussian prototype per latent chunk, or the user-supplied map;
    near-identical prototypes are rejected."""
    chunks = spec.chunk_inventory()
    if spec.prototypes is not None:
        protos = {c: np.asarray(spec.prototypes[c], dtype=np.float64) for c in chunks}
    else:
        rng = np.random.default_rng(spec.seed)
        protos = {c: rng.standard_normal(spec.dim) for c in chunks}
    for i, a in enumerate(chunks):
        for b in chunks[i + 1 :]:
            if np.max(np.abs(protos[a] - protos[b])) < 1e-6:
                raise ValueError(f"prototypes for {a!r} and {b!r} are not distinct")
    return protos


def gen_synthetic(spec: SyntheticSpec) -> tuple[Corpus, dict[str, tuple[Unit, ...]]]:
    """Corpus plus the generating segmentation of every utterance.

    The ground truth maps utt_id to the flat unit sequence (chunk spelling,
    word-end flag) that produced the features.  Word order avoids putting the
    same unit class on both sides of a word boundary, so no ground-truth
    alignment ever needs a separating blank.
    """
    protos = make_prototypes(spec)
    row = {c: r for r, c in enumerate(protos)}
    table = np.stack(list(protos.values()))
    rng = np.random.default_rng(spec.seed + 1)
    words = sorted(spec.word_segs)

    def first_unit(w):
        chunks = spec.word_segs[w]
        return (chunks[0], len(chunks) == 1)

    def last_unit(w):
        return (spec.word_segs[w][-1], True)

    clear = {p: [w for w in words if first_unit(w) != last_unit(p)] for p in words}
    if any(not ws for ws in clear.values()):
        raise ValueError("some word can be followed by nothing without a repeated unit")
    utts = []
    truth: dict[str, tuple[Unit, ...]] = {}
    cycle = 0
    for i in range(spec.n_utterances):
        n = int(rng.integers(spec.min_words, spec.max_words + 1))
        picked: list[str] = []
        for _ in range(n):
            # walk the word list once before sampling freely: every word occurs
            if cycle < len(words) and (not picked or words[cycle] in clear[picked[-1]]):
                picked.append(words[cycle])
                cycle += 1
                continue
            pool = clear[picked[-1]] if picked else words
            picked.append(pool[int(rng.integers(len(pool)))])
        units = [(c, j == len(spec.word_segs[w]) - 1)
                 for w in picked for j, c in enumerate(spec.word_segs[w])]
        # one draw per utterance gives the stream of one draw per chunk
        values = rng.normal(0.0, spec.noise, (len(units) * spec.frames_per_unit, table.shape[1]))
        blocks = values.reshape(len(units), spec.frames_per_unit, -1)   # a view, one block per chunk
        blocks += table[[row[c] for c, _ in units]][:, None, :]
        utt_id = f"utt{i:04d}"
        feats = FeatureMatrix(utt_id, values)
        utts.append(Utterance(utt_id, feats, tuple(picked)))
        truth[utt_id] = tuple(units)
    return Corpus(utts), truth


def g2p_entries_for(spec: SyntheticSpec) -> list[G2PEntry]:
    """Seed lexicon matching the generator: each chunk aligned to a pseudo
    phoneme of the same name."""
    return [G2PEntry(word, tuple((c, c) for c in chunks))
            for word, chunks in sorted(spec.word_segs.items())]


@dataclass(frozen=True)
class MetricsRow:
    step: str
    vocab_size: int
    avg_variants: float
    avg_len: float


def metrics_for(step: str, vocab, table, word_counts=None) -> MetricsRow:
    """Vocabulary size, mean variants per word, and mean variant length.

    Averages are over word types; pass ``word_counts`` to weight them by
    corpus occurrence instead.
    """
    from .lattice import build_word_dag_implicit, path_length_stats
    from .vocab import SegMode

    n_var = []
    lens = []
    weights = []
    for word in table.words():
        if table.mode is SegMode.IMPLICIT_ALL:
            count, mean_len = path_length_stats(build_word_dag_implicit(word, vocab))
        else:
            variants = table.variants(word)
            count = len(variants)
            mean_len = float(np.mean([len(ids) for ids, _ in variants]))
        n_var.append(count)
        lens.append(mean_len)
        weights.append(1 if word_counts is None else word_counts.get(word, 0))
    total = float(sum(weights))
    if total == 0:
        raise ValueError("no words to report on")
    avg_v = float(sum(c * w for c, w in zip(n_var, weights)) / total)
    avg_l = float(sum(m * w for m, w in zip(lens, weights)) / total)
    return MetricsRow(step, len(vocab), avg_v, avg_l)


def format_report(rows) -> str:
    out = [METRICS_HEADER, "step\tvocab_size\tavg_variants\tavg_len"]
    for r in rows:
        out.append(f"{r.step}\t{r.vocab_size}\t{r.avg_variants!r}\t{r.avg_len!r}")
    return "\n".join(out) + "\n"
