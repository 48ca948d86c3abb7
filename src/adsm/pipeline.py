"""Iterative vocabulary learning: train an aligner, force-align, filter
variants by weight, merge neighbors, repeat, then finalize targets.

All bookkeeping here stores variants as tuples of ``(spelling, word_end)``
units so tables survive the vocabulary rebuilds between stages.
"""

from __future__ import annotations

import functools
import logging
import os
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import corpus as corpus_io
from .ctc import check_prior_scale, emission_columns, estimate_prior, viterbi_paths
from .encoder import (CHUNK, EncoderParams, TrainConfig, encode_batch, feasible_items,
                      init_params, resize_output, save_params, train)
from .errors import located, read_rows
from .lattice import (UttLattice, build_word_dag_explicit,
                      build_word_dag_implicit, concat_utterance, expand_lattices)
from .lexicon import build_initial_vocab, make_initial_segtable, prepare_entries
from .vocab import SegMode, SegTable, Unit, Vocabulary, marked, parse_marked

log = logging.getLogger(__name__)

STATS_HEADER = "#adsm-stats-v1"

UnitSeq = tuple[Unit, ...]


@dataclass
class PipelineConfig:
    prior_scale: float = 0.3          # flattens the label prior during alignment
    min_weight: float = 0.05          # per-word variant weight floor
    min_count: int = 20               # words rarer than this keep only their best variant
    merge_rounds: int = 1
    subsample: int = 2                # initial factor, doubled after every merge
    hidden: tuple[int, ...] = (48,)
    radii: tuple[int, ...] = (1,)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    warm_start: bool = False

    def __post_init__(self):
        check_prior_scale(self.prior_scale)
        if not 0.0 <= self.min_weight < 1.0:
            raise ValueError("weight floor must lie in [0, 1)")
        if self.min_count < 1:
            raise ValueError("word-count floor must be at least 1")
        if self.merge_rounds < 0:
            raise ValueError("merge rounds cannot be negative")
        if self.subsample < 1 or self.subsample & (self.subsample - 1):
            raise ValueError("subsample factor must be a power of two")


class VariantStats:
    """Per-word variant counts gathered from forced alignments."""

    def __init__(self):
        self.counts: dict[str, dict[UnitSeq, int]] = {}
        self.word_total: dict[str, int] = {}

    def add(self, word: str, variant: UnitSeq, count: int = 1) -> None:
        spelled = "".join(s for s, _ in variant)
        if spelled != word:
            raise ValueError(f"variant {variant!r} does not spell {word!r}")
        per = self.counts.setdefault(word, {})
        per[variant] = per.get(variant, 0) + count
        self.word_total[word] = self.word_total.get(word, 0) + count

    def __len__(self):
        return len(self.counts)

    def words(self) -> list[str]:
        return sorted(self.counts)

    def weights(self, word: str) -> list[tuple[UnitSeq, float]]:
        """count / total occurrences, highest first; ties by spelled form."""
        total = self.word_total[word]
        items = sorted(self.counts[word].items(),
                       key=lambda kv: (-kv[1], tuple(marked(u) for u in kv[0])))
        return [(variant, count / total) for variant, count in items]

    def best(self, word: str) -> UnitSeq:
        return self.weights(word)[0][0]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(STATS_HEADER + "\n")
            for word in self.words():
                for variant, _ in self.weights(word):
                    tokens = " ".join(marked(u) for u in variant)
                    fh.write(f"{word}\t{self.counts[word][variant]}\t{tokens}\n")

    @classmethod
    def load(cls, path) -> "VariantStats":
        stats = cls()
        for lineno, (word, count_s, tokens) in read_rows(path, STATS_HEADER,
                                                         ("word", "count", "tokens")):
            with located(path, lineno):
                count = int(count_s)
                if count <= 0:
                    raise ValueError(f"count {count} is not positive")
                variant = tuple(parse_marked(tok) for tok in tokens.split())
                if variant in stats.counts.get(word, ()):
                    raise ValueError(f"repeated row for {word!r} and {tokens!r}")
                stats.add(word, variant, count)
        return stats


@dataclass(frozen=True)
class AlignedUtt:
    """One utterance's forced alignment, split back into per-word variants."""

    index: int
    utt_id: str
    word_variants: tuple[tuple[str, UnitSeq], ...]


def utterance_lattice(words, vocab: Vocabulary, table: SegTable,
                      dag_cache: dict | None = None) -> UttLattice:
    """Concatenated word lattice under the current table (all segmentations
    for implicit tables, listed variants otherwise)."""
    dags = []
    for word in words:
        dag = None if dag_cache is None else dag_cache.get(word)
        if dag is None:
            if table.mode is SegMode.IMPLICIT_ALL:
                dag = build_word_dag_implicit(word, vocab)
            else:
                dag = build_word_dag_explicit(
                    [ids for ids, _ in table.variants(word)], vocab)
            if dag_cache is not None:
                dag_cache[word] = dag
        dags.append(dag)
    return concat_utterance(dags)


def build_dataset(corp: corpus_io.Corpus, vocab: Vocabulary, table: SegTable):
    """One (features, lattice) pair per utterance."""
    cache: dict = {}
    pairs = []
    for utt in corp:
        lat = utterance_lattice(utt.words, vocab, table, cache)
        pairs.append((utt.features, lat))
    return pairs


def align_corpus(params: EncoderParams, dataset, prior_scale: float,
                 vocab: Vocabulary, graphs=None):
    """Viterbi-align every feasible utterance and bucket the per-word
    variants.  ``graphs``, when given, holds each lattice's expanded graph;
    otherwise the lattices are expanded here.

    The feasible utterances are sorted by subsampled length (ties by dataset
    position) and cut into chunks of ``CHUNK``, so each chunk's encoder
    pass, Viterbi sweep and backtrace run only as long as its own longest
    utterance.  The chunks are encoded longest first.  Each chunk's
    posteriors are exponentiated once for the per-utterance sums the label
    prior is estimated from, in dataset order; the chunk then keeps only
    its emission columns (:func:`emission_columns`), so what is held until
    the prior is known grows with the labels its lattices read, not with
    the class count.  The chunks are aligned shortest first, each from its
    columns; each path's label states, in word runs, are its words'
    variants, and each distinct variant is spelled out once.  The
    alignments keep dataset order, and the stats count each (word,
    variant) in order of first occurrence.  A prior scale outside [0, 1]
    is refused before anything is expanded or encoded.
    Returns (alignments, stats, skipped).
    """
    check_prior_scale(prior_scale)
    if params.num_classes != vocab.num_classes:
        raise ValueError(f"the encoder has {params.num_classes} classes, "
                         f"the vocabulary {vocab.num_classes}")
    dataset = list(dataset)
    feasible, skipped = feasible_items(dataset, params, vocab, graphs)
    # a stable sort: equal lengths keep dataset order
    order = sorted(range(len(feasible)), key=lambda k: len(feasible[k][1]))
    chunks = [order[lo : lo + CHUNK] for lo in range(0, len(order), CHUNK)]
    encoded = [None] * len(chunks)
    sums, frames = np.empty((len(feasible), params.num_classes)), 0
    for c in reversed(range(len(chunks))):
        logp, lengths = encode_batch([feasible[k][1] for k in chunks[c]], params)
        probs = np.exp(logp)
        probs[np.arange(logp.shape[1]) >= lengths[:, None]] = 0.0   # padded rows
        sums[chunks[c]] = probs.sum(axis=1)
        frames += int(lengths.sum())
        encoded[c] = emission_columns([feasible[k][2] for k in chunks[c]], logp), lengths
        del logp, probs
    prior = estimate_prior(sums, frames)

    word_variants = [None] * len(feasible)
    spell = functools.cache(lambda ids: tuple(vocab.unit(i) for i in ids))
    for c, chunk in enumerate(chunks):
        (columns, lengths), encoded[c] = encoded[c], None   # released once aligned
        chunk_graphs = [feasible[k][2] for k in chunk]
        path, _ = viterbi_paths(chunk_graphs, columns, lengths, prior, prior_scale)
        # every path's states in frame order, path after path; a path never
        # returns to a state it has left, so a new state starts its one visit
        owner = np.repeat(np.arange(len(chunk)), lengths)
        states = path[np.cumsum(lengths)[owner] - 1 - np.arange(len(owner)), owner]
        labels = np.concatenate([g.labels for g in chunk_graphs])[states]
        words = np.concatenate([g.state_word for g in chunk_graphs])[states]
        visit = np.r_[True, states[1:] != states[:-1]] & (labels != vocab.blank_id)
        labels, words, owner = labels[visit], words[visit], owner[visit]
        # every word of an accepted path has a label state, so the runs of
        # equal (path, word) are the chunk's words in order
        cuts = np.flatnonzero((owner[1:] != owner[:-1]) | (words[1:] != words[:-1])) + 1
        bounds = [0, *cuts.tolist(), len(labels)]
        labels, runs = labels.tolist(), zip(bounds, bounds[1:])
        for k in chunk:
            word_variants[k] = tuple((word, spell(tuple(labels[lo:hi]))) for word, (lo, hi)
                                     in zip(dataset[feasible[k][0]][1].words, runs))

    stats = VariantStats()
    for (word, variant), count in Counter(pair for vs in word_variants for pair in vs).items():
        stats.add(word, variant, count)
    aligned = [AlignedUtt(i, getattr(dataset[i][0], "utt_id", str(i)), variants)
               for (i, _, _), variants in zip(feasible, word_variants)]
    return aligned, stats, skipped


def _vocab_with_chars(variant_units: set[Unit], words) -> Vocabulary:
    """Kept units plus every single character in both word positions."""
    units = set(variant_units)
    for word in words:
        for ch in word:
            units.add((ch, False))
            units.add((ch, True))
    return Vocabulary.from_units(units)


def _table_from_kept(kept: dict[str, list[tuple[UnitSeq, float]]],
                     vocab: Vocabulary) -> SegTable:
    entries = {}
    for word, variants in kept.items():
        entries[word] = [(tuple(vocab.id_of[u] for u in units), weight)
                         for units, weight in variants]
    return SegTable.explicit(entries, vocab)


def refine(stats: VariantStats, min_weight: float) -> tuple[SegTable, Vocabulary]:
    """Drop variants lighter than the floor (keeping at least the best one
    per word), renormalize, and rebuild the vocabulary from what survives."""
    return _prune(stats, 1, min_weight)


def merge_subwords(table: SegTable) -> tuple[SegTable, Vocabulary]:
    """Add every single-adjacent-merge of every variant, keep the originals,
    and reset per-word weights to uniform.

    A merged unit concatenates two neighbors' spellings and takes the
    word-end flag of the right member.
    """
    if table.mode is not SegMode.EXPLICIT:
        raise ValueError("merging needs an explicit table")
    new_entries: dict[str, list[tuple[UnitSeq, float]]] = {}
    units: set[Unit] = set(table.vocab)
    for word in table.words():
        variants = {us for us, _ in table.unit_variants(word)}
        for us in list(variants):
            for i in range(len(us) - 1):
                (s1, _), (s2, e2) = us[i], us[i + 1]
                merged = us[:i] + ((s1 + s2, e2),) + us[i + 2 :]
                variants.add(merged)
        ordered = sorted(variants, key=lambda us: tuple(marked(u) for u in us))
        weight = 1.0 / len(ordered)
        new_entries[word] = [(us, weight) for us in ordered]
        for us in ordered:
            units.update(us)
    vocab = Vocabulary.from_units(units)
    return _table_from_kept(new_entries, vocab), vocab


def finalize(stats: VariantStats, min_count: int,
             min_weight: float) -> tuple[SegTable, Vocabulary]:
    """Last refinement: words rarer than ``min_count`` keep only their best
    variant; everything else passes through the weight floor."""
    return _prune(stats, min_count, min_weight)


def _prune(stats: VariantStats, min_count: int,
           min_weight: float) -> tuple[SegTable, Vocabulary]:
    """Words rarer than ``min_count`` keep their best variant, the others the
    variants at or above ``min_weight`` (at least the best); the weights are
    renormalized and the vocabulary is rebuilt from what survives."""
    if not len(stats):
        raise ValueError("no alignment statistics")
    kept: dict[str, list[tuple[UnitSeq, float]]] = {}
    units: set[Unit] = set()
    for word in stats.words():
        weighted = stats.weights(word)
        if stats.word_total[word] < min_count:
            chosen = weighted[:1]
        else:
            chosen = [(v, w) for v, w in weighted if w >= min_weight] or weighted[:1]
        total = sum(w for _, w in chosen)
        kept[word] = [(v, w / total) for v, w in chosen]
        for v, _ in chosen:
            units.update(v)
    vocab = _vocab_with_chars(units, kept)
    return _table_from_kept(kept, vocab), vocab


def make_targets(aligned, table: SegTable, vocab: Vocabulary):
    """Final per-utterance unit-id targets.

    Aligned variants that were filtered out of the final table are replaced
    by the word's best surviving variant.
    """
    surviving: dict[str, set[UnitSeq]] = {}
    best: dict[str, UnitSeq] = {}
    for word in table.words():
        surviving[word] = {us for us, _ in table.unit_variants(word)}
        best[word] = tuple(vocab.unit(i) for i in table.best_variant(word))
    targets: dict[str, tuple[int, ...]] = {}
    for utt in aligned:
        ids: list[int] = []
        for word, variant in utt.word_variants:
            use = variant if variant in surviving[word] else best[word]
            ids.extend(vocab.id_of[u] for u in use)
        targets[utt.utt_id] = tuple(ids)
    return targets


@dataclass
class RunResult:
    vocab: Vocabulary
    table: SegTable
    params: EncoderParams
    targets: dict[str, tuple[int, ...]]
    metrics: list[corpus_io.MetricsRow]
    skipped: list[int]
    aligned: list[AlignedUtt]


def run_pipeline(corp: corpus_io.Corpus, entries, config: PipelineConfig,
                 outdir=None) -> RunResult:
    """init -> [train -> align -> refine -> merge]*rounds -> train -> align
    -> finalize, with a metrics row per vocabulary-changing step."""
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    prepared = prepare_entries(entries)
    vocab = build_initial_vocab(prepared, corp.words())
    table = make_initial_segtable(corp.words(), vocab)

    metrics = [corpus_io.metrics_for("init", vocab, table)]
    _dump_step(outdir, "init", vocab, table)

    factor = config.subsample
    params = None
    skipped_counts: list[int] = []
    aligned = []

    for round_no in range(config.merge_rounds + 1):
        last = round_no == config.merge_rounds
        seed = config.seed + 101 * round_no
        if params is None or not config.warm_start:
            params = init_params(_input_dim(corp), config.hidden,
                                 vocab.num_classes, factor, config.radii, seed)
        else:
            params = resize_output(params, vocab.num_classes, factor, seed)
        dataset = build_dataset(corp, vocab, table)
        graphs = expand_lattices([lat for _, lat in dataset], vocab)
        tr = train([(feats, g) for (feats, _), g in zip(dataset, graphs)], params,
                   replace(config.train, seed=seed + 1))
        log.info("round %d: trained %d epochs, final train loss %.4f",
                 round_no, len(tr.curve), tr.curve[-1][0])
        aligned, stats, skipped = align_corpus(params, dataset, config.prior_scale,
                                               vocab, graphs)
        skipped_counts.append(skipped)
        if last:
            table, vocab = finalize(stats, config.min_count, config.min_weight)
            metrics.append(corpus_io.metrics_for("final", vocab, table))
            _dump_step(outdir, "final", vocab, table)
        else:
            table, vocab = refine(stats, config.min_weight)
            metrics.append(corpus_io.metrics_for(f"refine-{round_no + 1}", vocab, table))
            _dump_step(outdir, f"refine-{round_no + 1}", vocab, table)
            table, vocab = merge_subwords(table)
            metrics.append(corpus_io.metrics_for(f"merge-{round_no + 1}", vocab, table))
            _dump_step(outdir, f"merge-{round_no + 1}", vocab, table)
            factor *= 2

    targets = make_targets(aligned, table, vocab)
    result = RunResult(vocab, table, params, targets, metrics,
                       skipped_counts, aligned)
    if outdir is not None:
        vocab.save(os.path.join(outdir, "vocab.tsv"))
        table.save(os.path.join(outdir, "segtable.tsv"))
        save_params(params, os.path.join(outdir, "params.txt"))
        rows = [(uid, [vocab.spelling(i) for i in ids])
                for uid, ids in targets.items()]
        corpus_io.write_targets(rows, os.path.join(outdir, "targets.tsv"))
        with open(os.path.join(outdir, "metrics.tsv"), "w", encoding="utf-8") as fh:
            fh.write(corpus_io.format_report(metrics))
    return result


def _input_dim(corp) -> int:
    return corp[0].features.values.shape[1]


def _dump_step(outdir, step, vocab, table) -> None:
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    vocab.save(os.path.join(outdir, f"vocab-{step}.tsv"))
    table.save(os.path.join(outdir, f"segtable-{step}.tsv"))
