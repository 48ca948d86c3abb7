"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the output checks whose failures count into the result's ``failed``.

Every call into ``adsm`` goes through a module attribute (``pipeline.run_pipeline``,
``textseg.segment_corpus``, ...) so that the traced run sees it.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

from adsm import corpus, encoder, lexicon, pipeline, textseg
from adsm.vocab import SegTable, marked, parse_marked

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
OUT = os.path.join(HERE, "out")

PROTOTYPES_FILE = os.path.join(DATA, "prototypes.tsv")
CHECKPOINT_FILE = os.path.join(DATA, "encoder-round0.txt")

# Artifact list byte-compared by acceptance criterion 9.
C9_STEPS = ("init", "refine-1", "merge-1", "final")
C9_FILES = (["vocab.tsv", "segtable.tsv", "targets.tsv", "metrics.tsv"]
            + [f"{kind}-{step}.tsv" for step in C9_STEPS for kind in ("vocab", "segtable")])


def c6_word_segs() -> dict[str, tuple[str, ...]]:
    """The 50 words of the acceptance suite's toy corpus and their chunks.

    Internal chunks start with b/c/d/f, final chunks with g/h/k, and five
    single-chunk words own the l-initial chunks.
    """
    internals = [c + v for c in "bcdf" for v in "aeiou"]
    finals = [c + v for c in "ghk" for v in "aeiou"]
    segs = {}
    for i in range(20):
        segs[internals[i] + finals[i % 15]] = (internals[i], finals[i % 15])
    for i in range(25):
        a, b, f = internals[i % 20], internals[(i + 7) % 20], finals[(i + 3) % 15]
        segs[a + b + f] = (a, b, f)
    for s in ("la", "le", "li", "lo", "lu"):
        segs[s] = (s,)
    return segs


def word_units(chunks) -> tuple:
    """Generating unit sequence of one word: word-end flag on the last chunk."""
    return tuple((c, j == len(chunks) - 1) for j, c in enumerate(chunks))


def load_prototypes(path: str = PROTOTYPES_FILE) -> dict[str, np.ndarray]:
    protos = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            chunk, values = line.rstrip("\n").split("\t")
            protos[chunk] = np.array([float(v) for v in values.split()])
    return protos


class Checks:
    """Counts operations and failed ones; keeps a note per failing check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def count(self, total: int, bad: int, what: str) -> None:
        self.attempted += total
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} of {total} failed")

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


@dataclass
class Work:
    """What one timed pass processes, for the throughput metrics."""

    frames: int
    words: int


# --------------------------------------------------------------------------
# toy-pipeline: the whole paper loop on the acceptance suite's C6 setup.


@dataclass
class ToyState:
    corp: corpus.Corpus
    truth: dict
    entries: list
    config: pipeline.PipelineConfig
    passes: int = 0
    fingerprint: str | None = None


class ToyPipeline:
    """``run_pipeline`` with an output directory on the C6 corpus.

    The corpus is the acceptance suite's (spec seed 0) whatever the workload
    seed: at other corpus or model seeds this configuration, with 4 frames
    per unit at subsample 4 and few epochs, skips utterances in round 1 and
    misses the 0.9 target accuracy (see README.md).
    """

    name = "toy-pipeline"
    min_passes = 2                   # the determinism check compares passes
    epochs = 2                       # per round

    def __init__(self, size: str):
        self.n_utterances = {"full": 500, "tiny": 150}[size]

    def setup(self, seed: int) -> ToyState:
        spec = corpus.SyntheticSpec(word_segs=c6_word_segs(), dim=10,
                                    frames_per_unit=4, noise=0.1,
                                    n_utterances=self.n_utterances,
                                    min_words=2, max_words=5, seed=0)
        corp, truth = corpus.gen_synthetic(spec)
        config = pipeline.PipelineConfig(
            merge_rounds=1, subsample=2, hidden=(48,), radii=(0,),
            train=encoder.TrainConfig(epochs=self.epochs, learning_rate=1.0,
                                      batch_size=16),
            seed=0)
        return ToyState(corp, truth, corpus.g2p_entries_for(spec), config)

    def warmup(self, st: ToyState) -> None:
        small = corpus.Corpus(st.corp.utterances[:40])
        config = replace(st.config, train=replace(st.config.train, epochs=1))
        pipeline.run_pipeline(small, st.entries, config)

    def work(self, st: ToyState) -> Work:
        return Work(sum(u.features.values.shape[0] for u in st.corp),
                    sum(len(u.words) for u in st.corp))

    def run(self, st: ToyState):
        st.passes += 1
        outdir = os.path.join(OUT, self.name, f"pass{st.passes}")
        shutil.rmtree(outdir, ignore_errors=True)
        return pipeline.run_pipeline(st.corp, st.entries, st.config, outdir), outdir

    def check(self, st: ToyState, output, checks: Checks) -> float:
        res, outdir = output
        n = len(st.corp)
        for round_no, skipped in enumerate(res.skipped):
            checks.count(n, skipped, f"round {round_no} alignment skipped utterances")
        hits = bad = 0
        for utt in st.corp:
            ids = res.targets.get(utt.utt_id)
            if ids is None:
                bad += 1
                continue
            line = " ".join(res.vocab.spelling(i) for i in ids)
            bad += textseg.detokenize(line) != " ".join(utt.words)
            hits += (tuple(res.vocab.spelling(i) for i in ids)
                     == tuple(marked(u) for u in st.truth[utt.utt_id]))
        checks.count(n, bad, "targets missing or not detokenizing to the transcription")
        acc = hits / n
        by_step = {m.step: m for m in res.metrics}
        checks.check(by_step["refine-1"].avg_variants < by_step["init"].avg_variants,
                     "C6: refine-1 has fewer variants per word than init")
        checks.check(by_step["merge-1"].vocab_size > by_step["refine-1"].vocab_size,
                     "C6: merge-1 grows the vocabulary")
        checks.check(by_step["final"].avg_variants < 1.5,
                     "C6: final table averages under 1.5 variants per word")
        checks.check(acc >= 0.9, f"C6: target accuracy {acc:.3f} >= 0.9")
        fp = fingerprint(outdir, res)
        shutil.rmtree(outdir, ignore_errors=True)
        if st.fingerprint is None:
            st.fingerprint = fp
        else:
            checks.check(fp == st.fingerprint, "C9: passes of one seed give identical artifacts")
        return acc

    def finish(self, st: ToyState, checks: Checks) -> dict:
        return {"fingerprint": st.fingerprint}


def fingerprint(outdir: str, res) -> str:
    """sha256 over the C9 artifact files, the metrics rows and the final
    vocabulary size."""
    h = hashlib.sha256()
    for name in C9_FILES:
        h.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    h.update(corpus.format_report(res.metrics).encode())
    h.update(str(len(res.vocab)).encode())
    return h.hexdigest()


# --------------------------------------------------------------------------
# align-long: one Viterbi alignment pass over long utterances.


@dataclass
class AlignState:
    spec: corpus.SyntheticSpec
    corp: corpus.Corpus
    vocab: object
    params: encoder.EncoderParams
    dataset: list
    first: tuple | None = None


class AlignLong:
    """``align_corpus`` at subsample 2 over implicit all-splits lattices.

    The encoder comes from a committed checkpoint and the chunk prototypes
    from a committed file, so the seed varies only the utterances and no
    change to training alters the model being aligned.
    """

    name = "align-long"
    min_passes = 2                   # repeated passes must give identical stats
    prior_scale = 0.3

    def __init__(self, size: str):
        self.n_utterances = {"full": 500, "tiny": 40}[size]

    def setup(self, seed: int) -> AlignState:
        spec = corpus.SyntheticSpec(word_segs=c6_word_segs(), dim=10,
                                    frames_per_unit=6, noise=0.1,
                                    n_utterances=self.n_utterances,
                                    min_words=6, max_words=10, seed=seed,
                                    prototypes=load_prototypes())
        corp, _ = corpus.gen_synthetic(spec)
        params = encoder.load_params(CHECKPOINT_FILE)
        entries = lexicon.prepare_entries(corpus.g2p_entries_for(spec))
        vocab = lexicon.build_initial_vocab(entries, corp.words())
        if vocab.num_classes != params.num_classes:
            raise ValueError(f"checkpoint has {params.num_classes} classes, "
                             f"the init vocabulary {vocab.num_classes}")
        table = lexicon.make_initial_segtable(corp.words(), vocab)
        dataset = pipeline.build_dataset(corp, vocab, table)
        return AlignState(spec, corp, vocab, params, dataset)

    def warmup(self, st: AlignState) -> None:
        pipeline.align_corpus(st.params, st.dataset[:20], self.prior_scale, st.vocab)

    def work(self, st: AlignState) -> Work:
        factor = st.params.subsample_factor
        return Work(sum(encoder.subsampled_length(u.features.values.shape[0], factor)
                        for u in st.corp),
                    sum(len(u.words) for u in st.corp))

    def run(self, st: AlignState):
        return pipeline.align_corpus(st.params, st.dataset, self.prior_scale, st.vocab)

    def check(self, st: AlignState, output, checks: Checks) -> float:
        aligned, stats, skipped = output
        checks.count(len(st.corp), skipped, "utterances skipped as infeasible")
        n_words = hits = bad = 0
        for utt in aligned:
            for word, variant in utt.word_variants:
                n_words += 1
                bad += "".join(s for s, _ in variant) != word
                hits += variant == word_units(st.spec.word_segs[word])
        checks.count(n_words, bad, "word variants not spelling their word")
        key = (aligned, stats.counts, skipped)
        if st.first is None:
            st.first = key
        else:
            checks.check(key == st.first, "repeated passes give identical alignments and stats")
        return hits / max(n_words, 1)

    def finish(self, st: AlignState, checks: Checks) -> dict:
        return {}


# --------------------------------------------------------------------------
# segment-text: the user-facing text segmenter, no acoustics involved.


@dataclass
class SegState:
    lines: list[str]
    truth: dict                      # word -> generating marked tokens
    unseen: list[str]
    table: SegTable
    vocab: object
    lm: object = None


class SegmentText:
    """``train_lm`` plus ``segment_corpus`` in ``best`` and ``sample`` mode.

    Lines mix the C6 words with unseen compositions of their chunks; the
    unseen share sets how much time goes to the segmentation DP.  The table
    comes from the generating segmentation of the seen words, without audio.
    """

    name = "segment-text"
    min_passes = 1
    unseen_share = 0.5
    words_per_line = 8
    dp_sample = 40                   # unseen words checked against exhaustive search

    def __init__(self, size: str):
        self.n_lines = {"full": 2500, "tiny": 100}[size]
        self.n_unseen_types = {"full": 300, "tiny": 40}[size]

    def setup(self, seed: int) -> SegState:
        rng = np.random.default_rng(seed)
        segs = c6_word_segs()
        seen = sorted(segs)
        internals = sorted({c for ch in segs.values() if len(ch) > 1 for c in ch[:-1]})
        finals = sorted({ch[-1] for ch in segs.values() if len(ch) > 1})
        unseen_segs: dict[str, tuple[str, ...]] = {}
        while len(unseen_segs) < self.n_unseen_types:
            n_internal = int(rng.integers(1, 3))
            chunks = tuple(internals[int(i)] for i in rng.integers(len(internals), size=n_internal))
            chunks += (finals[int(rng.integers(len(finals)))],)
            word = "".join(chunks)
            if word not in segs:
                unseen_segs[word] = chunks
        unseen = sorted(unseen_segs)
        stats = pipeline.VariantStats()
        lines = []
        for _ in range(self.n_lines):
            words = []
            for _ in range(self.words_per_line):
                if rng.random() < self.unseen_share:
                    words.append(unseen[int(rng.integers(len(unseen)))])
                else:
                    word = seen[int(rng.integers(len(seen)))]
                    stats.add(word, word_units(segs[word]))
                    words.append(word)
            lines.append(" ".join(words))
        table, vocab = pipeline.finalize(stats, 20, 0.05)
        truth = {w: tuple(marked(u) for u in word_units(c))
                 for w, c in itertools.chain(segs.items(), unseen_segs.items())}
        return SegState(lines, truth, unseen, table, vocab)

    def warmup(self, st: SegState) -> None:
        lm = textseg.train_lm(st.table)
        textseg.segment_corpus(st.lines[:20], st.table, lm, mode="best")

    def work(self, st: SegState) -> Work:
        words = sum(len(line.split()) for line in st.lines)
        chars = sum(len(line.replace(" ", "")) for line in st.lines)
        return Work(2 * chars, 2 * words)       # both modes segment every line

    def run(self, st: SegState):
        st.lm = textseg.train_lm(st.table)
        best = textseg.segment_corpus(st.lines, st.table, st.lm, mode="best", seed=1)
        sample = textseg.segment_corpus(st.lines, st.table, st.lm, mode="sample", seed=1)
        return best, sample

    def check(self, st: SegState, output, checks: Checks) -> float:
        best, sample = output
        for mode, segged in (("best", best), ("sample", sample)):
            bad = sum(textseg.detokenize(s) != line for s, line in zip(segged, st.lines))
            checks.count(len(st.lines), bad + abs(len(segged) - len(st.lines)),
                         f"{mode}-mode lines not round-tripping through detokenize")
        words = hits = 0
        for segged, line in zip(best, st.lines):
            per_word, current = [], []
            for tok in segged.split():
                current.append(tok)
                if parse_marked(tok)[1]:
                    per_word.append(tuple(current))
                    current = []
            for word, toks in zip(line.split(), per_word):
                hits += toks == st.truth[word]
            words += len(line.split())
        return hits / words

    def finish(self, st: SegState, checks: Checks) -> dict:
        """C8 on a fixed sample: the DP equals the exhaustive argmax."""
        vocab, lm = st.vocab, st.lm
        bare = SegTable.explicit({}, vocab)          # forces the DP for every word
        spellings = {s for s, _ in vocab}
        sample = [w for w in st.unseen if len(w) <= 6][: self.dp_sample]
        bad = 0
        for word in sample:
            best = None
            for pieces in _segmentations(word, spellings):
                units = word_units(pieces)
                if all(u in vocab for u in units):
                    toks = tuple(marked(u) for u in units)
                    cand = (lm.score(toks), len(units), toks, units)
                    if best is None or cand[0] > best[0] or (
                            cand[0] == best[0] and cand[1:3] < best[1:3]):
                        best = cand
            bad += best is None or textseg.segment_word(word, bare, lm) != best[3]
        checks.count(len(sample), bad, "C8: DP differs from the exhaustive argmax")
        return {}


def _segmentations(word: str, spellings) -> list[tuple[str, ...]]:
    """Every split of ``word`` into pieces from ``spellings``, by recursion."""
    out = []

    def walk(pos, acc):
        if pos == len(word):
            out.append(tuple(acc))
            return
        for end in range(pos + 1, len(word) + 1):
            if word[pos:end] in spellings:
                walk(end, acc + [word[pos:end]])

    walk(0, [])
    return out


WORKLOADS = {w.name: w for w in (ToyPipeline, AlignLong, SegmentText)}
