"""Span tracer for the benchmark's traced run.

The tracer replaces public functions of the ``adsm`` layers at the module or
class attribute their callers look them up by, records one span per call in
memory, and puts the originals back afterwards; no file of the package
changes.  A span's self time is its duration minus that of its direct child
spans (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

# (module[:class], attribute, span name).  A function imported into several
# modules is wrapped in each, because each caller looks it up in its own.
TARGETS = [
    ("adsm.corpus", "gen_synthetic", "corpus.gen_synthetic"),
    ("adsm.corpus", "write_targets", "io.write"),
    ("adsm.lexicon", "prepare_entries", "lexicon.init"),
    ("adsm.lexicon", "build_initial_vocab", "lexicon.init"),
    ("adsm.lexicon", "make_initial_segtable", "lexicon.init"),
    ("adsm.pipeline", "prepare_entries", "lexicon.init"),
    ("adsm.pipeline", "build_initial_vocab", "lexicon.init"),
    ("adsm.pipeline", "make_initial_segtable", "lexicon.init"),
    ("adsm.vocab:SegTable", "__init__", "vocab.segtable_init"),
    ("adsm.vocab:SegTable", "save", "io.write"),
    ("adsm.vocab:Vocabulary", "save", "io.write"),
    ("adsm.pipeline", "build_dataset", "lattice.build_dataset"),
    ("adsm.encoder", "ctc_expand", "lattice.ctc_expand"),
    ("adsm.pipeline", "ctc_expand", "lattice.ctc_expand"),
    ("adsm.encoder", "log_loss", "ctc.log_loss"),
    ("adsm.pipeline", "viterbi", "ctc.viterbi"),
    ("adsm.pipeline", "estimate_prior", "ctc.estimate_prior"),
    ("adsm.encoder", "encode", "encoder.encode"),
    ("adsm.pipeline", "encode", "encoder.encode"),
    ("adsm.encoder", "utterance_grads", "encoder.utterance_grads"),
    ("adsm.pipeline", "train", "encoder.train"),
    ("adsm.pipeline", "save_params", "io.write"),
    ("adsm.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("adsm.pipeline", "align_corpus", "pipeline.align_corpus"),
    ("adsm.pipeline", "refine", "pipeline.refine"),
    ("adsm.pipeline", "merge_subwords", "pipeline.merge_subwords"),
    ("adsm.pipeline", "finalize", "pipeline.finalize"),
    ("adsm.pipeline", "make_targets", "pipeline.make_targets"),
    ("adsm.textseg", "train_lm", "textseg.train_lm"),
    ("adsm.textseg", "segment_word", "textseg.segment_word"),
]


def _cells(args, kwargs, result) -> dict:
    graph, logp = args[0], args[1]
    return {"cells": logp.shape[0] * graph.n_states}


def _train_info(args, kwargs, result) -> dict:
    """Epochs run, and those that lowered the monitored loss by train's own
    rule (holdout loss when there is a holdout split)."""
    best, improved = math.inf, 0
    for train_loss, hold_loss in result.curve:
        monitor = train_loss if math.isnan(hold_loss) else hold_loss
        if monitor < best - 1e-12:
            best, improved = monitor, improved + 1
    return {"epochs": len(result.curve), "improved": improved}


# One info dict per kind, shared by all spans: a new dict per call would
# cost tens of megabytes on segment-text.
_KINDS = {k: {"kind": k} for k in ("seen", "unseen", "sample")}


def _segment_kind(args, kwargs, result) -> dict:
    word, table = args[0], args[1]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "best")
    return _KINDS["unseen" if word not in table else ("seen" if mode == "best" else "sample")]


INFO = {
    "ctc.log_loss": _cells,
    "ctc.viterbi": _cells,
    "lattice.ctc_expand": lambda a, k, r: {"states": r.n_states},
    "encoder.train": _train_info,
    "pipeline.align_corpus": lambda a, k, r: {"skipped": r[2]},
    "textseg.segment_word": _segment_kind,
}


class Tracer:
    """Records spans ``[name, start, end, parent index, info]`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target the package still defines; a function removed
        from the package leaves its metrics at 0."""
        for where, attr, name in TARGETS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                continue
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return traced


# (metric, unit, better) in the order BENCHMARK.json lists them.  ``.s`` is
# self seconds, ``.calls`` and ``.cells`` are counts.
PER_LAYER = [
    ("corpus.gen_synthetic.s", "s", "lower"),
    ("lexicon.init.s", "s", "lower"),
    ("vocab.segtable_init.calls", "count", "lower"),
    ("vocab.segtable_init.s", "s", "lower"),
    ("lattice.build_dataset.s", "s", "lower"),
    ("lattice.ctc_expand.calls", "count", "lower"),
    ("lattice.ctc_expand.s", "s", "lower"),
    ("lattice.states_mean", "count", "lower"),
    ("ctc.log_loss.calls", "count", "lower"),
    ("ctc.log_loss.s", "s", "lower"),
    ("ctc.log_loss.cells", "count", "lower"),
    ("ctc.log_loss.ns_per_cell", "ns", "lower"),
    ("ctc.log_loss.holdout_s", "s", "lower"),
    ("ctc.viterbi.calls", "count", "lower"),
    ("ctc.viterbi.s", "s", "lower"),
    ("ctc.viterbi.cells", "count", "lower"),
    ("ctc.viterbi.ns_per_cell", "ns", "lower"),
    ("ctc.estimate_prior.s", "s", "lower"),
    ("encoder.encode.calls", "count", "lower"),
    ("encoder.encode.s", "s", "lower"),
    ("encoder.utterance_grads.self_s", "s", "lower"),
    ("encoder.train.s", "s", "lower"),
    ("encoder.train.epochs", "count", "lower"),
    ("encoder.train.improved_epochs", "count", "higher"),
    ("encoder.train.improved_frac", "ratio", "higher"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.align_corpus.self_s", "s", "lower"),
    ("pipeline.refine.s", "s", "lower"),
    ("pipeline.merge_subwords.s", "s", "lower"),
    ("pipeline.finalize.s", "s", "lower"),
    ("pipeline.make_targets.s", "s", "lower"),
    ("pipeline.skipped_utts", "count", "lower"),
    ("io.write.s", "s", "lower"),
    ("textseg.train_lm.s", "s", "lower"),
    ("textseg.segment_word.seen_s", "s", "lower"),
    ("textseg.segment_word.unseen_s", "s", "lower"),
    ("textseg.segment_word.unseen_calls", "count", "lower"),
    ("textseg.segment_word.sample_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one phase (a pass or a set-up) from its spans.

    A layer that did not run reads 0, and so does a ratio with a zero base.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent, info) in enumerate(spans):
        own = end - start - child_s[i]
        key = name
        if name == "textseg.segment_word":
            key = f"{name}.{info['kind']}"
        if name == "ctc.log_loss" and (parent < 0 or spans[parent][0] != "encoder.utterance_grads"):
            self_s["ctc.log_loss.holdout"] = self_s.get("ctc.log_loss.holdout", 0.0) + own
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + own
        for field, value in (info or {}).items():
            if field != "kind":
                sums[f"{name}.{field}"] = sums.get(f"{name}.{field}", 0.0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "corpus.gen_synthetic.s": self_s.get("corpus.gen_synthetic", 0.0),
        "lexicon.init.s": self_s.get("lexicon.init", 0.0),
        "vocab.segtable_init.calls": calls.get("vocab.segtable_init", 0),
        "vocab.segtable_init.s": self_s.get("vocab.segtable_init", 0.0),
        "lattice.build_dataset.s": self_s.get("lattice.build_dataset", 0.0),
        "lattice.ctc_expand.calls": calls.get("lattice.ctc_expand", 0),
        "lattice.ctc_expand.s": self_s.get("lattice.ctc_expand", 0.0),
        "lattice.states_mean": ratio(sums.get("lattice.ctc_expand.states", 0),
                                     calls.get("lattice.ctc_expand", 0)),
        "ctc.log_loss.holdout_s": self_s.get("ctc.log_loss.holdout", 0.0),
        "ctc.estimate_prior.s": self_s.get("ctc.estimate_prior", 0.0),
        "encoder.encode.calls": calls.get("encoder.encode", 0),
        "encoder.encode.s": self_s.get("encoder.encode", 0.0),
        "encoder.utterance_grads.self_s": self_s.get("encoder.utterance_grads", 0.0),
        "encoder.train.s": self_s.get("encoder.train", 0.0),
        "encoder.train.epochs": sums.get("encoder.train.epochs", 0),
        "encoder.train.improved_epochs": sums.get("encoder.train.improved", 0),
        "encoder.train.improved_frac": ratio(sums.get("encoder.train.improved", 0),
                                             sums.get("encoder.train.epochs", 0)),
        "pipeline.run_pipeline.self_s": self_s.get("pipeline.run_pipeline", 0.0),
        "pipeline.align_corpus.self_s": self_s.get("pipeline.align_corpus", 0.0),
        "pipeline.refine.s": self_s.get("pipeline.refine", 0.0),
        "pipeline.merge_subwords.s": self_s.get("pipeline.merge_subwords", 0.0),
        "pipeline.finalize.s": self_s.get("pipeline.finalize", 0.0),
        "pipeline.make_targets.s": self_s.get("pipeline.make_targets", 0.0),
        "pipeline.skipped_utts": sums.get("pipeline.align_corpus.skipped", 0),
        "io.write.s": self_s.get("io.write", 0.0),
        "textseg.train_lm.s": self_s.get("textseg.train_lm", 0.0),
        "textseg.segment_word.seen_s": self_s.get("textseg.segment_word.seen", 0.0),
        "textseg.segment_word.unseen_s": self_s.get("textseg.segment_word.unseen", 0.0),
        "textseg.segment_word.unseen_calls": calls.get("textseg.segment_word.unseen", 0),
        "textseg.segment_word.sample_s": self_s.get("textseg.segment_word.sample", 0.0),
    }
    for layer in ("ctc.log_loss", "ctc.viterbi"):
        s, cells = self_s.get(layer, 0.0), sums.get(f"{layer}.cells", 0)
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.s"] = s
        m[f"{layer}.cells"] = cells
        m[f"{layer}.ns_per_cell"] = ratio(s * 1e9, cells)
    return m


def median_metrics(phases: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over phases (at least one)."""
    return {k: statistics.median(p[k] for p in phases) for k in phases[0]}


def write_spans(path: str, phases: list[tuple[str, list[list]]]) -> None:
    """One TSV row per span: phase, name, start, end, parent index, info."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase\tname\tstart_s\tend_s\tparent\tinfo\n")
        for phase, spans in phases:
            for name, start, end, parent, info in spans:
                fh.write(f"{phase}\t{name}\t{start!r}\t{end!r}\t{parent}\t{info or ''}\n")
