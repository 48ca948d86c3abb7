"""Command-line driver.

Every subcommand reads and writes the documented text formats.  ``--config``
names a ``key=value`` file supplying defaults; explicit flags win.  Exit
codes: 0 success, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys

from . import corpus as corpus_io
from .encoder import TrainConfig, init_params, load_params, save_params, train
from .errors import FormatError, NumericalError, located, read_rows
from .lexicon import (build_initial_vocab, make_initial_segtable, parse_g2p,
                      prepare_entries)
from .pipeline import (PipelineConfig, VariantStats, align_corpus,
                       build_dataset, finalize, merge_subwords, refine,
                       run_pipeline)
from .textseg import SubwordNgramLM, segment_corpus, train_lm
from .vocab import SegTable, Vocabulary, marked

log = logging.getLogger(__name__)

_DEFAULTS = PipelineConfig()
_TRAIN_FLAGS = {"lr": "learning_rate", "decay": "decay", "epochs": "epochs",
                "batch": "batch_size", "seed": "seed", "holdout": "holdout_fraction"}
_SYNTHETIC_FLAGS = {"dim": "dim", "frames_per_unit": "frames_per_unit", "noise": "noise",
                    "utterances": "n_utterances", "min_words": "min_words",
                    "max_words": "max_words", "seed": "seed"}


def _read_config(path, keys) -> dict[str, str]:
    """``key=value`` lines, each key (``-`` read as ``_``) one of ``keys`` and
    set once; blank lines and lines starting with ``#`` are skipped."""
    out = {}
    for lineno, parts in read_rows(path, sep="="):
        with located(path, lineno):
            if len(parts) < 2:
                raise ValueError("expected key=value")
            key = parts[0].strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"unknown key {key!r}")
            if key in out:
                raise ValueError(f"repeated key {key!r}")
            out[key] = "=".join(parts[1:]).strip()
    return out


class _Args:
    """Flag values with config-file fallback and typed defaults."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        keys = set(vars(ns)) - {"command", "config", "func"}
        self.config = _read_config(ns.config, keys) if getattr(ns, "config", None) else {}

    def get(self, key, default, cast=str):
        value = getattr(self.ns, key, None)
        if value is not None:
            return value
        if key in self.config:
            return cast(self.config[key])
        return default

    def require(self, key):
        value = self.get(key, None)
        if value is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return value


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


def _load_corpus(a: _Args):
    return corpus_io.load_corpus(a.require("features"), a.require("transcripts"))


def _load_table(a: _Args):
    vocab = Vocabulary.load(a.require("vocab"))
    table = SegTable.load(a.require("segtable"), vocab)
    return vocab, table


def _setting(a: _Args, key: str, config=_DEFAULTS, field: str | None = None):
    """Option ``key``, defaulting to the attribute ``field`` (``key`` itself by
    default) of a dataclass or its instance, so the CLI's defaults are those
    of the library."""
    default = getattr(config, field or key)
    return a.get(key, default, _int_tuple if isinstance(default, tuple) else type(default))


def _settings(a: _Args, func, keys) -> dict:
    """Options ``keys``, defaulting to the keyword defaults of ``func``."""
    defaults = {key: p.default for key, p in inspect.signature(func).parameters.items()}
    return {key: a.get(key, defaults[key], type(defaults[key])) for key in keys}


def _train_config(a: _Args) -> TrainConfig:
    return TrainConfig(**{field: _setting(a, flag, _DEFAULTS.train, field)
                          for flag, field in _TRAIN_FLAGS.items()})


def cmd_init(a: _Args) -> int:
    entries = prepare_entries(parse_g2p(a.require("g2p")))
    words: list[str] = []
    if a.get("transcripts", None):
        trans = corpus_io.read_transcripts(a.get("transcripts", None))
        words = sorted({w for ws in trans.values() for w in ws})
    else:
        words = sorted({e.word for e in entries})
    vocab = build_initial_vocab(entries, words)
    table = make_initial_segtable(words, vocab)
    vocab.save(a.require("out_vocab"))
    table.save(a.require("out_segtable"))
    print(f"vocabulary: {len(vocab)} units, table: {len(table)} words")
    return 0


def cmd_train(a: _Args) -> int:
    corp = _load_corpus(a)
    vocab, table = _load_table(a)
    dataset = build_dataset(corp, vocab, table)
    dim = corp[0].features.values.shape[1]
    params = init_params(dim, _setting(a, "hidden"), vocab.num_classes,
                         _setting(a, "subsample"), _setting(a, "radii"), _setting(a, "seed"))
    result = train(dataset, params, _train_config(a), vocab)
    save_params(params, a.require("out_params"))
    for epoch, (tr, ho) in enumerate(result.curve):
        print(f"epoch {epoch}\ttrain {tr:.6f}\tholdout {ho:.6f}")
    if result.skipped:
        print(f"skipped {result.skipped} infeasible utterances", file=sys.stderr)
    return 0


def cmd_align(a: _Args) -> int:
    corp = _load_corpus(a)
    vocab, table = _load_table(a)
    params = load_params(a.require("params"))
    dataset = build_dataset(corp, vocab, table)
    aligned, stats, skipped = align_corpus(params, dataset,
                                           _setting(a, "prior_scale"), vocab)
    stats.save(a.require("out_stats"))
    out_ali = a.get("out_alignments", None)
    if out_ali:
        rows = [(u.utt_id, [marked(unit) for _, var in u.word_variants for unit in var])
                for u in aligned]
        corpus_io.write_targets(rows, out_ali)
    print(f"aligned {len(aligned)} utterances, skipped {skipped}")
    return 0


def cmd_refine(a: _Args) -> int:
    stats = VariantStats.load(a.require("stats"))
    table, vocab = refine(stats, _setting(a, "min_weight"))
    vocab.save(a.require("out_vocab"))
    table.save(a.require("out_segtable"))
    print(f"kept {sum(len(v) for v in table.entries.values())} variants, "
          f"{len(vocab)} units")
    return 0


def cmd_merge(a: _Args) -> int:
    _, table = _load_table(a)
    table, vocab = merge_subwords(table)
    vocab.save(a.require("out_vocab"))
    table.save(a.require("out_segtable"))
    print(f"enlarged to {sum(len(v) for v in table.entries.values())} variants, "
          f"{len(vocab)} units")
    return 0


def cmd_finalize(a: _Args) -> int:
    stats = VariantStats.load(a.require("stats"))
    table, vocab = finalize(stats, _setting(a, "min_count"), _setting(a, "min_weight"))
    vocab.save(a.require("out_vocab"))
    table.save(a.require("out_segtable"))
    print(f"final table: {len(table)} words, {len(vocab)} units")
    return 0


def cmd_run(a: _Args) -> int:
    corp = _load_corpus(a)
    entries = parse_g2p(a.require("g2p"))
    config = PipelineConfig(train=_train_config(a), **{key: _setting(a, key) for key in (
        "prior_scale", "min_weight", "min_count", "merge_rounds", "subsample", "hidden",
        "radii", "seed")})
    result = run_pipeline(corp, entries, config, a.require("outdir"))
    sys.stdout.write(corpus_io.format_report(result.metrics))
    return 0


def cmd_segment_text(a: _Args) -> int:
    vocab, table = _load_table(a)
    lm_path = a.get("lm", None)
    if lm_path:
        lm = SubwordNgramLM.load(lm_path)
    else:
        lm = train_lm(table, **_settings(a, train_lm, ("order", "add_k")))
    out_lm = a.get("out_lm", None)
    if out_lm:
        lm.save(out_lm)
    inp = a.get("input", None)
    if inp:
        with open(inp, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    segmented = segment_corpus(lines, table, lm, **_settings(a, segment_corpus, ("mode", "seed")))
    out = a.get("output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(segmented) + ("\n" if segmented else ""))
    else:
        for line in segmented:
            print(line)
    return 0


def _read_seg_lexicon(path) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for lineno, (word, chunks) in read_rows(path, fields=("word", "chunks")):
        with located(path, lineno):
            if word in out:
                raise ValueError(f"repeated word {word!r}")
            out[word] = tuple(chunks.split())
            if not out[word]:
                raise ValueError("expected word<TAB>chunk chunk ...")
    return out


def cmd_gen_synthetic(a: _Args) -> int:
    spec = corpus_io.SyntheticSpec(
        word_segs=_read_seg_lexicon(a.require("lexicon")),
        **{field: _setting(a, flag, corpus_io.SyntheticSpec, field)
           for flag, field in _SYNTHETIC_FLAGS.items()})
    corp, truth = corpus_io.gen_synthetic(spec)
    outdir = a.require("outdir")
    os.makedirs(outdir, exist_ok=True)
    corpus_io.write_features((u.features for u in corp),
                             os.path.join(outdir, "features.tsv"))
    corpus_io.write_transcripts(((u.utt_id, u.words) for u in corp),
                                os.path.join(outdir, "transcripts.tsv"))
    corpus_io.write_targets(((uid, [marked(u) for u in units])
                             for uid, units in truth.items()),
                            os.path.join(outdir, "truth.tsv"))
    g2p_path = os.path.join(outdir, "g2p.tsv")
    with open(g2p_path, "w", encoding="utf-8") as fh:
        fh.write("#adsm-g2p-v1\n")
        for entry in corpus_io.g2p_entries_for(spec):
            pairs = " ".join(f"{g}}}{p}" for g, p in entry.pairs)
            fh.write(f"{entry.word}\t{pairs}\n")
    print(f"wrote {len(corp)} utterances to {outdir}")
    return 0


def cmd_report(a: _Args) -> int:
    vocab, table = _load_table(a)
    counts = None
    if a.get("token_level", False):
        trans = corpus_io.read_transcripts(a.require("transcripts"))
        from collections import Counter
        counts = Counter(w for ws in trans.values() for w in ws)
    row = corpus_io.metrics_for(a.get("step", "report"), vocab, table, counts)
    sys.stdout.write(corpus_io.format_report([row]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsm",
        description="Learn subword vocabularies from acoustic alignments and "
                    "segment text with them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value defaults file")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    path = {"type": str}
    num = {"type": float}
    count = {"type": int}

    add("init", cmd_init, [
        ("--g2p", path), ("--transcripts", path),
        ("--out-vocab", path), ("--out-segtable", path)])
    add("train", cmd_train, [
        ("--features", path), ("--transcripts", path),
        ("--vocab", path), ("--segtable", path), ("--out-params", path),
        ("--subsample", count), ("--hidden", {"type": _int_tuple}),
        ("--radii", {"type": _int_tuple}), ("--lr", num), ("--decay", num),
        ("--epochs", count), ("--batch", count), ("--holdout", num),
        ("--seed", count)])
    add("align", cmd_align, [
        ("--features", path), ("--transcripts", path),
        ("--vocab", path), ("--segtable", path), ("--params", path),
        ("--lambda", {"type": float, "dest": "prior_scale"}),
        ("--out-stats", path), ("--out-alignments", path)])
    add("refine", cmd_refine, [
        ("--stats", path), ("--mu", {"type": float, "dest": "min_weight"}),
        ("--out-vocab", path), ("--out-segtable", path)])
    add("merge", cmd_merge, [
        ("--vocab", path), ("--segtable", path),
        ("--out-vocab", path), ("--out-segtable", path)])
    add("finalize", cmd_finalize, [
        ("--stats", path), ("--k", {"type": int, "dest": "min_count"}),
        ("--mu", {"type": float, "dest": "min_weight"}),
        ("--out-vocab", path), ("--out-segtable", path)])
    add("run", cmd_run, [
        ("--g2p", path), ("--features", path), ("--transcripts", path),
        ("--outdir", path),
        ("--lambda", {"type": float, "dest": "prior_scale"}),
        ("--mu", {"type": float, "dest": "min_weight"}),
        ("--k", {"type": int, "dest": "min_count"}),
        ("--merge-rounds", count), ("--subsample", count),
        ("--hidden", {"type": _int_tuple}), ("--radii", {"type": _int_tuple}),
        ("--lr", num), ("--decay", num), ("--epochs", count),
        ("--batch", count), ("--holdout", num), ("--seed", count)])
    add("segment-text", cmd_segment_text, [
        ("--vocab", path), ("--segtable", path), ("--lm", path),
        ("--out-lm", path), ("--input", path), ("--output", path),
        ("--mode", {"choices": ["best", "sample"]}),
        ("--order", count), ("--add-k", num), ("--seed", count)])
    add("gen-synthetic", cmd_gen_synthetic, [
        ("--lexicon", path), ("--outdir", path), ("--dim", count),
        ("--frames-per-unit", count), ("--noise", num),
        ("--utterances", count), ("--min-words", count),
        ("--max-words", count), ("--seed", count)])
    add("report", cmd_report, [
        ("--vocab", path), ("--segtable", path), ("--step", path),
        ("--token-level", {"action": "store_true", "default": None}),
        ("--transcripts", path)])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(_Args(ns))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
