"""Acoustically driven subword vocabularies.

Learn a subword unit inventory and per-word segmentations from paired
(feature, transcription) data: seed units from a grapheme-to-phoneme
lexicon, train a frame classifier against all-segmentations lattices,
force-align to collect weighted per-word variants, filter, merge neighbors,
and finalize per-utterance target sequences.  A subword n-gram model then
segments text that has no audio at all.

Importing the package sets glibc's allocator thresholds for the whole
process (see :func:`_keep_freed_memory`).
"""

import ctypes
import sys

from .corpus import (Corpus, FeatureMatrix, MetricsRow, SyntheticSpec,
                     Utterance, format_report, gen_synthetic, load_corpus,
                     metrics_for)
from .ctc import (Alignment, collapse, estimate_prior, log_loss, sample_path,
                  viterbi)
from .encoder import (EncoderParams, TrainConfig, encode, init_params,
                      load_params, resize_output, save_params, train)
from .errors import (AdsmError, FormatError, InfeasibleUtteranceError,
                     NumericalError)
from .lattice import (CtcGraph, UttLattice, build_word_dag_explicit,
                      build_word_dag_implicit, concat_utterance, ctc_expand,
                      expand_lattices, path_length_stats, path_stats)
from .lexicon import (G2PEntry, build_initial_vocab, make_initial_segtable,
                      merge_null_chunks, parse_g2p, prepare_entries)
from .pipeline import (AlignedUtt, PipelineConfig, RunResult, VariantStats,
                       align_corpus, finalize, make_targets, merge_subwords,
                       refine, run_pipeline)
from .textseg import (SubwordNgramLM, detokenize, segment_corpus,
                      segment_word, train_lm)
from .vocab import SegMode, SegTable, Unit, Vocabulary, marked, parse_marked

__version__ = "0.1.0"

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3     # glibc's mallopt parameter numbers


def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks for reuse rather than hand them back to
    the kernel, so the numpy temporaries of every training step and sweep
    are not faulted in again page by page.

    glibc serves each block above ``M_MMAP_THRESHOLD`` (128 KiB at start)
    with its own ``mmap``, unmapped when freed, and trims the heap top once
    more than ``M_TRIM_THRESHOLD`` of it is free.  Raising them to 32 MiB
    (the ceiling glibc's own dynamic threshold reaches on 64-bit) and
    64 MiB keeps those pages.  The setting is process-wide: it holds for
    every allocation of the process that imports adsm.  Without glibc's
    ``mallopt`` it does nothing."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()

__all__ = [
    "AdsmError", "AlignedUtt", "Alignment", "Corpus", "CtcGraph",
    "EncoderParams", "FeatureMatrix", "FormatError", "G2PEntry",
    "InfeasibleUtteranceError", "MetricsRow", "NumericalError",
    "PipelineConfig", "RunResult", "SegMode", "SegTable", "SubwordNgramLM",
    "SyntheticSpec", "TrainConfig", "Unit", "UttLattice", "Utterance",
    "VariantStats", "Vocabulary", "align_corpus", "build_initial_vocab",
    "build_word_dag_explicit", "build_word_dag_implicit", "collapse",
    "concat_utterance", "ctc_expand", "detokenize", "encode",
    "estimate_prior", "expand_lattices", "finalize",
    "format_report", "gen_synthetic", "init_params", "load_corpus",
    "load_params", "log_loss", "make_initial_segtable", "make_targets",
    "marked", "merge_null_chunks", "merge_subwords", "metrics_for",
    "parse_g2p", "parse_marked", "path_length_stats", "path_stats",
    "prepare_entries", "refine", "resize_output", "run_pipeline",
    "sample_path", "save_params", "segment_corpus", "segment_word", "train",
    "train_lm", "viterbi",
]
