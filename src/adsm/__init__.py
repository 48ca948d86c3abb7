"""Acoustically driven subword vocabularies.

Learn a subword unit inventory and per-word segmentations from paired
(feature, transcription) data: seed units from a grapheme-to-phoneme
lexicon, train a frame classifier against all-segmentations lattices,
force-align to collect weighted per-word variants, filter, merge neighbors,
and finalize per-utterance target sequences.  A subword n-gram model then
segments text that has no audio at all.
"""

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
