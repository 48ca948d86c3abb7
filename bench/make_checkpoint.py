#!/usr/bin/env python3
"""Regenerate ``bench/data``: the chunk prototypes and the round-0 encoder
checkpoint that the align-long workload aligns with.

    python3 bench/make_checkpoint.py

The files are committed so that align-long never trains: a change to the
loss or to training then cannot alter the model being aligned.  Running this
script again with different code may write a different checkpoint, which
changes align-long's inputs; do it only in a change of its own.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from adsm import corpus, encoder, lexicon, pipeline  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    segs = workloads.c6_word_segs()
    rng = np.random.default_rng(0)
    chunks = sorted({c for cs in segs.values() for c in cs})
    protos = {c: rng.standard_normal(10) for c in chunks}
    os.makedirs(workloads.DATA, exist_ok=True)
    with open(workloads.PROTOTYPES_FILE, "w", encoding="utf-8") as fh:
        for c in chunks:
            fh.write(c + "\t" + " ".join(repr(float(v)) for v in protos[c]) + "\n")

    # Short utterances at align-long's frame rate, from a seed no run uses.
    spec = corpus.SyntheticSpec(word_segs=segs, dim=10, frames_per_unit=6,
                                noise=0.1, n_utterances=500, min_words=2,
                                max_words=5, seed=1_000_003,
                                prototypes=workloads.load_prototypes())
    corp, _ = corpus.gen_synthetic(spec)
    entries = lexicon.prepare_entries(corpus.g2p_entries_for(spec))
    vocab = lexicon.build_initial_vocab(entries, corp.words())
    table = lexicon.make_initial_segtable(corp.words(), vocab)
    params = encoder.init_params(10, (48,), vocab.num_classes, 2, (0,), seed=0)
    config = encoder.TrainConfig(epochs=8, learning_rate=1.0, batch_size=16, seed=1)
    result = encoder.train(pipeline.build_dataset(corp, vocab, table), params,
                           config, vocab)
    encoder.save_params(params, workloads.CHECKPOINT_FILE)
    print(f"wrote {workloads.CHECKPOINT_FILE}: {params.num_classes} classes, "
          f"final losses {result.curve[-1]}")


if __name__ == "__main__":
    main()
