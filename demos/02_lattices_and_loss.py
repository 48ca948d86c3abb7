"""
Segmentation lattices and the marginalized CTC loss
===================================================

A word's segmentation set is packed into a one-word lattice, a DAG whose
paths are exactly the allowed unit sequences.  Expanding the lattice inserts
a blank state per node and self-loops per state, giving the frame-level
graph the loss sums over.
On graphs small enough to enumerate, the dynamic program must agree with
brute force, and that is checked here side by side.
"""

import os
import sys

import numpy as np

from adsm.ctc import log_loss, sample_path, viterbi
from adsm.lattice import (build_word_dag_explicit, build_word_dag_implicit,
                          concat_utterance, ctc_expand, path_length_stats)
from adsm.vocab import Vocabulary, marked

# The brute-force oracles are test code; they live beside the tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from _reference import enumerate_label_paths, enumerate_oracle  # noqa: E402

rng = np.random.default_rng(7)

# A vocabulary over two letters with one fused unit.  The word "ab" then has
# two segmentations: a b_ and ab_.
vocab = Vocabulary.from_units(
    [("a", False), ("a", True), ("b", False), ("b", True), ("ab", True)])
print(f"units: {' '.join(marked(u) for u in vocab)}  (blank id {vocab.blank_id})")

dag = build_word_dag_implicit("ab", vocab)
print("\nimplicit DAG for 'ab':")
for ids in sorted(enumerate_label_paths(dag)):
    print("  " + " ".join(marked(vocab.unit(i)) for i in ids))
n_paths, mean_len = path_length_stats(dag)
print(f"{n_paths} paths, mean length {mean_len:.1f}")

# Utterance "ab b": one-word lattices chained, each last node fused with the
# next one's first.  The frame graph needs at least min_frames frames;
# identical adjacent unit classes would force a blank frame between them.
word2 = build_word_dag_explicit([(vocab.id("b", True),)], vocab)
lat = concat_utterance([dag, word2])
graph = ctc_expand(lat, vocab)
print(f"\nutterance 'ab b': {graph.n_states} frame states, "
      f"min {graph.min_frames} frames")

# Loss by dynamic program vs. loss by enumerating every accepted frame
# string. The occupancy rows (per-frame class posteriors) drive training.
T = 5
logp = np.log(rng.dirichlet(np.ones(vocab.num_classes), size=T))
loss, occ = log_loss(graph, logp)
oracle = enumerate_oracle(lat, logp)
print(f"\nT={T}: dynamic program loss {loss:.10f}")
print(f"      enumeration loss     {oracle.loss:.10f}")
print(f"      accepted frame strings: {len(oracle.path_probs)}")
print("occupancy row sums:", np.round(occ.sum(axis=1), 6))

# The best path under the model, and a few posterior-weighted samples.
ali = viterbi(graph, logp)
labels = [vocab.spelling(i) for i in ali.frame_labels]
print("\nviterbi frame labels:", " ".join(labels))
print("collapsed:", " ".join(vocab.spelling(i) for i in ali.collapsed))
print("spans:", ", ".join(
    f"{vocab.spelling(u)}@{a}-{b}" for u, (a, b) in zip(ali.collapsed, ali.spans)))

print("\nthree sampled alignments:")
for k in range(3):
    s = sample_path(graph, logp, rng=rng)
    print("  " + " ".join(vocab.spelling(i) for i in s.frame_labels))
