"""
From a pronunciation lexicon to an initial subword vocabulary
=============================================================

A grapheme-to-phoneme lexicon seeds the unit inventory.  Each aligned
grapheme chunk becomes a candidate subword; chunks that align to phonemes
without consuming any letters are merged into a lettered neighbor first.
Single characters are force-added (with and without the word-end marker)
so every word over the alphabet stays spellable, and the starting
segmentation set of a word is "every split over the vocabulary".
"""

import os
import sys
import tempfile

from adsm.lattice import build_word_dag_implicit
from adsm.lexicon import (build_initial_vocab, make_initial_segtable,
                          merge_null_chunks, parse_g2p, prepare_entries)
from adsm.corpus import metrics_for
from adsm.vocab import marked

# Listing every path of a DAG is test code; it lives beside the tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from _reference import enumerate_label_paths  # noqa: E402

# A tiny lexicon in the g}p pair notation: the left side of each pair is a
# grapheme chunk, the right side the phoneme it aligned to, with "_" for
# chunks the aligner mapped to no sound at all.  "ace" shows such a null
# chunk: the silent e must be merged into a sounded neighbor before use.
LEXICON = """#adsm-g2p-v1
cab\tc}k a}ae b}b
cob\tc}k o}aa b}b
ace\ta}ey c}s e}_
"""

with tempfile.TemporaryDirectory(prefix="adsm-demo-") as workdir:
    g2p_path = os.path.join(workdir, "lexicon.tsv")
    with open(g2p_path, "w", encoding="utf-8") as fh:
        fh.write(LEXICON)
    entries = parse_g2p(g2p_path)

print("parsed entries:")
for e in entries:
    print(f"  {e.word}: " + " ".join(f"{g}}}{p or '_'}" for g, p in e.pairs))

# The silent e of "ace" disappears into its left neighbor: c}s + e}_
# becomes ce}s, keeping the chunking a partition of the spelling.
ace = merge_null_chunks(next(e for e in entries if e.word == "ace"))
print("\nafter null-chunk merging, ace ->",
      " ".join(f"{g}}}{p}" for g, p in ace.pairs))

# Chunks from every word, final chunks additionally in word-end form, and
# all single characters in both forms.
entries = prepare_entries(entries)
words = sorted(e.word for e in entries)
vocab = build_initial_vocab(entries, words)
print(f"\ninitial vocabulary ({len(vocab)} units):")
print("  " + " ".join(marked(u) for u in vocab))

# The initial table is implicit: it stores only the word list, and the
# segmentation set of a word is every way to spell it with these units.
table = make_initial_segtable(words, vocab)
for word in words:
    dag = build_word_dag_implicit(word, vocab)
    paths = sorted(enumerate_label_paths(dag))
    print(f"\nsegmentations of {word}: {len(paths)}")
    for ids in paths:
        print("  " + " ".join(marked(vocab.unit(i)) for i in ids))

row = metrics_for("init", vocab, table)
print(f"\n|V| = {row.vocab_size}, average |S(w)| = {row.avg_variants:.2f}, "
      f"average variant length = {row.avg_len:.2f}")
