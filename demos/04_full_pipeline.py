"""
The full refinement loop, end to end
====================================

Initialization, a train/align/refine/merge round, a second training round at
doubled subsampling, and finalization.  The printed metrics show the
characteristic shape: segmentation sets collapse after the first refinement,
merging re-widens the vocabulary with fused neighbors, and the final table
settles on close to one variant per word.  The run ends by comparing every
utterance's target sequence against the generating ground truth.
"""

import os
import tempfile

from adsm.corpus import SyntheticSpec, format_report, g2p_entries_for, gen_synthetic
from adsm.encoder import TrainConfig
from adsm.pipeline import PipelineConfig, run_pipeline
from adsm.vocab import marked

spec = SyntheticSpec(
    word_segs={"ab": ("ab",), "cd": ("cd",), "abcd": ("ab", "cd"),
               "cdab": ("cd", "ab")},
    dim=8, frames_per_unit=4, noise=0.1, n_utterances=80,
    min_words=2, max_words=3, seed=2)
corp, truth = gen_synthetic(spec)

config = PipelineConfig(
    merge_rounds=1, subsample=2, hidden=(32,), radii=(0,),
    min_count=10,
    train=TrainConfig(epochs=20, learning_rate=1.0, batch_size=8),
    seed=0)

with tempfile.TemporaryDirectory(prefix="adsm-run-") as outdir:
    result = run_pipeline(corp, g2p_entries_for(spec), config, outdir)
    print(format_report(result.metrics))
    print("artifacts written:", " ".join(sorted(os.listdir(outdir))))

print("\nfinal segmentation table:")
for word in result.table.words():
    for units, weight in result.table.unit_variants(word):
        print(f"  {word:5s} -> {' '.join(marked(u) for u in units):12s} {weight:.2f}")

hits = 0
for utt in corp:
    ids = result.targets.get(utt.utt_id, ())
    got = tuple(result.vocab.spelling(i) for i in ids)
    want = tuple(marked(u) for u in truth[utt.utt_id])
    hits += got == want
print(f"\ntargets equal to generating segmentation: "
      f"{hits}/{len(corp)} utterances")

sample = corp[0]
ids = result.targets[sample.utt_id]
print(f"example ({sample.utt_id}): {' '.join(sample.words)}")
print("  target:", " ".join(result.vocab.spelling(i) for i in ids))
