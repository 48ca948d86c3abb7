"""Acceptance suite: nine numbered end-to-end checks at fixed tolerances.

Criteria 1-5 are oracle/property checks on the loss, alignment, sampling,
gradient, and lattice machinery.  Criteria 6-9 run the full pipeline twice on
a 50-word / 500-utterance synthetic corpus and check the learned vocabulary
trends, reconstruction, open-vocabulary segmentation, and determinism.  Run
``pytest -v tests/test_acceptance.py`` for one pass/fail line per criterion.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from adsm.corpus import SyntheticSpec, g2p_entries_for, gen_synthetic
from adsm.ctc import log_loss, sample_path, viterbi
from adsm.encoder import TrainConfig, init_params, utterance_grads
from adsm.lattice import (build_word_dag_explicit, build_word_dag_implicit,
                          concat_utterance, ctc_expand, lattice_from_dag)
from adsm.pipeline import PipelineConfig, run_pipeline
from adsm.textseg import detokenize, segment_corpus, segment_word, train_lm
from adsm.vocab import SegTable, Vocabulary, marked

from conftest import (chars_vocab, enumerate_segmentations, flagged,
                      random_logp, random_oracle_instance)
from _reference import (ctc_loss_single, enumerate_oracle, flatten_params, n_params,
                        set_flat_params)


@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(20)
    return [random_oracle_instance(rng) for _ in range(200)]


def test_c1_loss_matches_enumeration_oracle(oracle_instances):
    t0 = time.monotonic()
    worst = 0.0
    for lat, vocab, logp in oracle_instances:
        oracle = enumerate_oracle(lat, logp)
        loss, _ = log_loss(ctc_expand(lat, vocab), logp)
        rel = abs(loss - oracle.loss) / max(abs(oracle.loss), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS: criterion 1 - loss vs enumeration on 200 instances, "
          f"worst rel {worst:.2e}, {elapsed:.1f}s")


def _fixed_sampling_graphs():
    """Five small lattices covering splits, repeats, forced blanks, an
    implicit word, and a two-word concatenation."""
    out = []
    v1 = Vocabulary.from_units([("a", False), ("a", True), ("b", True), ("ab", True)])
    d1 = build_word_dag_explicit([(v1.id("a", False), v1.id("b", True)),
                                  (v1.id("ab", True),)], v1)
    out.append((lattice_from_dag(d1), v1, 4))

    v2 = chars_vocab("a")
    d2 = build_word_dag_explicit([(v2.id("a", False), v2.id("a", True))], v2)
    out.append((lattice_from_dag(d2), v2, 4))

    v3 = chars_vocab("a")
    d3 = [build_word_dag_explicit([(v3.id("a", True),)], v3) for _ in range(2)]
    out.append((concat_utterance(d3), v3, 4))

    v4 = chars_vocab("aba")
    out.append((lattice_from_dag(build_word_dag_implicit("aba", v4)), v4, 5))

    v5 = Vocabulary.from_units([("a", False), ("b", False), ("b", True), ("ab", True)])
    d5a = build_word_dag_explicit([(v5.id("a", False), v5.id("b", True)),
                                   (v5.id("ab", True),)], v5)
    d5b = build_word_dag_explicit([(v5.id("b", True),)], v5)
    out.append((concat_utterance([d5a, d5b]), v5, 6))
    return out


def test_c2_viterbi_and_sampling_match_oracle(oracle_instances):
    t0 = time.monotonic()
    for lat, vocab, logp in oracle_instances:
        oracle = enumerate_oracle(lat, logp)
        ali = viterbi(ctc_expand(lat, vocab), logp, prior_scale=0.0)
        assert ali.frame_labels == oracle.best_path
    graphs = _fixed_sampling_graphs()
    per = 100_000 // len(graphs)
    rng = np.random.default_rng(2024)
    for lat, vocab, T in graphs:
        logp = random_logp(rng, T, vocab.num_classes)
        probs = enumerate_oracle(lat, logp).path_probs
        graph = ctc_expand(lat, vocab)
        counts: dict[tuple, int] = {}
        for _ in range(per):
            y = sample_path(graph, logp, rng=rng).frame_labels
            counts[y] = counts.get(y, 0) + 1
        assert set(counts) <= set(probs)
        for y, p in probs.items():
            sigma = math.sqrt(per * p * (1 - p))
            assert abs(counts.get(y, 0) - per * p) <= max(3 * sigma, 1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS: criterion 2 - viterbi argmax on 200 instances and "
          f"{5 * per} sampled paths within 3 sigma, {elapsed:.1f}s")


def test_c3_gradient_matches_central_differences():
    rng = np.random.default_rng(33)
    eps = 1e-4
    done = 0
    worst = 0.0
    while done < 20:
        lat, vocab, _ = random_oracle_instance(rng)
        graph = ctc_expand(lat, vocab)
        dim = int(rng.integers(2, 4))
        hid = int(rng.integers(3, 5))
        factor = int(rng.integers(1, 3))
        radius = int(rng.integers(0, 2))
        params = init_params(dim, (hid,), vocab.num_classes,
                             subsample_factor=factor, radii=(radius,),
                             seed=int(rng.integers(1000)))
        if n_params(params) > 100:
            continue
        T = graph.min_frames * factor + int(rng.integers(0, 3))
        x = rng.standard_normal((T, dim))
        _, grads = utterance_grads(x, graph, params)
        g = np.concatenate([a.ravel() for a in grads])
        theta = flatten_params(params)
        fd = np.zeros_like(theta)
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = eps
            set_flat_params(params, theta + step)
            up, _ = utterance_grads(x, graph, params)
            set_flat_params(params, theta - step)
            dn, _ = utterance_grads(x, graph, params)
            fd[k] = (up - dn) / (2 * eps)
        set_flat_params(params, theta)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-4
        done += 1
    print(f"PASS: criterion 3 - 20 models of <= 100 parameters, "
          f"worst gradient error {worst:.2e}")


def test_c4_single_variant_matches_reference_ctc():
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        vocab = chars_vocab("ab") if rng.integers(2) else Vocabulary.from_units(
            [("a", False), ("a", True), ("b", False), ("b", True), ("ab", True)])
        spellings = {s for s, _ in vocab}
        dags, labels = [], []
        feasible = True
        for _ in range(int(rng.integers(1, 3))):
            word = "".join(rng.choice(["a", "b"]) for _ in range(int(rng.integers(1, 4))))
            segs = [s for s in enumerate_segmentations(word, spellings)
                    if all(u in vocab.id_of for u in flagged(s))]
            if not segs:
                feasible = False
                break
            pick = segs[int(rng.integers(len(segs)))]
            ids = tuple(vocab.id_of[u] for u in flagged(pick))
            dags.append(build_word_dag_explicit([ids], vocab))
            labels.extend(ids)
        if not feasible:
            continue
        graph = ctc_expand(concat_utterance(dags), vocab)
        T = int(rng.integers(graph.min_frames, graph.min_frames + 4))
        logp = random_logp(rng, T, vocab.num_classes)
        loss, _ = log_loss(graph, logp)
        ref = ctc_loss_single(logp, labels, vocab.blank_id)
        assert abs(loss - ref) <= 1e-9 * max(abs(ref), 1.0)
        done += 1
    print("PASS: criterion 4 - single-variant loss equals reference CTC "
          "on 50 cases within 1e-9")


def test_c5_adding_a_variant_never_increases_loss():
    rng = np.random.default_rng(59)
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True),
         ("ab", False), ("ab", True), ("ba", False), ("ba", True),
         ("aa", False), ("bb", True)])
    spellings = {s for s, _ in vocab}
    done = 0
    while done < 100:
        word = "".join(rng.choice(["a", "b"]) for _ in range(int(rng.integers(2, 5))))
        segs = [s for s in enumerate_segmentations(word, spellings)
                if all(u in vocab.id_of for u in flagged(s))]
        if len(segs) < 2:
            continue
        order = rng.permutation(len(segs))
        k = int(rng.integers(1, len(segs)))
        to_ids = lambda s: tuple(vocab.id_of[u] for u in flagged(s))
        small = [to_ids(segs[i]) for i in order[:k]]
        large = small + [to_ids(segs[order[k]])]
        g_small = ctc_expand(lattice_from_dag(build_word_dag_explicit(small, vocab)), vocab)
        g_large = ctc_expand(lattice_from_dag(build_word_dag_explicit(large, vocab)), vocab)
        T = g_small.min_frames + int(rng.integers(0, 3))
        logp = random_logp(rng, T, vocab.num_classes)
        loss_small, _ = log_loss(g_small, logp)
        loss_large, _ = log_loss(g_large, logp)
        assert loss_large <= loss_small + 1e-12
        done += 1
    print("PASS: criterion 5 - 100 superset pairs, no loss increase "
          "beyond 1e-12")


def _toy_spec() -> SyntheticSpec:
    """50 words over chunk inventories with disjoint consonant sets.

    Internal chunks start with b/c/d/f, final chunks with g/h/k, and the five
    single-chunk words own l-initial chunks nothing else uses, so every chunk
    class is identifiable from its position.
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
    assert len(segs) == 50
    return SyntheticSpec(word_segs=segs, dim=10, frames_per_unit=4, noise=0.1,
                         n_utterances=500, min_words=2, max_words=5, seed=0)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Two full pipeline runs from the same seeds, corpus regenerated each
    time, artifacts kept on disk for the determinism check."""
    spec = _toy_spec()
    config = PipelineConfig(
        merge_rounds=1, subsample=2, hidden=(48,), radii=(0,),
        train=TrainConfig(epochs=40, learning_rate=1.0, batch_size=16),
        seed=0)
    runs = []
    t0 = time.monotonic()
    for tag in ("one", "two"):
        corp, truth = gen_synthetic(spec)
        outdir = tmp_path_factory.mktemp(f"toy_{tag}")
        res = run_pipeline(corp, g2p_entries_for(spec), config, str(outdir))
        runs.append(SimpleNamespace(corp=corp, truth=truth, res=res,
                                    outdir=outdir))
    elapsed = time.monotonic() - t0
    return SimpleNamespace(runs=runs, elapsed=elapsed)


def test_c6_toy_pipeline_trends(toy):
    run = toy.runs[0]
    by_step = {m.step: m for m in run.res.metrics}
    assert by_step["refine-1"].avg_variants < by_step["init"].avg_variants
    assert by_step["merge-1"].vocab_size > by_step["refine-1"].vocab_size
    assert by_step["final"].avg_variants < 1.5
    vocab = run.res.vocab
    hits = 0
    for utt in run.corp:
        ids = run.res.targets.get(utt.utt_id, ())
        got = tuple(vocab.spelling(i) for i in ids)
        want = tuple(marked(u) for u in run.truth[utt.utt_id])
        hits += got == want
    rate = hits / len(run.corp)
    assert rate >= 0.9
    assert toy.elapsed < 1800.0
    print(f"PASS: criterion 6 - trends hold, {100 * rate:.1f}% of targets "
          f"equal ground truth, both runs in {toy.elapsed:.0f}s")


def test_c7_targets_and_text_round_trip(toy):
    run = toy.runs[0]
    vocab = run.res.vocab
    trans = {u.utt_id: " ".join(u.words) for u in run.corp}
    assert run.res.targets
    for utt_id, ids in run.res.targets.items():
        line = " ".join(vocab.spelling(i) for i in ids)
        assert detokenize(line) == trans[utt_id]
    lm = train_lm(run.res.table)
    lines = [" ".join(u.words) for u in run.corp]
    for mode in ("best", "sample"):
        segged = segment_corpus(lines, run.res.table, lm, mode=mode, seed=1)
        assert [detokenize(s) for s in segged] == lines
    print(f"PASS: criterion 7 - {len(run.res.targets)} targets detokenize to "
          f"their transcriptions; segment_corpus round-trips in both modes")


def test_c8_open_vocabulary_segmentation(toy):
    run = toy.runs[0]
    table = run.res.table
    vocab = run.res.vocab
    lm = train_lm(table)
    bare = SegTable.explicit({}, vocab)  # forces the DP even for seen words
    alphabet = sorted(vocab.alphabet())
    spellings = {s for s, _ in vocab}
    rng = np.random.default_rng(77)
    unseen = 0
    for _ in range(1000):
        word = "".join(rng.choice(alphabet, size=int(rng.integers(1, 9))))
        units = segment_word(word, table, lm)
        assert "".join(s for s, _ in units) == word
        assert [e for _, e in units] == [False] * (len(units) - 1) + [True]
        unseen += word not in table
        if len(word) <= 6:
            cands = []
            for pieces in enumerate_segmentations(word, spellings):
                us = flagged(pieces)
                if all(u in vocab.id_of for u in us):
                    toks = tuple(marked(u) for u in us)
                    cands.append((lm.score(toks), len(us), toks, us))
            best = cands[0]
            for c in cands[1:]:
                if c[0] > best[0] or (c[0] == best[0]
                                      and (c[1], c[2]) < (best[1], best[2])):
                    best = c
            assert segment_word(word, bare, lm) == best[3]
    assert unseen > 0
    print(f"PASS: criterion 8 - 1000 random words segmented "
          f"({unseen} unseen); DP equals exhaustive argmax up to length 6")


def test_c9_identical_seeds_give_identical_artifacts(toy):
    a, b = toy.runs
    names = ["vocab.tsv", "segtable.tsv", "targets.tsv", "metrics.tsv"]
    for step in ("init", "refine-1", "merge-1", "final"):
        names += [f"vocab-{step}.tsv", f"segtable-{step}.tsv"]
    for name in names:
        assert (a.outdir / name).read_bytes() == (b.outdir / name).read_bytes()
    print(f"PASS: criterion 9 - {len(names)} artifact files byte-identical "
          f"across reruns")
