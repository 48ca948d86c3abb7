import numpy as np
import pytest

from adsm import encoder, pipeline
from adsm.corpus import (FeatureMatrix, SyntheticSpec, g2p_entries_for, gen_synthetic,
                         read_targets)
from adsm.ctc import estimate_prior, viterbi_paths
from adsm.encoder import CHUNK, TrainConfig, encode, init_params, subsampled_length, train
from adsm.errors import FormatError, NumericalError
from adsm.lexicon import build_initial_vocab, make_initial_segtable
from adsm.pipeline import (AlignedUtt, PipelineConfig, VariantStats,
                           align_corpus, build_dataset, finalize, make_targets,
                           merge_subwords, refine, run_pipeline,
                           utterance_lattice)
from adsm.lattice import ctc_expand
from adsm.vocab import SegTable, Vocabulary, marked
from _reference import ctc_expand_reference, enumerate_label_paths, prior_mean, viterbi_states


def test_pipeline_config_validation():
    PipelineConfig()
    with pytest.raises(ValueError, match="prior scale"):
        PipelineConfig(prior_scale=1.5)
    with pytest.raises(ValueError, match="weight floor"):
        PipelineConfig(min_weight=1.0)
    with pytest.raises(ValueError, match="count floor"):
        PipelineConfig(min_count=0)
    with pytest.raises(ValueError, match="power of two"):
        PipelineConfig(subsample=3)


def fill(stats, word, variant, n):
    for _ in range(n):
        stats.add(word, variant)


AB_WHOLE = (("ab", True),)
AB_SPLIT = (("a", False), ("b", True))
CD_WHOLE = (("cd", True),)
CD_SPLIT = (("c", False), ("d", True))


def test_variant_stats_counts_and_order():
    stats = VariantStats()
    fill(stats, "ab", AB_SPLIT, 2)
    fill(stats, "ab", AB_WHOLE, 8)
    assert stats.word_total["ab"] == 10
    assert stats.weights("ab") == [(AB_WHOLE, 0.8), (AB_SPLIT, 0.2)]
    assert stats.best("ab") == AB_WHOLE
    with pytest.raises(ValueError, match="spell"):
        stats.add("ab", CD_WHOLE)
    # count ties resolve to the smaller spelled form
    tied = VariantStats()
    fill(tied, "ab", AB_SPLIT, 3)
    fill(tied, "ab", AB_WHOLE, 3)
    assert tied.best("ab") == AB_SPLIT


def test_variant_stats_save_load(tmp_path):
    stats = VariantStats()
    fill(stats, "ab", AB_WHOLE, 3)
    fill(stats, "ab", AB_SPLIT, 1)
    fill(stats, "cd", CD_SPLIT, 2)
    p = tmp_path / "stats.tsv"
    stats.save(p)
    back = VariantStats.load(p)
    assert back.counts == stats.counts
    assert back.word_total == stats.word_total
    first = p.read_bytes()
    back.save(p)
    assert p.read_bytes() == first
    p.write_text("#adsm-stats-v1\nab\tx\tab_\n")
    with pytest.raises(FormatError):
        VariantStats.load(p)


def test_variant_stats_load_stores_counts_and_rejects_non_positive(tmp_path):
    p = tmp_path / "stats.tsv"
    p.write_text("#adsm-stats-v1\nab\t1000000000\tab_\nab\t3\ta b_\n")
    stats = VariantStats.load(p)
    assert stats.counts == {"ab": {AB_WHOLE: 10**9, AB_SPLIT: 3}}
    assert stats.word_total == {"ab": 10**9 + 3}
    stats.save(p)
    assert VariantStats.load(p).counts == stats.counts
    for count in ("0", "-2"):
        p.write_text(f"#adsm-stats-v1\nab\t{count}\tab_\ncd\t1\tcd_\n")
        with pytest.raises(FormatError, match="positive"):
            VariantStats.load(p)
    p.write_text("#adsm-stats-v1\nab\t3\tab_\nab\t1\ta b_\nab\t2\tab_\n")
    with pytest.raises(FormatError, match="repeated row") as err:
        VariantStats.load(p)
    assert err.value.line == 4


def test_utterance_lattice_explicit_matches_implicit():
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True), ("ab", True)])
    words = ["ab", "a"]
    implicit = SegTable.implicit(words, vocab)
    lat_i = utterance_lattice(words, vocab, implicit)
    all_variants = {
        "ab": [((vocab.id_of[("a", False)], vocab.id_of[("b", True)]), 0.5),
               ((vocab.id_of[("ab", True)],), 0.5)],
        "a": [((vocab.id_of[("a", True)],), 1.0)],
    }
    explicit = SegTable.explicit(all_variants, vocab)
    lat_e = utterance_lattice(words, vocab, explicit)
    assert set(enumerate_label_paths(lat_i)) == set(enumerate_label_paths(lat_e))
    cache = {}
    utterance_lattice(words, vocab, implicit, cache)
    assert set(cache) == {"ab", "a"}


MINI = {"ab": ("ab",), "cd": ("cd",), "abcd": ("ab", "cd"), "cdab": ("cd", "ab")}


def mini_corpus(n=40, seed=0):
    spec = SyntheticSpec(word_segs=MINI, dim=6, frames_per_unit=4, noise=0.08,
                         n_utterances=n, min_words=2, max_words=4, seed=seed)
    return gen_synthetic(spec), g2p_entries_for(spec)


def test_align_corpus_buckets_by_word():
    (corp, _), entries = mini_corpus(n=16)
    vocab = build_initial_vocab(entries, corp.words())
    table = make_initial_segtable(corp.words(), vocab)
    params = init_params(6, (16,), vocab.num_classes, 2, (0,), 0)
    dataset = build_dataset(corp, vocab, table)
    train(dataset, params, TrainConfig(epochs=4, learning_rate=0.5, seed=1), vocab)
    aligned, stats, skipped = align_corpus(params, dataset, 0.3, vocab)
    assert skipped == 0
    assert len(aligned) == len(corp)
    for utt, ali in zip(corp, aligned):
        assert ali.utt_id == utt.utt_id
        assert tuple(w for w, _ in ali.word_variants) == utt.words
        for word, variant in ali.word_variants:
            assert "".join(s for s, _ in variant) == word
            assert variant[-1][1] and not any(e for _, e in variant[:-1])
    assert set(stats.words()) == set(corp.words())
    assert sum(stats.word_total.values()) == sum(len(u.words) for u in corp)



def _align_one_by_one(params, dataset, prior_scale, vocab):
    """align_corpus's contract, one utterance at a time through the textbook
    Viterbi recursion."""
    feasible, skipped = [], 0
    for i, (feats, lat) in enumerate(dataset):
        graph = ctc_expand_reference(lat, vocab)
        if subsampled_length(feats.values.shape[0], params.subsample_factor) < graph.min_frames:
            skipped += 1
        else:
            feasible.append((i, feats, lat, graph, encode(feats.values, params)))
    prior = prior_mean([logp for *_, logp in feasible], params.num_classes)
    stats, aligned = VariantStats(), []
    for i, feats, lat, graph, logp in feasible:
        states = viterbi_states(graph, logp - prior_scale * np.log(np.maximum(prior, 1e-10)))
        arcs = [[] for _ in lat.words]
        for state in dict.fromkeys(states):
            if state >= lat.n_nodes:    # the label states follow the node states, arc by arc
                a = state - lat.n_nodes
                arcs[lat.arcs[a][3]].append(a)
        variants = []
        for word, word_arcs in zip(lat.words, arcs):
            variant = tuple(vocab.unit(lat.arcs[a][2]) for a in word_arcs)
            stats.add(word, variant)
            variants.append((word, variant))
        aligned.append(AlignedUtt(i, feats.utt_id, tuple(variants)))
    return aligned, stats, skipped


def test_align_corpus_in_chunks_equals_one_by_one():
    # Every unit spans 4 frames, so at subsample 2 an utterance has twice its
    # lattice's minimal length; cut to half that, it has exactly the minimal
    # length, and two frames fewer make it infeasible.
    (corp, _), entries = mini_corpus(n=37, seed=3)
    vocab = build_initial_vocab(entries, corp.words())
    table = make_initial_segtable(corp.words(), vocab)
    params = init_params(6, (16,), vocab.num_classes, 2, (1,), 2)
    dataset = []
    for i, (feats, lat) in enumerate(build_dataset(corp, vocab, table)):
        keep = {2: len(feats.values) // 2 - 2, 4: len(feats.values) // 2}.get(i % 5)
        dataset.append((FeatureMatrix(feats.utt_id, feats.values[:keep]), lat))
    graphs = [ctc_expand(lat, vocab) for _, lat in dataset]
    for prior_scale in (0.0, 0.3):
        want_aligned, want_stats, want_skipped = _align_one_by_one(params, dataset,
                                                                   prior_scale, vocab)
        assert want_skipped == 7 and len(want_aligned) == 30 > CHUNK
        for given in (None, graphs):
            aligned, stats, skipped = align_corpus(params, dataset, prior_scale, vocab, given)
            assert aligned == want_aligned
            assert stats.counts == want_stats.counts
            assert skipped == want_skipped


def test_align_corpus_prior_equals_the_per_utterance_mean(monkeypatch):
    (corp, _), entries = mini_corpus(n=45, seed=9)
    vocab = build_initial_vocab(entries, corp.words())
    table = make_initial_segtable(corp.words(), vocab)
    params = init_params(6, (16,), vocab.num_classes, 2, (1,), 8)
    dataset = []
    for i, (feats, lat) in enumerate(build_dataset(corp, vocab, table)):
        keep = len(feats.values) // 2 - 2 if i % 7 == 3 else None
        dataset.append((FeatureMatrix(feats.utt_id, feats.values[:keep]), lat))
    priors = []

    def recording(*args):
        priors.append(estimate_prior(*args))
        return priors[-1]

    monkeypatch.setattr(pipeline, "estimate_prior", recording)
    _, _, skipped = align_corpus(params, dataset, 0.3, vocab)
    feasible = [encode(feats.values, params) for feats, lat in dataset
                if subsampled_length(len(feats.values), 2) >= ctc_expand(lat, vocab).min_frames]
    assert skipped == 6 and len(feasible) > 2 * CHUNK
    assert len(priors) == 1
    np.testing.assert_array_equal(priors[0], prior_mean(feasible, params.num_classes))


def test_align_corpus_chunks_by_length_and_returns_dataset_order(monkeypatch):
    (corp, _), entries = mini_corpus(n=40, seed=5)
    vocab = build_initial_vocab(entries, corp.words())
    table = make_initial_segtable(corp.words(), vocab)
    params = init_params(6, (16,), vocab.num_classes, 2, (1,), 4)
    dataset = []
    for i, (feats, lat) in enumerate(build_dataset(corp, vocab, table)):
        keep = len(feats.values) // 2 - 2 if i % 6 == 1 else None
        dataset.append((FeatureMatrix(feats.utt_id, feats.values[:keep]), lat))
    dataset.sort(key=lambda pair: -len(pair[0].values))
    graphs = [ctc_expand(lat, vocab) for _, lat in dataset]
    calls = []

    def recording(chunk_graphs, logp, lengths, *args):
        calls.append([(id(g), n) for g, n in zip(chunk_graphs, lengths)])
        return viterbi_paths(chunk_graphs, logp, lengths, *args)

    monkeypatch.setattr(pipeline, "viterbi_paths", recording)
    aligned, stats, skipped = align_corpus(params, dataset, 0.3, vocab, graphs)
    want_aligned, want_stats, want_skipped = _align_one_by_one(params, dataset, 0.3, vocab)
    assert (aligned, stats.counts, skipped) == (want_aligned, want_stats.counts,
                                                want_skipped)
    assert skipped == 7 and len(aligned) > 2 * CHUNK
    assert all(len(call) <= CHUNK for call in calls)
    lengths = [n for call in calls for _, n in call]
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1]
    assert sorted(g for call in calls for g, _ in call) == sorted(
        id(graphs[ali.index]) for ali in aligned)
    assert [ali.index for ali in aligned] == sorted({ali.index for ali in aligned})
    assert [ali.utt_id for ali in aligned] == [
        feats.utt_id for (feats, _), g in zip(dataset, graphs)
        if subsampled_length(len(feats.values), 2) >= g.min_frames]


def _counted_alignment_inputs(monkeypatch):
    """37 feasible utterances, and the list that records the batch size of
    every encoder pass from then on."""
    (corp, _), entries = mini_corpus(n=37, seed=7)
    vocab = build_initial_vocab(entries, corp.words())
    table = make_initial_segtable(corp.words(), vocab)
    params = init_params(6, (16,), vocab.num_classes, 2, (1,), 6)
    calls = []
    forward = encoder._forward

    def counted(x, lengths, params):
        calls.append(len(lengths))
        return forward(x, lengths, params)

    monkeypatch.setattr(encoder, "_forward", counted)
    return params, build_dataset(corp, vocab, table), vocab, calls


def test_align_corpus_encodes_each_chunk_in_one_pass(monkeypatch):
    params, dataset, vocab, calls = _counted_alignment_inputs(monkeypatch)
    aligned, _, skipped = align_corpus(params, dataset, 0.3, vocab)
    assert skipped == 0 and len(aligned) == 37
    assert len(calls) <= -(-len(aligned) // CHUNK)
    assert sum(calls) == len(aligned)


def test_align_corpus_overflow_raises_at_the_first_chunk(monkeypatch):
    params, dataset, vocab, calls = _counted_alignment_inputs(monkeypatch)
    # finite weights whose output scores overflow: non-finite posteriors
    params.out_w[:] = 1e308
    with pytest.raises(NumericalError), pytest.warns(RuntimeWarning):
        align_corpus(params, dataset, 0.3, vocab)
    assert len(calls) == 1


def test_refine_filters_and_renormalizes():
    stats = VariantStats()
    fill(stats, "ab", AB_WHOLE, 9)
    fill(stats, "ab", AB_SPLIT, 1)
    fill(stats, "cd", CD_WHOLE, 1)
    fill(stats, "cd", CD_SPLIT, 1)
    table, vocab = refine(stats, min_weight=0.2)
    assert table.unit_variants("ab") == [(AB_WHOLE, 1.0)]
    got = dict(table.unit_variants("cd"))
    assert got == {CD_WHOLE: 0.5, CD_SPLIT: 0.5}
    # kept units plus every character in both positions
    assert set(vocab.units) == {
        ("ab", True), ("cd", True), ("c", False), ("d", True),
        ("a", False), ("a", True), ("b", False), ("b", True),
        ("c", True), ("d", False)}


def test_refine_keeps_best_when_all_below_floor():
    stats = VariantStats()
    fill(stats, "ab", AB_WHOLE, 1)
    fill(stats, "ab", AB_SPLIT, 1)
    table, _ = refine(stats, min_weight=0.9)
    # tie at 0.5: the smaller spelled form survives as the single variant
    assert table.unit_variants("ab") == [(AB_SPLIT, 1.0)]


def test_merge_subwords_adds_all_adjacent_merges():
    vocab = Vocabulary.from_units(
        [("a", False), ("b", False), ("c", True), ("ab", False)])
    ids = lambda us: tuple(vocab.id_of[u] for u in us)
    table = SegTable.explicit(
        {"abc": [(ids((("a", False), ("b", False), ("c", True))), 0.5),
                 (ids((("ab", False), ("c", True))), 0.5)]}, vocab)
    merged, mv = merge_subwords(table)
    got = {us for us, _ in merged.unit_variants("abc")}
    assert got == {
        (("a", False), ("b", False), ("c", True)),
        (("ab", False), ("c", True)),
        (("a", False), ("bc", True)),
        (("abc", True),)}
    weights = [w for _, w in merged.variants("abc")]
    assert weights == [0.25, 0.25, 0.25, 0.25]
    assert set(mv.units) == set(vocab.units) | {("bc", True), ("abc", True)}
    with pytest.raises(ValueError, match="explicit"):
        merge_subwords(SegTable.implicit(["abc"], vocab))


def test_finalize_rare_words_keep_best_only():
    stats = VariantStats()
    fill(stats, "ab", AB_WHOLE, 27)
    fill(stats, "ab", AB_SPLIT, 3)
    fill(stats, "cd", CD_WHOLE, 4)
    fill(stats, "cd", CD_SPLIT, 6)
    table, vocab = finalize(stats, min_count=20, min_weight=0.05)
    # frequent word: weight floor applies, both variants stay
    assert dict(table.unit_variants("ab")) == {AB_WHOLE: 0.9, AB_SPLIT: 0.1}
    # rare word: only its best variant survives
    assert table.unit_variants("cd") == [(CD_SPLIT, 1.0)]
    assert ("cd", True) not in vocab.id_of  # its only variant was dropped
    for ch in "abcd":
        assert (ch, False) in vocab.id_of and (ch, True) in vocab.id_of


def test_make_targets_replaces_filtered_variants():
    vocab = Vocabulary.from_units([("ab", True), ("a", False), ("b", True)])
    table = SegTable.explicit(
        {"ab": [((vocab.id_of[("ab", True)],), 1.0)]}, vocab)
    aligned = [AlignedUtt(0, "u0", (("ab", AB_WHOLE),)),
               AlignedUtt(1, "u1", (("ab", AB_SPLIT),))]
    targets = make_targets(aligned, table, vocab)
    whole = (vocab.id_of[("ab", True)],)
    assert targets == {"u0": whole, "u1": whole}


def run_small(tmp_path, warm):
    (corp, truth), entries = mini_corpus(n=40)
    cfg = PipelineConfig(merge_rounds=1, subsample=2, hidden=(24,), radii=(0,),
                         min_count=8,
                         train=TrainConfig(epochs=12, learning_rate=1.0,
                                           batch_size=8),
                         seed=0, warm_start=warm)
    outdir = tmp_path / ("warm" if warm else "cold")
    return corp, truth, run_pipeline(corp, entries, cfg, outdir=str(outdir)), outdir


def test_run_pipeline_structure_and_artifacts(tmp_path):
    corp, truth, res, outdir = run_small(tmp_path, warm=False)
    assert [m.step for m in res.metrics] == ["init", "refine-1", "merge-1", "final"]
    assert res.metrics[1].avg_variants < res.metrics[0].avg_variants
    assert res.metrics[2].vocab_size > res.metrics[1].vocab_size
    assert len(res.skipped) == 2
    assert set(res.targets) == {u.utt_id for u in corp}
    # targets re-spell the transcription exactly
    for utt in corp:
        tokens = [res.vocab.spelling(i) for i in res.targets[utt.utt_id]]
        text = "".join(tokens)
        assert text == "".join(w + "_" for w in utt.words)
    for name in ("vocab.tsv", "segtable.tsv", "params.txt", "targets.tsv",
                 "metrics.tsv", "vocab-init.tsv", "segtable-init.tsv",
                 "vocab-refine-1.tsv", "vocab-merge-1.tsv", "vocab-final.tsv"):
        assert (outdir / name).exists(), name
    saved = read_targets(outdir / "targets.tsv")
    assert saved == {uid: tuple(res.vocab.spelling(i) for i in ids)
                     for uid, ids in res.targets.items()}
    back = Vocabulary.load(outdir / "vocab.tsv")
    assert back == res.vocab


def test_run_pipeline_warm_start(tmp_path):
    _, _, res, _ = run_small(tmp_path, warm=True)
    assert [m.step for m in res.metrics] == ["init", "refine-1", "merge-1", "final"]
    assert res.params.subsample_factor == 4
