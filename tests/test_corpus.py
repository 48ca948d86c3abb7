import logging

import numpy as np
import pytest

from adsm.corpus import (Corpus, FeatureMatrix, MetricsRow, SyntheticSpec,
                         Utterance, format_report, g2p_entries_for,
                         gen_synthetic, load_corpus, make_prototypes,
                         metrics_for, read_features, read_targets,
                         read_transcripts, write_features, write_targets,
                         write_transcripts)
from adsm.errors import FormatError
from adsm.lexicon import build_initial_vocab, make_initial_segtable
from adsm.vocab import SegTable, Vocabulary
from conftest import enumerate_segmentations
from _reference import gen_synthetic_per_chunk


def test_feature_matrix_validation():
    FeatureMatrix("u", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="T>=1"):
        FeatureMatrix("u", np.zeros((0, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        FeatureMatrix("u", np.array([[1.0, np.nan]]))


def test_corpus_rejects_duplicate_ids():
    m = FeatureMatrix("u", np.zeros((1, 2)))
    u = Utterance("u", m, ("a",))
    with pytest.raises(ValueError, match="duplicate"):
        Corpus([u, u])
    c = Corpus([u, Utterance("v", FeatureMatrix("v", np.ones((2, 2))), ("b", "a"))])
    assert c.words() == ["a", "b"]
    assert c.word_counts()["a"] == 2
    assert c.alphabet() == {"a", "b"}


def test_features_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(37)
    mats = [FeatureMatrix(f"u{i}", rng.standard_normal((int(rng.integers(1, 5)), 3)))
            for i in range(4)]
    p = tmp_path / "feats.tsv"
    write_features(mats, p)
    back = read_features(p)
    assert [m.utt_id for m in back] == [m.utt_id for m in mats]
    for a, b in zip(mats, back):
        np.testing.assert_array_equal(a.values, b.values)
    first = p.read_bytes()
    write_features(back, p)
    assert p.read_bytes() == first


def test_features_reader_rejects_corrupt(tmp_path):
    p = tmp_path / "feats.tsv"
    p.write_text("#adsm-feats-v1\nu0 2 2\n1.0 2.0\n")
    with pytest.raises(FormatError):
        read_features(p)
    p.write_text("#adsm-feats-v1\nu0 1 2\n1.0 x\n")
    with pytest.raises(FormatError):
        read_features(p)
    p.write_text("#adsm-feats-v1\nu0 1 1\n1.0\nu0 1 1\n2.0\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_features(p)
    p.write_text("nope\n")
    with pytest.raises(FormatError, match="header"):
        read_features(p)


def test_features_reader_refuses_a_block_of_another_width_at_its_header(tmp_path):
    p = tmp_path / "feats.tsv"
    p.write_text("#adsm-feats-v1\nu1 2 2\n1.0 2.0\n3.0 4.0\nu2 2 3\n1.0 2.0 3.0\n4.0 5.0 6.0\n")
    with pytest.raises(FormatError, match="3 columns, the first block 2") as err:
        read_features(p)
    assert err.value.line == 5 and str(p) in str(err.value)


def test_transcripts_round_trip(tmp_path):
    p = tmp_path / "trans.tsv"
    write_transcripts([("u0", ("ab", "c")), ("u1", ("c",))], p)
    assert read_transcripts(p) == {"u0": ("ab", "c"), "u1": ("c",)}
    p.write_text("#adsm-trans-v1\nu0\t\n")
    with pytest.raises(FormatError, match="empty"):
        read_transcripts(p)


def test_transcripts_refuse_a_reserved_character_at_its_line(tmp_path):
    feats, trans = tmp_path / "feats.tsv", tmp_path / "trans.tsv"
    write_features([FeatureMatrix("u0", [[1.0]]), FeatureMatrix("u1", [[2.0]])], feats)
    trans.write_text("#adsm-trans-v1\nu0\tab c\nu1\tc a_b\n")
    with pytest.raises(FormatError, match="reserved") as err:
        load_corpus(feats, trans)
    assert (err.value.path, err.value.line) == (trans, 3)


def test_targets_round_trip(tmp_path):
    p = tmp_path / "targets.tsv"
    write_targets([("u0", ("ab", "c_")), ("u1", ("c_",))], p)
    assert read_targets(p) == {"u0": ("ab", "c_"), "u1": ("c_",)}


@pytest.mark.parametrize("body, message", [
    ("u0\ta_\nu0\tb_\nu1\tc_\n", "duplicate"),
    ("u0\ta_\nu1\t\n", "empty"),
])
def test_targets_reject_a_repeated_or_empty_row(tmp_path, body, message):
    p = tmp_path / "targets.tsv"
    p.write_text("#adsm-targets-v1\n" + body)
    with pytest.raises(FormatError, match=message) as err:
        read_targets(p)
    assert err.value.line == 3


def test_load_corpus_joins_and_warns(tmp_path, caplog):
    write_features([FeatureMatrix("u0", np.ones((1, 2))),
                    FeatureMatrix("u2", np.ones((1, 2)))], tmp_path / "f.tsv")
    write_transcripts([("u0", ("a",)), ("u1", ("b",))], tmp_path / "t.tsv")
    with caplog.at_level(logging.WARNING):
        corp = load_corpus(tmp_path / "f.tsv", tmp_path / "t.tsv")
    assert [u.utt_id for u in corp] == ["u0"]
    assert "u2" in caplog.text and "u1" in caplog.text


def test_synthetic_spec_validation():
    SyntheticSpec(word_segs={"ab": ("a", "b")})
    with pytest.raises(ValueError, match="spell"):
        SyntheticSpec(word_segs={"ab": ("a", "c")})
    with pytest.raises(ValueError, match="no words"):
        SyntheticSpec(word_segs={})
    with pytest.raises(ValueError, match="min_words"):
        SyntheticSpec(word_segs={"ab": ("ab",)}, min_words=3, max_words=2)


def test_make_prototypes_distinct():
    spec = SyntheticSpec(word_segs={"ab": ("a", "b")}, dim=4, seed=1)
    protos = make_prototypes(spec)
    assert set(protos) == {"a", "b"}
    assert all(v.shape == (4,) for v in protos.values())
    clash = SyntheticSpec(word_segs={"ab": ("a", "b")}, dim=4,
                          prototypes={"a": np.zeros(4), "b": np.zeros(4)})
    with pytest.raises(ValueError, match="distinct"):
        make_prototypes(clash)


SEGS = {"ab": ("ab",), "abcd": ("ab", "cd"), "cdab": ("cd", "ab"),
        "cd": ("cd",)}


def test_gen_synthetic_shapes_and_truth():
    spec = SyntheticSpec(word_segs=SEGS, dim=3, frames_per_unit=4, noise=0.05,
                         n_utterances=30, min_words=1, max_words=3, seed=2)
    corp, truth = gen_synthetic(spec)
    assert len(corp) == 30
    seen = set()
    for utt in corp:
        units = truth[utt.utt_id]
        assert utt.features.values.shape == (4 * len(units), 3)
        # the flat truth re-spells the transcription with word-end flags
        spelled = []
        for w in utt.words:
            chunks = SEGS[w]
            spelled.extend((c, j == len(chunks) - 1)
                           for j, c in enumerate(chunks))
        assert units == tuple(spelled)
        seen.update(utt.words)
    assert seen == set(SEGS)  # every word occurs at least once


def test_gen_synthetic_never_repeats_units_across_boundaries():
    spec = SyntheticSpec(word_segs=SEGS, dim=3, frames_per_unit=2, noise=0.0,
                         n_utterances=200, min_words=2, max_words=5, seed=3)
    _, truth = gen_synthetic(spec)
    for units in truth.values():
        for a, b in zip(units, units[1:]):
            assert a != b


def test_gen_synthetic_is_seeded():
    spec = SyntheticSpec(word_segs=SEGS, dim=3, n_utterances=5, seed=4)
    c1, t1 = gen_synthetic(spec)
    c2, t2 = gen_synthetic(spec)
    assert t1 == t2
    for a, b in zip(c1, c2):
        np.testing.assert_array_equal(a.features.values, b.features.values)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(word_segs=SEGS, dim=3, frames_per_unit=4, n_utterances=20, seed=5,
                  prototypes={c: np.arange(3.0) * k for k, c in enumerate(["ab", "cd"], 1)}),
    SyntheticSpec(word_segs=SEGS, dim=4, frames_per_unit=1, n_utterances=20, seed=6),
    SyntheticSpec(word_segs=SEGS, dim=1, frames_per_unit=3, n_utterances=20, seed=7),
    SyntheticSpec(word_segs=SEGS, dim=2, n_utterances=20, min_words=3, max_words=3,
                  noise=0.3, seed=8),
])
def test_gen_synthetic_equals_per_chunk_draws(spec):
    corp, truth = gen_synthetic(spec)
    ref, ref_truth = gen_synthetic_per_chunk(spec)
    assert truth == ref_truth
    assert [u.words for u in corp] == [u.words for u in ref]
    for a, b in zip(corp, ref, strict=True):
        assert a.features.values.shape == b.features.values.shape
        assert a.features.values.tobytes() == b.features.values.tobytes()


def test_gen_synthetic_rejects_unavoidable_repeats():
    spec = SyntheticSpec(word_segs={"ab": ("ab",)}, min_words=2, max_words=2,
                         n_utterances=2)
    with pytest.raises(ValueError, match="repeated unit"):
        gen_synthetic(spec)


def test_g2p_entries_match_generator():
    spec = SyntheticSpec(word_segs=SEGS)
    entries = g2p_entries_for(spec)
    assert [e.word for e in entries] == sorted(SEGS)
    for e in entries:
        assert tuple(g for g, _ in e.pairs) == SEGS[e.word]
        assert all(ph == g for g, ph in e.pairs)


def test_metrics_for_implicit_counts_all_segmentations():
    entries = g2p_entries_for(SyntheticSpec(word_segs=SEGS))
    vocab = build_initial_vocab(entries, sorted(SEGS))
    table = make_initial_segtable(sorted(SEGS), vocab)
    row = metrics_for("init", vocab, table)
    spellings = {s for s, _ in vocab.units}
    per_word = [enumerate_segmentations(w, spellings) for w in sorted(SEGS)]
    want_v = float(np.mean([len(segs) for segs in per_word]))
    want_l = float(np.mean([np.mean([len(s) for s in segs]) for segs in per_word]))
    assert row.vocab_size == len(vocab)
    assert row.avg_variants == pytest.approx(want_v)
    assert row.avg_len == pytest.approx(want_l)


def test_metrics_for_explicit_and_weighted():
    vocab = Vocabulary.from_units(
        [("a", False), ("b", True), ("ab", True), ("c", True)])
    a, b_, ab_ = vocab.id_of[("a", False)], vocab.id_of[("b", True)], vocab.id_of[("ab", True)]
    table = SegTable.explicit(
        {"ab": [((a, b_), 0.5), ((ab_,), 0.5)],
         "c": [((vocab.id_of[("c", True)],), 1.0)]}, vocab)
    row = metrics_for("x", vocab, table)
    assert row == MetricsRow("x", 4, 1.5, (1.5 + 1.0) / 2)
    weighted = metrics_for("x", vocab, table, word_counts={"ab": 3, "c": 1})
    assert weighted.avg_variants == pytest.approx((2 * 3 + 1 * 1) / 4)
    assert weighted.avg_len == pytest.approx((1.5 * 3 + 1.0 * 1) / 4)


def test_format_report_shape():
    text = format_report([MetricsRow("init", 10, 2.5, 1.25)])
    lines = text.splitlines()
    assert lines[0] == "#adsm-metrics-v1"
    assert lines[1].split("\t") == ["step", "vocab_size", "avg_variants", "avg_len"]
    assert lines[2] == "init\t10\t2.5\t1.25"
