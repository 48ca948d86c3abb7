import re

import numpy as np
import pytest

from adsm import lattice as lattice_mod
from adsm.ctc import _successors
from adsm.lattice import (UttLattice, build_word_dag_explicit, build_word_dag_implicit,
                          concat_utterance, ctc_expand, expand_lattices, path_stats,
                          path_length_stats)
from adsm.vocab import Vocabulary
from conftest import chars_vocab, enumerate_segmentations, flagged, random_oracle_instance
from _reference import ctc_expand_reference, enumerate_label_paths, transitions


def spell_paths(paths, vocab):
    return {tuple(vocab.spelling(uid) for uid in p) for p in paths}


def test_implicit_dag_matches_plain_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        word = "".join(rng.choice(list("abc"), size=int(rng.integers(1, 6))))
        extra = [("".join(rng.choice(list("abc"), size=2)), bool(rng.integers(2)))
                 for _ in range(3)]
        vocab = Vocabulary.from_units(set(chars_vocab(word).units) | set(extra))
        dag = build_word_dag_implicit(word, vocab)
        got = spell_paths(enumerate_label_paths(dag), vocab)
        spellings = {s for s, _ in vocab.units}
        want = set()
        for seg in enumerate_segmentations(word, spellings):
            units = flagged(seg)
            if all(u in vocab.id_of for u in units):
                want.add(tuple(vocab.spelling(vocab.id_of[u]) for u in units))
        assert got == want


def test_implicit_dag_known_path_count():
    # "word" over its characters plus chunks "or" and "rd"
    vocab = Vocabulary.from_units(
        list(chars_vocab("word").units) + [("or", False), ("rd", True)])
    dag = build_word_dag_implicit("word", vocab)
    got = spell_paths(enumerate_label_paths(dag), vocab)
    assert got == {("w", "o", "r", "d_"),
                   ("w", "or", "d_"),
                   ("w", "o", "rd_")}


def test_implicit_dag_prunes_dead_arcs():
    vocab = Vocabulary.from_units([("a", False), ("ab", False), ("c", True)])
    dag = build_word_dag_implicit("abc", vocab)
    # the (a, ...) start is a dead end: "b"/"bc" are not units
    assert [(u, v, vocab.spelling(uid)) for u, v, uid, _ in dag.arcs] == [
        (0, 2, "ab"), (2, 3, "c_")]


def test_implicit_dag_unspellable_word_raises():
    vocab = Vocabulary.from_units([("a", False), ("a", True)])
    with pytest.raises(ValueError, match="not spellable"):
        build_word_dag_implicit("ab", vocab)


def test_explicit_dag_is_exactly_the_variant_set():
    # same word "aaa" two ways; the union-graph would invent ("a","a","a_")
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("aa", False), ("aa", True)])
    variants = [tuple(vocab.id_of[u] for u in flagged(("a", "aa"))),
                tuple(vocab.id_of[u] for u in flagged(("aa", "a")))]
    dag = build_word_dag_explicit(variants, vocab)
    assert spell_paths(enumerate_label_paths(dag), vocab) == {
        ("a", "aa_"), ("aa", "a_")}
    assert dag.words == ("aaa",)


def test_explicit_dag_shares_prefixes():
    vocab = Vocabulary.from_units(
        list(chars_vocab("abcd").units) + [("cd", True)])
    variants = [tuple(vocab.id_of[u] for u in flagged(seg))
                for seg in [("a", "b", "c", "d"), ("a", "b", "cd")]]
    dag = build_word_dag_explicit(variants, vocab)
    # shared a-b prefix: nodes source, after-a, after-b, after-c, sink
    assert dag.n_nodes == 5
    assert len(dag.arcs) == 5


def test_explicit_dag_rejects_mixed_words():
    vocab = chars_vocab("ab")
    va = (vocab.id_of[("a", True)],)
    vb = (vocab.id_of[("b", True)],)
    with pytest.raises(ValueError, match="different words"):
        build_word_dag_explicit([va, vb], vocab)
    with pytest.raises(ValueError, match="word_end"):
        build_word_dag_explicit([(vocab.id_of[("a", False)],)], vocab)
    with pytest.raises(ValueError, match="no variants"):
        build_word_dag_explicit([], vocab)


def test_concat_utterance_fuses_boundaries():
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", True), ("ab", True)])
    dag_ab = build_word_dag_implicit("ab", vocab)
    dag_a = build_word_dag_implicit("a", vocab)
    lat = concat_utterance([dag_ab, dag_a, dag_ab])
    assert lat.words == ("ab", "a", "ab")
    assert lat.n_nodes == 6
    words_on_arcs = {w for _, _, _, w in lat.arcs}
    assert words_on_arcs == {0, 1, 2}
    got = spell_paths(enumerate_label_paths(lat), vocab)
    per_word = [("a", "b_"), ("ab_",)]
    want = {w1 + ("a_",) + w2 for w1 in per_word for w2 in per_word}
    assert got == want


def test_concat_utterance_rejects_empty():
    with pytest.raises(ValueError):
        concat_utterance([])


def test_concat_utterance_of_utterances_is_flat():
    rng = np.random.default_rng(41)
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True), ("ab", True)])
    for _ in range(30):
        words = ["".join(rng.choice(list("ab"), size=int(rng.integers(1, 4))))
                 for _ in range(int(rng.integers(1, 7)))]
        lattices = [build_word_dag_implicit(w, vocab) for w in words]
        cuts = sorted(rng.choice(np.arange(1, len(words)), size=int(rng.integers(len(words))),
                             replace=False).tolist())
        parts = [concat_utterance(lattices[lo:hi])
                 for lo, hi in zip([0] + cuts, cuts + [len(words)])]
        flat = concat_utterance(lattices)
        assert flat.words == tuple(words)
        assert concat_utterance(parts) == flat


def random_lattice(rng):
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True), ("ab", True)])
    dags = []
    for _ in range(int(rng.integers(1, 3))):
        word = "".join(rng.choice(list("ab"), size=int(rng.integers(1, 4))))
        dags.append(build_word_dag_implicit(word, vocab))
    return concat_utterance(dags), vocab


def test_ctc_expand_structure():
    rng = np.random.default_rng(23)
    for _ in range(50):
        lat, vocab = random_lattice(rng)
        g = ctc_expand(lat, vocab)
        n_nodes, n_arcs = lat.n_nodes, len(lat.arcs)
        assert g.n_states == n_nodes + n_arcs
        assert g.blank == vocab.blank_id
        assert all(g.labels[:n_nodes] == g.blank)
        for a, (_, _, uid, w) in enumerate(lat.arcs):
            s = n_nodes + a
            assert g.labels[s] == uid
            assert g.state_word[s] == w

        trans = set(transitions(g))
        for s in range(g.n_states):
            assert (s, s) in trans  # self loops everywhere
        # cross-check the derived successors against the predecessors;
        # tables are ascending, sentinel-padded
        succ = _successors(g.pred)
        assert trans == {(s, int(t)) for s in range(g.n_states)
                         for t in succ[:, s] if t < g.n_states}
        for table in (g.pred, succ):
            assert np.all((np.diff(table, axis=0) > 0) | (table[1:] == g.n_states))
        for a, (u, v, uid, _) in enumerate(lat.arcs):
            s = n_nodes + a
            assert (u, s) in trans and (s, v) in trans
            for b, (u2, _, uid2, _) in enumerate(lat.arcs):
                if b == a:
                    continue  # self loop, always present
                expect = u2 == v and uid2 != uid
                assert ((s, n_nodes + b) in trans) == expect

        assert set(g.initial) == {0} | {
            n_nodes + a for a, (u, _, _, _) in enumerate(lat.arcs) if u == 0}
        assert set(g.final) == {n_nodes - 1} | {
            n_nodes + a for a, (_, v, _, _) in enumerate(lat.arcs)
            if v == n_nodes - 1}


def test_ctc_expand_min_frames_counts_forced_blanks():
    rng = np.random.default_rng(29)
    for _ in range(50):
        lat, vocab = random_lattice(rng)
        g = ctc_expand(lat, vocab)
        paths = enumerate_label_paths(lat)
        # a repeated label needs one separating blank frame
        want = min(len(p) + sum(p[i] == p[i + 1] for i in range(len(p) - 1))
                   for p in paths)
        assert g.min_frames == want


def test_path_stats_match_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(30):
        lat, vocab = random_lattice(rng)
        paths = enumerate_label_paths(lat)
        lens = [len(p) for p in paths]
        assert path_stats(lat) == (len(paths), min(lens), max(lens))
        count, mean = path_length_stats(lat)
        assert count == len(paths)
        assert mean == pytest.approx(sum(lens) / len(lens))
        g = ctc_expand(lat, vocab)
        walked = graph_label_paths(g)
        assert sorted(walked) == sorted(paths)
        assert (len(walked), min(map(len, walked)), max(map(len, walked))) == path_stats(lat)


def graph_label_paths(g):
    """Label sequence of every path over label states, walked through the
    successor table derived from its predecessors: after a label state the
    next one follows directly or through one blank state."""
    n = g.n_states
    table = _successors(g.pred)

    def succ(s):
        return {int(t) for t in table[:, s] if t < n and t != s}

    def next_labels(s):
        return {t for v in succ(s) for t in ({v} if g.labels[v] != g.blank else succ(v))
                if g.labels[t] != g.blank}

    final = set(g.final.tolist())
    out = []

    def walk(s, prefix):
        prefix = prefix + (int(g.labels[s]),)
        if s in final:
            out.append(prefix)
        for t in next_labels(s):
            walk(t, prefix)

    for s in g.initial.tolist():
        if g.labels[s] != g.blank:
            walk(s, ())
    return out


GRAPH_FIELDS = ("labels", "initial", "final", "pred", "state_word")


def assert_same_graph(got, want):
    for field in GRAPH_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert np.array_equal(a, b), field
    assert (got.blank, got.min_frames) == (want.blank, want.min_frames)
    assert type(got.min_frames) is int


def assert_expands_as_reference(lattices, vocab, rng):
    """Every graph equals the one-lattice reference expansion: in one call,
    in a shuffled call, one lattice per call, and in calls of random sizes."""
    want = [ctc_expand_reference(lat, vocab) for lat in lattices]
    for got, w in zip(expand_lattices(lattices, vocab), want, strict=True):
        assert_same_graph(got, w)
    order = rng.permutation(len(lattices))
    for got, i in zip(expand_lattices([lattices[i] for i in order], vocab), order, strict=True):
        assert_same_graph(got, want[i])
    for lat, w in zip(lattices, want):
        assert_same_graph(ctc_expand(lat, vocab), w)
    lo = 0
    while lo < len(lattices):
        hi = lo + int(rng.integers(1, 12))
        for got, w in zip(expand_lattices(lattices[lo:hi], vocab), want[lo:hi], strict=True):
            assert_same_graph(got, w)
        lo = hi


def utterance_lattices(rng, explicit, n=60):
    """Utterances of 6 to 10 words over characters and two-letter chunks:
    every split of each word (as in the first round), or a few of them per
    word (as after refinement).  The one-letter words repeat a word-final
    label across a word boundary."""
    words = ["bage", "ceha", "dila", "la", "baceab", "abba", "aa", "a"]
    chunks = ["ba", "ce", "di", "ga", "he", "la", "ab"]
    vocab = Vocabulary.from_units({(c, e) for c in set("".join(words)) | set(chunks)
                                   for e in (False, True)})
    dags = {}
    for word in words:
        dag = build_word_dag_implicit(word, vocab)
        if explicit:
            paths = enumerate_label_paths(dag)
            pick = rng.choice(len(paths), size=min(len(paths), 3), replace=False)
            dag = build_word_dag_explicit([paths[i] for i in pick], vocab)
        dags[word] = dag
    lattices = [concat_utterance([dags[w] for w in rng.choice(words, size=int(rng.integers(6, 11)))])
                for _ in range(n)]
    return lattices, vocab


def test_expand_lattices_equals_reference_on_c1_instances():
    rng = np.random.default_rng(20)     # the instances of acceptance check C1
    by_vocab = {}
    for lat, vocab, _ in (random_oracle_instance(rng) for _ in range(200)):
        by_vocab.setdefault(vocab.units, (vocab, []))[1].append(lat)
    for vocab, lattices in by_vocab.values():
        assert_expands_as_reference(lattices, vocab, rng)


def test_expand_lattices_equals_reference_on_random_lattices():
    rng = np.random.default_rng(23)
    pairs = [random_lattice(rng) for _ in range(150)]
    assert_expands_as_reference([lat for lat, _ in pairs], pairs[0][1], rng)


@pytest.mark.parametrize("explicit", [False, True])
def test_expand_lattices_equals_reference_on_utterances(explicit, monkeypatch):
    rng = np.random.default_rng(37)
    lattices, vocab = utterance_lattices(rng, explicit)
    assert_expands_as_reference(lattices, vocab, rng)
    monkeypatch.setattr(lattice_mod, "EXPAND_STACK", 7)
    assert_expands_as_reference(lattices, vocab, rng)


def test_expand_lattices_min_frames_of_degenerate_lattices():
    vocab = chars_vocab("ab")
    a, b_ = vocab.id_of[("a", False)], vocab.id_of[("b", True)]
    one_node = UttLattice(("",), 1, ())
    no_path = UttLattice(("ab",), 3, ((0, 1, a, 0),))
    dead_arc = UttLattice(("ab",), 4, ((0, 1, a, 0), (1, 3, b_, 0), (2, 3, b_, 0)))
    lattices = [one_node, no_path, dead_arc]
    graphs = expand_lattices(lattices, vocab)
    # one blank frame; no path at all reads the state count + 1
    assert [g.min_frames for g in graphs] == [1, 5, 2]
    for got, lat in zip(graphs, lattices):
        assert_same_graph(got, ctc_expand_reference(lat, vocab))
    assert expand_lattices([], vocab) == []


@pytest.mark.parametrize("arc", [(1, 0), (1, 1), (0, 2), (-1, 1)],
                         ids=["backward", "self", "past the sink", "negative"])
def test_expand_lattices_rejects_arcs_against_node_order(arc):
    vocab = chars_vocab("a")
    a_ = vocab.id_of[("a", True)]
    good = UttLattice(("a",), 2, ((0, 1, a_, 0),))
    bad = UttLattice(("a",), 2, ((0, 1, a_, 0), (*arc, a_, 0)))
    with pytest.raises(ValueError, match=re.escape(f"arc 1 {(*arc, a_, 0)} of lattice 1 ")):
        expand_lattices([good, bad], vocab)
    with pytest.raises(ValueError, match="lower to a higher node"):
        ctc_expand(bad, vocab)
