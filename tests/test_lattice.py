import numpy as np
import pytest

from adsm.lattice import (build_word_dag_explicit, build_word_dag_implicit,
                          concat_utterance, ctc_expand, dump_dag, dump_graph,
                          enumerate_label_paths, lattice_from_dag, path_stats,
                          path_length_stats)
from adsm.vocab import Vocabulary
from conftest import chars_vocab, enumerate_segmentations, flagged


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
    assert [(u, v, vocab.spelling(uid)) for u, v, uid in dag.arcs] == [
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
    assert dag.node_pos[dag.sink] == 3


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
    assert lat.boundaries == (0, 2, 3, 5)
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
            assert g.state_arc[s] == a
            assert g.state_word[s] == w

        trans = set(g.transitions())
        for s in range(g.n_states):
            assert (s, s) in trans  # self loops everywhere
        # cross-check succ/pred symmetry; tables are ascending, sentinel-padded
        assert trans == {(s, int(t)) for s in range(g.n_states)
                         for t in g.succ[:, s] if t < g.n_states}
        for table in (g.pred, g.succ):
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
    graph's successor table: after a label state the next one follows
    directly or through one blank state."""
    n = g.n_states

    def succ(s):
        return {int(t) for t in g.succ[:, s] if t < n and t != s}

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


def test_dumps_are_line_oriented():
    vocab = chars_vocab("ab")
    dag = build_word_dag_implicit("ab", vocab)
    text = dump_dag(dag, vocab)
    assert text.startswith("#adsm-dag-v1\n")
    assert "arc 0 1 a" in text
    g = ctc_expand(lattice_from_dag(dag), vocab)
    gtext = dump_graph(g, vocab)
    assert gtext.startswith("#adsm-graph-v1\n")
    assert gtext.count("state ") == g.n_states
    assert gtext.count("\narc ") == len(g.transitions())
