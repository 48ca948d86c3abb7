import itertools
import math

import numpy as np
import pytest

from adsm import ctc
from adsm.ctc import (_expand, _log_space_loss, _stack, _successors, batch_log_loss, collapse,
                      emission_columns, estimate_prior, log_loss, logsumexp, sample_path,
                      viterbi, viterbi_paths)
from adsm.errors import InfeasibleUtteranceError, NumericalError
from adsm.lattice import build_word_dag_explicit, build_word_dag_implicit, \
    concat_utterance, ctc_expand
from adsm.vocab import Vocabulary
from conftest import (chars_vocab, flagged, implicit_instance, random_logp,
                      random_oracle_instance)
from _reference import (ctc_loss_single, enumerate_label_paths, enumerate_oracle,
                        forward_backward_extended, prior_mean, successor_table,
                        viterbi_states)


def test_collapse():
    assert collapse([4, 0, 0, 4, 1, 4], blank=4) == (0, 1)
    assert collapse([0, 0, 1, 1, 0], blank=4) == (0, 1, 0)
    assert collapse([4, 4, 4], blank=4) == ()
    assert collapse([], blank=0) == ()
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = [int(v) for v in rng.integers(0, 4, size=int(rng.integers(0, 9)))]
        want = tuple(k for k, _ in itertools.groupby(y) if k != 3)
        assert collapse(y, blank=3) == want


def test_log_loss_matches_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        lat, vocab, logp = random_oracle_instance(rng)
        graph = ctc_expand(lat, vocab)
        loss, _ = log_loss(graph, logp)
        want = enumerate_oracle(lat, logp).loss
        assert loss == pytest.approx(want, rel=1e-9)


def test_occupancy_rows_sum_to_one():
    rng = np.random.default_rng(103)
    for _ in range(30):
        lat, vocab, logp = random_oracle_instance(rng)
        _, occ = log_loss(ctc_expand(lat, vocab), logp)
        np.testing.assert_allclose(occ.sum(axis=1), 1.0, rtol=1e-9)


def test_occupancy_matches_oracle_marginals():
    # occ[t, c] must equal the posterior mass of accepted frame strings with
    # class c at frame t
    rng = np.random.default_rng(107)
    for _ in range(20):
        lat, vocab, logp = random_oracle_instance(rng)
        _, occ = log_loss(ctc_expand(lat, vocab), logp)
        want = np.zeros_like(occ)
        for y, p in enumerate_oracle(lat, logp).path_probs.items():
            for t, c in enumerate(y):
                want[t, c] += p
        np.testing.assert_allclose(occ, want, atol=1e-10)


def test_single_variant_reduces_to_plain_ctc():
    rng = np.random.default_rng(109)
    for _ in range(20):
        vocab = chars_vocab("ab")
        word = "".join(rng.choice(list("ab"), size=int(rng.integers(1, 4))))
        ids = tuple(vocab.id_of[u] for u in flagged(tuple(word)))
        dag = build_word_dag_explicit([ids], vocab)
        graph = ctc_expand(dag, vocab)
        T = int(rng.integers(graph.min_frames, graph.min_frames + 4))
        logp = random_logp(rng, T, vocab.num_classes)
        loss, _ = log_loss(graph, logp)
        want = ctc_loss_single(logp, ids, vocab.blank_id)
        assert loss == pytest.approx(want, rel=1e-9)


def test_viterbi_matches_oracle_argmax():
    rng = np.random.default_rng(113)
    for _ in range(40):
        lat, vocab, logp = random_oracle_instance(rng)
        ali = viterbi(ctc_expand(lat, vocab), logp)
        want = enumerate_oracle(lat, logp).best_path
        assert ali.frame_labels == want
        assert collapse(ali.frame_labels, vocab.blank_id) == ali.collapsed
        assert tuple(s for s, _ in ali.spans) == tuple(sorted(s for s, _ in ali.spans))


def test_viterbi_prior_division_changes_the_winner():
    vocab = Vocabulary.from_units([("a", False), ("ab", True), ("b", True)])
    a, ab_, b_ = (vocab.id_of[u] for u in [("a", False), ("ab", True), ("b", True)])
    lat = build_word_dag_explicit([(a, b_), (ab_,)], vocab)
    graph = ctc_expand(lat, vocab)
    logp = np.log(np.array([[0.10, 0.60, 0.05, 0.25],
                            [0.05, 0.55, 0.30, 0.10]]))
    prior = np.array([0.02, 0.90, 0.03, 0.05])
    plain = viterbi(graph, logp)
    assert plain.collapsed == (ab_,)
    # exhaustive rescore of the 4 accepted strings with the divided scores
    scores = logp - 1.0 * np.log(prior)
    best_y, best = None, -math.inf
    for y in [(ab_, ab_), (ab_, vocab.blank_id), (vocab.blank_id, ab_), (a, b_)]:
        s = scores[0, y[0]] + scores[1, y[1]]
        if s > best:
            best_y, best = y, s
    assert best_y == (a, b_)
    flipped = viterbi(graph, logp, prior=prior, prior_scale=1.0)
    assert flipped.frame_labels == (a, b_)
    assert flipped.collapsed == (a, b_)


def test_viterbi_tie_breaks_to_smallest_predecessor():
    # uniform scores make every accepted 2-frame path of "a" equal; states are
    # blank0=0, blank1=1, label=2 and the backtrace rule keeps ids small:
    # ending at state 1 via label state 2 gives frame labels (a_, eps)
    vocab = Vocabulary.from_units([("a", True)])
    dag = build_word_dag_implicit("a", vocab)
    graph = ctc_expand(dag, vocab)
    logp = np.full((2, 2), math.log(0.5))
    ali = viterbi(graph, logp)
    assert ali.frame_states == (2, 1)
    assert ali.collapsed == (vocab.id_of[("a", True)],)
    again = viterbi(graph, logp)
    assert again.frame_states == ali.frame_states


def test_viterbi_validates_inputs():
    vocab = Vocabulary.from_units([("a", True)])
    graph = ctc_expand(build_word_dag_implicit("a", vocab), vocab)
    logp = np.full((2, 2), math.log(0.5))
    with pytest.raises(ValueError, match="prior"):
        viterbi(graph, logp, prior_scale=0.3)
    with pytest.raises(ValueError, match="prior scale"):
        viterbi(graph, logp, prior=np.array([0.5, 0.5]), prior_scale=1.5)
    with pytest.raises(ValueError, match="shape"):
        viterbi(graph, logp, prior=np.array([0.5, 0.3, 0.2]), prior_scale=0.3)


def test_estimate_prior_is_mean_posterior():
    p1 = np.log(np.array([[0.5, 0.5], [0.9, 0.1]]))
    p2 = np.log(np.array([[0.2, 0.8]]))
    sums = np.stack([np.exp(p).sum(axis=0) for p in (p1, p2)])
    q = estimate_prior(sums, 3)
    np.testing.assert_allclose(q, [(0.5 + 0.9 + 0.2) / 3, (0.5 + 0.1 + 0.8) / 3])
    assert q.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="empty"):
        estimate_prior(np.zeros((0, 2)), 0)
    with pytest.raises(NumericalError, match="non-finite"):
        estimate_prior(np.where(sums > 1.0, np.nan, sums), 3)


def test_estimate_prior_equals_the_running_mean_bitwise():
    rng = np.random.default_rng(43)
    posteriors = [random_logp(rng, int(rng.integers(1, 300)), 37) for _ in range(60)]
    sums = np.stack([np.exp(p).sum(axis=0) for p in posteriors])
    got = estimate_prior(sums, sum(len(p) for p in posteriors))
    np.testing.assert_array_equal(got, prior_mean(posteriors, 37))


def test_sample_path_is_seeded_and_valid():
    rng = np.random.default_rng(127)
    lat, vocab, logp = random_oracle_instance(rng)
    graph = ctc_expand(lat, vocab)
    allowed = set(enumerate_label_paths(lat))
    a1 = sample_path(graph, logp, rng=5)
    a2 = sample_path(graph, logp, rng=5)
    assert a1.frame_states == a2.frame_states
    for _ in range(20):
        ali = sample_path(graph, logp, rng=rng)
        assert ali.collapsed in allowed


def test_sample_path_frequencies_track_posteriors():
    vocab = chars_vocab("ab")
    ids = tuple(vocab.id_of[u] for u in flagged(("a", "b")))
    lat = build_word_dag_explicit([ids], vocab)
    graph = ctc_expand(lat, vocab)
    rng = np.random.default_rng(131)
    logp = random_logp(rng, 3, vocab.num_classes)
    probs = enumerate_oracle(lat, logp).path_probs
    n = 4000
    counts = {}
    for _ in range(n):
        y = sample_path(graph, logp, rng=rng).frame_labels
        counts[y] = counts.get(y, 0) + 1
    assert set(counts) <= set(probs)
    for y, p in probs.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts.get(y, 0) - n * p) <= max(3 * sigma, 1.0)


def test_sample_path_temperature_validated():
    vocab = Vocabulary.from_units([("a", True)])
    graph = ctc_expand(build_word_dag_implicit("a", vocab), vocab)
    with pytest.raises(ValueError, match="temperature"):
        sample_path(graph, np.full((1, 2), math.log(0.5)), temperature=0.0)


def test_infeasible_and_numerical_errors():
    vocab = chars_vocab("ab")
    ids = tuple(vocab.id_of[u] for u in flagged(("a", "b")))
    graph = ctc_expand(build_word_dag_explicit([ids], vocab), vocab)
    short = np.full((1, vocab.num_classes), -math.log(vocab.num_classes))
    with pytest.raises(InfeasibleUtteranceError):
        log_loss(graph, short)
    bad = np.full((3, vocab.num_classes), -math.log(vocab.num_classes))
    bad[1, 0] = math.nan
    with pytest.raises(NumericalError):
        log_loss(graph, bad)
    bad[1, 0] = -math.inf
    with pytest.raises(NumericalError):
        viterbi(graph, bad)


def test_oracle_refuses_large_instances():
    vocab = chars_vocab("ab")
    lat = build_word_dag_implicit("ab", vocab)
    with pytest.raises(ValueError, match="too large"):
        enumerate_oracle(lat, random_logp(np.random.default_rng(0), 9, vocab.num_classes))


def test_forced_blank_between_repeated_units():
    # word-internal vs word-final copies are distinct classes: "aa" needs no
    # separating blank, but two adjacent words "a" repeat the same class and do
    vocab = Vocabulary.from_units([("a", False), ("a", True)])
    word_dag = build_word_dag_implicit("aa", vocab)
    assert ctc_expand(word_dag, vocab).min_frames == 2
    a_dag = build_word_dag_implicit("a", vocab)
    lat = concat_utterance([a_dag, a_dag])
    graph = ctc_expand(lat, vocab)
    assert graph.min_frames == 3
    with pytest.raises(InfeasibleUtteranceError):
        log_loss(graph, random_logp(np.random.default_rng(7), 2, vocab.num_classes))
    logp = random_logp(np.random.default_rng(7), 3, vocab.num_classes)
    loss, _ = log_loss(graph, logp)
    assert loss == pytest.approx(enumerate_oracle(lat, logp).loss, rel=1e-9)
    a_ = vocab.id_of[("a", True)]
    assert set(enumerate_oracle(lat, logp).path_probs) == {(a_, vocab.blank_id, a_)}


def test_forward_only_loss_equals_full_loss_on_c1_instances():
    rng = np.random.default_rng(20)     # the instances of acceptance check C1
    for _ in range(200):
        lat, vocab, logp = random_oracle_instance(rng)
        graph = ctc_expand(lat, vocab)
        loss, occ = log_loss(graph, logp, occupancy=False)
        assert occ is None
        assert loss == log_loss(graph, logp)[0]


def test_scaled_sweep_matches_log_space_on_c1_instances():
    rng = np.random.default_rng(20)     # the instances of acceptance check C1
    for _ in range(200):
        lat, vocab, logp = random_oracle_instance(rng)
        graph = ctc_expand(lat, vocab)
        loss, occ = log_loss(graph, logp)
        want, want_occ = _log_space_loss([graph], logp[None], np.array([len(logp)]), True)
        assert abs(loss - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert np.abs(occ - want_occ[0]).max() <= 1e-12


def test_long_utterance_keeps_its_scale():
    # 60 words over 450 frames: the loss is over 800 nats, so the unscaled
    # forward mass would underflow (below e^-745) unless frames are rescaled
    vocab = Vocabulary.from_units(
        [(c, e) for c in "abc" for e in (False, True)]
        + [("ab", False), ("ab", True), ("bc", True), ("ca", False)])
    rng = np.random.default_rng(0)
    words = rng.choice(["a", "ab", "abc", "cab", "bca"], size=60)
    graph = ctc_expand(concat_utterance([build_word_dag_implicit(w, vocab) for w in words]),
                       vocab)
    T = 450
    assert graph.min_frames < T
    logp = random_logp(rng, T, vocab.num_classes)
    with np.errstate(all="raise"):
        loss, occ = log_loss(graph, logp)
    want, want_occ = _log_space_loss([graph], logp[None], np.array([T]), True)
    exact, exact_occ = forward_backward_extended(graph, logp)
    assert loss > 800
    assert abs(loss - want[0]) <= 1e-12 * abs(want[0])
    assert abs(loss - exact) <= 1e-12 * abs(exact)
    assert np.abs(occ - exact_occ).max() <= 1e-12
    # The log-space occupancy exponentiates sums of about 1e3 nats, so its
    # own error here is about 1e-12 against the extended-precision one.
    assert np.abs(occ - want_occ[0]).max() <= 1e-11


def _underflow_instance(T=4):
    """The "ab" graph over T frames with every unit at -1000 and the blank
    at 0: scaled by each frame's best score, no unit survives the sweep."""
    vocab = chars_vocab("ab")
    ids = tuple(vocab.id_of[u] for u in flagged(("a", "b")))
    graph = ctc_expand(build_word_dag_explicit([ids], vocab), vocab)
    logp = np.full((T, vocab.num_classes), -1000.0)
    logp[:, vocab.blank_id] = 0.0
    return vocab, ids, graph, logp


def _spy_on_fallback(monkeypatch):
    calls = []
    fallback = ctc._log_space_loss
    monkeypatch.setattr(ctc, "_log_space_loss",
                        lambda graphs, *a: calls.append(list(graphs)) or fallback(graphs, *a))
    return calls


def test_underflowing_block_falls_back_to_log_space(monkeypatch):
    vocab, ids, graph, logp = _underflow_instance()
    want, want_occ = _log_space_loss([graph], logp[None], np.array([4]), True)
    calls = _spy_on_fallback(monkeypatch)
    loss, occ = log_loss(graph, logp)
    forward_only, _ = log_loss(graph, logp, occupancy=False)
    assert calls == [[graph], [graph]]
    assert loss == forward_only == want[0]
    assert loss == pytest.approx(2000.0 - math.log(6), rel=1e-12)   # six frame strings
    assert loss == pytest.approx(ctc_loss_single(logp, ids, vocab.blank_id), rel=1e-12)
    np.testing.assert_array_equal(occ, want_occ[0])
    np.testing.assert_allclose(occ.sum(axis=1), 1.0, rtol=1e-12)


def test_backward_overflow_falls_back_to_log_space(monkeypatch):
    # Only the last unit, b_, scores above -300: its label state holds no
    # forward mass for five frames, each normaliser is about e^-300, and
    # that state's scaled backward value overflows while the loss is finite.
    vocab = chars_vocab("ab")
    ids = tuple(vocab.id_of[u] for u in flagged(("a", "a", "a", "b")))
    graph = ctc_expand(build_word_dag_explicit([ids], vocab), vocab)
    logp = np.full((8, vocab.num_classes), -300.0)
    logp[:, vocab.id_of[("b", True)]] = 0.0
    want, want_occ = _log_space_loss([graph], logp[None], np.array([8]), True)
    calls = _spy_on_fallback(monkeypatch)
    forward_only, _ = log_loss(graph, logp, occupancy=False)
    assert calls == []
    loss, occ = log_loss(graph, logp)
    assert calls == [[graph]]
    assert loss == pytest.approx(forward_only, rel=1e-12)
    assert loss == want[0]
    np.testing.assert_array_equal(occ, want_occ[0])


def test_only_the_underflowing_member_of_a_batch_falls_back(monkeypatch):
    _, _, graph, tiny = _underflow_instance()
    rng = np.random.default_rng(151)
    batch = [implicit_instance(rng, w, max_frames=9) for w in ("abba", "aab")]
    members = [(ctc_expand(lat, vocab), logp) for lat, vocab, logp in batch]
    members.insert(1, (graph, tiny))
    lengths = [len(logp) for _, logp in members]
    padded = rng.standard_normal((3, max(lengths), tiny.shape[1]))    # finite padding
    for b, (_, logp) in enumerate(members):
        padded[b, : len(logp)] = logp
    single = [batch_log_loss([g], logp[None], [len(logp)]) for g, logp in members]
    calls = _spy_on_fallback(monkeypatch)
    losses, occ = batch_log_loss([g for g, _ in members], padded, lengths)
    assert calls == [[graph]]
    for b, (loss, one) in enumerate(single):
        n = lengths[b]
        assert losses[b] == loss[0]
        np.testing.assert_array_equal(occ[b, :n], one[0])
        assert not occ[b, n:].any()


def test_batch_of_several_falling_back_members(monkeypatch):
    # Three blocks fall back together, each ending at its own frame, so the
    # log-space backward must start each block at that block's last frame.
    rng = np.random.default_rng(157)
    tiny = [_underflow_instance(T) for T in (4, 6, 7)]
    lat, vocab, logp = implicit_instance(rng, "abba", max_frames=9)
    members = [(g, lp) for _, _, g, lp in tiny]
    members.insert(2, (ctc_expand(lat, vocab), logp))
    lengths = [len(logp) for _, logp in members]
    padded = rng.standard_normal((len(members), max(lengths), vocab.num_classes))
    for b, (_, logp) in enumerate(members):
        padded[b, : len(logp)] = logp
    single = [batch_log_loss([g], logp[None], [len(logp)]) for g, logp in members]
    calls = _spy_on_fallback(monkeypatch)
    losses, occ = batch_log_loss([g for g, _ in members], padded, lengths)
    assert calls == [[g for _, _, g, _ in tiny]]
    for b, ((g, logp), (loss, one)) in enumerate(zip(members, single)):
        n = lengths[b]
        assert losses[b] == loss[0]
        np.testing.assert_array_equal(occ[b, :n], one[0])
        assert not occ[b, n:].any()
        exact, exact_occ = forward_backward_extended(g, logp)
        assert abs(losses[b] - exact) <= 1e-12 * abs(exact)
        assert np.abs(occ[b, :n] - exact_occ).max() <= 1e-12


def test_underflowing_instance_raises_no_floating_point_warning():
    # exp underflowing to 0 far below a frame's maximum is the intended value
    _, ids, graph, logp = _underflow_instance()
    with np.errstate(all="raise"):
        loss, occ = log_loss(graph, logp)
        forward_only, _ = log_loss(graph, logp, occupancy=False)
        drawn = sample_path(graph, logp, rng=0)
        ali = viterbi(graph, logp)
    assert loss == forward_only == pytest.approx(2000.0 - math.log(6), rel=1e-12)
    np.testing.assert_allclose(occ.sum(axis=1), 1.0, rtol=1e-12)
    assert drawn.collapsed == ali.collapsed == ids


def test_logsumexp_of_all_minus_inf_rows_is_minus_inf():
    x = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [-np.inf, -np.inf]])
    with np.errstate(all="raise"):
        out = logsumexp(x, axis=1)
        cols = logsumexp(x, axis=0)
    np.testing.assert_array_equal(out[:, 0], [-np.inf, 0.0, -np.inf])
    np.testing.assert_array_equal(cols[0], [math.log(1.0), -np.inf])


def test_dp_raises_no_floating_point_warning():
    # Every state past the initial ones is unreachable at frame 0, and at
    # T == min_frames many states can reach no final state in time.
    rng = np.random.default_rng(109)
    instances = [random_oracle_instance(rng) for _ in range(40)]
    instances += [implicit_instance(rng, word) for word in ("abba", "abab", "aab")]
    for lat, vocab, _ in instances:
        graph = ctc_expand(lat, vocab)
        assert graph.n_states > len(graph.initial)
        prior = np.full(vocab.num_classes, 1.0 / vocab.num_classes)
        for T in (graph.min_frames, graph.min_frames + 2):
            logp = random_logp(rng, T, vocab.num_classes)
            with np.errstate(all="raise"):
                loss, occ = log_loss(graph, logp)
                ali = viterbi(graph, logp, prior, 0.3)
                drawn = sample_path(graph, logp, rng=rng)
            assert np.isfinite(loss) and np.all(np.isfinite(occ))
            assert len(ali.frame_states) == len(drawn.frame_states) == T


def _viterbi_pool(rng):
    """Graphs over five classes with posteriors of mixed lengths: T =
    min_frames and more, one-frame graphs, and integer scores full of exact
    ties."""
    vocab = chars_vocab("ab")
    one = ctc_expand(build_word_dag_implicit("a", vocab), vocab)
    assert one.min_frames == 1
    pool = [(one, random_logp(rng, 1, 5)), (one, np.full((3, 5), math.log(0.2)))]
    for i in range(34):
        if i % 3 == 2:
            lat, vocab, _ = implicit_instance(rng, ("abba", "abab", "aab", "ab")[i % 4])
        else:
            lat, vocab, _ = random_oracle_instance(rng)
        graph = ctc_expand(lat, vocab)
        T = graph.min_frames + (int(rng.integers(0, 3)) if i % 2 else 0)
        T += 9 if i % 7 == 3 else 0
        logp = random_logp(rng, T, vocab.num_classes)
        if i % 4 == 1:
            logp = rng.integers(-3, 0, size=logp.shape).astype(np.float64)
        pool.append((graph, logp))
    return pool


def _padded(graphs, posteriors):
    """The graphs' emission columns of the (B, T, C) block of the posteriors,
    padded with -inf, and their lengths."""
    lengths = np.array([len(lp) for lp in posteriors])
    logp = np.full((len(posteriors), lengths.max(), posteriors[0].shape[1]), -np.inf)
    for row, lp in zip(logp, posteriors):
        row[: len(lp)] = lp
    return emission_columns(graphs, logp), lengths


def _block_paths(graphs, posteriors, prior=None, prior_scale=0.0):
    """Each utterance's state path from one :func:`viterbi_paths` call over
    the padded block, in frame order and in its own graph's state ids."""
    columns, lengths = _padded(graphs, posteriors)
    path, offsets = viterbi_paths(graphs, columns, lengths, prior, prior_scale)
    return [tuple((path[n - 1 :: -1, b] - offsets[b]).tolist())
            for b, n in enumerate(lengths)]


def test_viterbi_paths_equal_per_utterance_reference():
    rng = np.random.default_rng(137)
    pool = _viterbi_pool(rng)
    assert len(pool) > 16
    prior = rng.dirichlet(np.ones(5))
    prior[2] = 1e-13                    # below the floor
    batches = [pool, pool[:5], pool[5:21], pool[21:24], pool[1:2], pool[::-1]]
    for prior_scale in (0.0, 0.3):
        for batch in batches:
            graphs = [g for g, _ in batch]
            with np.errstate(all="raise"):
                got = _block_paths(graphs, [logp for _, logp in batch], prior, prior_scale)
                single = [viterbi(g, logp, prior, prior_scale) for g, logp in batch]
            assert got == [ali.frame_states for ali in single]
            for (graph, logp), ali in zip(batch, single):
                scores = logp - prior_scale * np.log(np.maximum(prior, 1e-10))
                assert ali.frame_states == viterbi_states(graph, scores)
                assert ali.frame_labels == tuple(int(graph.labels[s]) for s in ali.frame_states)
                runs, t = [], 0
                for state, frames in itertools.groupby(ali.frame_states):
                    n = len(list(frames))
                    if graph.labels[state] != graph.blank:
                        runs.append((int(graph.labels[state]), (t, t + n - 1)))
                    t += n
                assert ali.collapsed == tuple(y for y, _ in runs)
                assert ali.spans == tuple(span for _, span in runs)


def test_successor_table_inverts_the_stacked_predecessors():
    rng = np.random.default_rng(151)
    graphs = [g for g, _ in _viterbi_pool(rng)]
    for g in graphs:
        got, want = _successors(g.pred), successor_table([g])
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        np.testing.assert_array_equal(got, want)
    for _ in range(200):
        stack = [graphs[i] for i in rng.integers(0, len(graphs), size=int(rng.integers(1, 17)))]
        *_, pred = _stack(stack, np.array([g.min_frames for g in stack]))
        got, want = _successors(pred), successor_table(stack)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        np.testing.assert_array_equal(got, want)


def test_viterbi_paths_subtracts_the_prior_like_the_shifted_posteriors():
    rng = np.random.default_rng(157)
    pool = _viterbi_pool(rng)
    prior = rng.dirichlet(np.ones(5))
    prior[3] = 1e-13                    # below the floor
    for lo, hi in ((0, len(pool)), (0, 5), (5, 21), (1, 2)):
        graphs = [g for g, _ in pool[lo:hi]]
        posteriors = [lp for _, lp in pool[lo:hi]]
        for prior_scale in (0.3, 1.0):
            shift = prior_scale * np.log(np.maximum(prior, 1e-10))
            with np.errstate(all="raise"):
                got = viterbi_paths(graphs, *_padded(graphs, posteriors), prior, prior_scale)
                want = viterbi_paths(graphs, *_padded(graphs, [lp - shift for lp in posteriors]))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


def test_viterbi_paths_ties_go_to_smallest_state():
    # uniform scores tie every accepted path of "a"; states are blank0 = 0,
    # blank1 = 1 and the label state 2, so the smallest ids win at each step
    vocab = Vocabulary.from_units([("a", True)])
    graph = ctc_expand(build_word_dag_implicit("a", vocab), vocab)
    uniform = np.full((2, 2), math.log(0.5))
    rng = np.random.default_rng(139)
    others = [random_logp(rng, T, 2) for T in (1, 4, 7)]
    prior = np.full(2, 0.5)
    for prior_scale in (0.0, 0.3):
        for at in range(4):
            posteriors = others[:at] + [uniform] + others[at:]
            with np.errstate(all="raise"):
                got = _block_paths([graph] * 4, posteriors, prior, prior_scale)
            assert got[at] == (2, 1)
            for logp, states in zip(posteriors, got):
                scores = logp - prior_scale * np.log(prior)
                assert states == viterbi_states(graph, scores)


def test_viterbi_paths_infeasible_member_raises():
    rng = np.random.default_rng(149)
    pool = _viterbi_pool(rng)[2:8]
    graph, logp = pool[3]
    pool[3] = (graph, logp[: graph.min_frames - 1])
    with pytest.raises(InfeasibleUtteranceError):
        _block_paths([g for g, _ in pool], [lp for _, lp in pool])


def _column_blocks(rng):
    """Random stacks of the Viterbi pool's graphs (drawn with repeats, so
    labels repeat within and across utterances, B = 1 included) with random
    (B, T, C) blocks whose rows past each utterance's length are padding
    (-inf or finite), and each stacked state's owner and label."""
    graphs = [g for g, _ in _viterbi_pool(rng)]
    for B in [1, 1, 2, 16] + rng.integers(1, 17, size=40).tolist():
        stack = [graphs[i] for i in rng.integers(0, len(graphs), size=B)]
        T = int(rng.integers(1, 12))
        logp = rng.standard_normal((B, T, 5)) * 3
        for row in logp:
            n = int(rng.integers(0, T + 1))
            row[n:] = -np.inf if rng.random() < 0.5 else rng.integers(-3, 0)
        owner = np.repeat(np.arange(B), [g.n_states for g in stack])
        labels = np.concatenate([g.labels for g in stack])
        yield stack, logp, owner, labels


def test_expanded_emission_columns_equal_the_state_gather():
    for stack, logp, owner, labels in _column_blocks(np.random.default_rng(163)):
        columns = emission_columns(stack, logp)
        keys = np.unique(owner * 5 + labels)
        assert columns.values.shape == (logp.shape[1], len(keys))
        np.testing.assert_array_equal(columns.labels, keys % 5)
        assert columns.num_classes == 5
        want = np.full((logp.shape[1], len(owner) + 1), -np.inf)
        want[:, :-1] = logp[owner, :, labels].T
        got = _expand(columns)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def test_prior_shift_per_column_equals_the_shift_per_state():
    rng = np.random.default_rng(167)
    for stack, logp, owner, labels in _column_blocks(rng):
        prior = rng.dirichlet(np.ones(5))
        prior[rng.integers(0, 5)] = 1e-13   # below the floor
        shift = 0.3 * np.log(np.maximum(prior, 1e-10))
        columns = emission_columns(stack, logp)
        got = _expand(columns._replace(values=columns.values - shift[columns.labels]))
        want = np.full(got.shape, -np.inf)
        want[:, :-1] = logp[owner, :, labels].T
        want[:, :-1] -= shift[labels]
        assert got.tobytes() == want.tobytes()


def test_viterbi_paths_refuses_columns_of_other_graphs():
    pool = _viterbi_pool(np.random.default_rng(173))
    graphs = [g for g, _ in pool[:4]]
    other = next(g for g, _ in pool if g.n_states != graphs[3].n_states)
    columns, lengths = _padded(graphs[:3] + [other], [lp for _, lp in pool[:4]])
    with pytest.raises(ValueError, match="other graphs"):
        viterbi_paths(graphs, columns, lengths)
