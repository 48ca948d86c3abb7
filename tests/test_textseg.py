import math

import numpy as np
import pytest

from adsm import textseg
from adsm.errors import FormatError
from adsm.textseg import (BOS, EOS, SubwordNgramLM, detokenize,
                          segment_corpus, segment_word, train_lm)
from adsm.vocab import SegTable, Vocabulary, marked

from conftest import enumerate_segmentations, flagged
from _reference import perplexity


def small_table():
    """Words "ab" (split-favored 3:1) and "b"; vocab also holds "aa"."""
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("b", False), ("b", True),
         ("ab", True), ("aa", False), ("aa", True)])
    entries = {
        "ab": [((vocab.id("a", False), vocab.id("b", True)), 0.75),
               ((vocab.id("ab", True),), 0.25)],
        "b": [((vocab.id("b", True),), 1.0)],
    }
    return SegTable.explicit(entries, vocab)


def counted_lm():
    lm = SubwordNgramLM(order=2, add_k=0.5, events=("a", "b_", EOS))
    lm.add((BOS,), "a", 2.0)
    lm.add(("a",), "b_", 2.0)
    lm.add(("b_",), EOS, 2.0)
    return lm


def test_lm_validation():
    with pytest.raises(ValueError):
        SubwordNgramLM(order=0, add_k=0.1, events=(EOS,))
    with pytest.raises(ValueError):
        SubwordNgramLM(order=2, add_k=0.0, events=(EOS,))
    with pytest.raises(ValueError):
        SubwordNgramLM(order=2, add_k=0.1, events=("a", "b"))


def test_history_is_fixed_length():
    lm = SubwordNgramLM(order=3, add_k=0.1, events=("a", EOS))
    assert lm._history(()) == (BOS, BOS)
    assert lm._history(("a",)) == (BOS, "a")
    assert lm._history(("a", "b", "c")) == ("b", "c")
    uni = SubwordNgramLM(order=1, add_k=0.1, events=("a", EOS))
    assert uni._history(("a", "b")) == ()


def test_logp_hand_values():
    lm = counted_lm()
    # counts 2 with add_k 0.5 over 3 events: (2 + .5) / (2 + 1.5)
    seen = math.log(2.5 / 3.5)
    assert lm.logp("a", ()) == pytest.approx(seen, rel=1e-12)
    assert lm.logp("b_", ("a",)) == pytest.approx(seen, rel=1e-12)
    assert lm.logp(EOS, ("a", "b_")) == pytest.approx(seen, rel=1e-12)
    # unseen event under a seen history
    assert lm.logp("b_", ()) == pytest.approx(math.log(0.5 / 3.5), rel=1e-12)
    # history never counted at all
    assert lm.logp("a", ("b_",)) == pytest.approx(math.log(0.5 / 3.5), rel=1e-12)
    with pytest.raises(KeyError):
        lm.logp("zz", ())


def test_conditionals_sum_to_one():
    lm = counted_lm()
    for hist in [(), ("a",), ("b_",), ("a", "b_")]:
        total = sum(math.exp(lm.logp(e, hist)) for e in lm.events)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_score_and_perplexity():
    lm = counted_lm()
    assert lm.score(("a", "b_")) == pytest.approx(3 * math.log(2.5 / 3.5), rel=1e-12)
    # 3 events over 3 positions, every conditional 2.5/3.5
    assert perplexity(lm, [("a", "b_")]) == pytest.approx(3.5 / 2.5, rel=1e-12)
    with pytest.raises(ValueError):
        perplexity(lm, [])


def test_logp_memo_follows_add():
    lm = counted_lm()
    assert lm.logp("a", ()) == pytest.approx(math.log(2.5 / 3.5), rel=1e-12)
    assert lm.logp("b_", ()) == pytest.approx(math.log(0.5 / 3.5), rel=1e-12)
    lm.add((BOS,), "b_", 3.0)       # history (<s>,) now counts a: 2, b_: 3
    assert lm.logp("a", ()) == pytest.approx(math.log(2.5 / 6.5), rel=1e-12)
    assert lm.logp("b_", ()) == pytest.approx(math.log(3.5 / 6.5), rel=1e-12)
    assert lm.score(("b_",)) == pytest.approx(math.log(3.5 / 6.5) + math.log(2.5 / 3.5),
                                              rel=1e-12)


def test_logp_memo_is_bounded_by_events_times_histories():
    lm = SubwordNgramLM(order=3, add_k=0.1, events=("a", "b_", EOS))
    lm.add((BOS, BOS), "a", 1.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        lm.score(tuple(rng.choice(["a", "b_"], size=500)))
    # fixed-length histories: (<s>, <s>), (<s>, x) and (x, y) over 2 units
    histories = 1 + 2 + 2 * 2
    assert all(len(h) == 2 for _, h in lm._memo)
    assert len(lm._memo) <= len(lm.events) * histories


def test_lm_save_load_round_trip(tmp_path):
    unigram = SubwordNgramLM(order=1, add_k=0.25, events=("a", "b_", EOS))
    unigram.add((), "a", 0.25)  # order 1: the empty history takes the "-" form
    unigram.add((), EOS, 3.0)
    for lm in (counted_lm(), unigram, train_lm(small_table(), order=3)):
        p1, p2 = tmp_path / "lm1.tsv", tmp_path / "lm2.tsv"
        lm.save(p1)
        back = SubwordNgramLM.load(p1)
        assert back.order == lm.order
        assert back.add_k == lm.add_k
        assert back.events == lm.events
        assert back.counts == lm.counts
        assert back.totals == lm.totals
        back.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_lm_load_rejects_bad_files(tmp_path):
    path = tmp_path / "lm.tsv"
    path.write_text("#wrong\n", encoding="utf-8")
    with pytest.raises(FormatError):
        SubwordNgramLM.load(path)
    path.write_text("#adsm-lm-v1\nngram\ta\tb\n", encoding="utf-8")
    with pytest.raises(FormatError):
        SubwordNgramLM.load(path)
    path.write_text("#adsm-lm-v1\nthis\tline\tis\tbad\n", encoding="utf-8")
    with pytest.raises(FormatError):
        SubwordNgramLM.load(path)
    path.write_text("#adsm-lm-v1\nadd_k\t0.1\nevents\t</s>\n", encoding="utf-8")
    with pytest.raises(FormatError):  # order missing
        SubwordNgramLM.load(path)


@pytest.mark.parametrize("row, message", [
    ("<s>\ta\tabc", "not a number"),
    ("<s>\ta\t-5.0", "finite and positive"),
    ("<s>\ta\t0", "finite and positive"),
    ("<s>\ta\tnan", "finite and positive"),
    ("<s>\ta\tinf", "finite and positive"),
    ("<s>\tzz\t1.0", "inventory"),
    ("x y z\ta\t1.0", "history"),
    ("a b_\ta\t1.0", "history"),
    ("-\ta\t1.0", "history"),
    ("zz\ta\t1.0", "history"),
    ("</s>\ta\t1.0", "history"),
])
def test_lm_load_rejects_malformed_ngrams(tmp_path, row, message):
    path = tmp_path / "lm.tsv"
    path.write_text("#adsm-lm-v1\norder\t2\nadd_k\t0.5\nevents\ta b_ </s>\n"
                    "ngram\ta\tb_\t2.0\n" + f"ngram\t{row}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=message) as err:
        SubwordNgramLM.load(path)
    assert err.value.line == 6


def test_lm_load_rejects_repeated_ngram_rows(tmp_path):
    path = tmp_path / "lm.tsv"
    path.write_text("#adsm-lm-v1\norder\t2\nadd_k\t0.5\nevents\ta b_ </s>\n"
                    "ngram\t<s>\tb_\t1.0\nngram\ta\tb_\t2.0\nngram\t<s>\tb_\t1.0\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match="repeated row") as err:
        SubwordNgramLM.load(path)
    assert err.value.line == 7


@pytest.mark.parametrize("key", ["ordr\t7", "order\t3"])
def test_lm_load_rejects_unknown_and_repeated_metadata(tmp_path, key):
    path = tmp_path / "lm.tsv"
    path.write_text("#adsm-lm-v1\norder\t2\nadd_k\t0.5\nevents\ta b_ </s>\n"
                    f"{key}\nngram\ta\tb_\t2.0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="metadata key") as err:
        SubwordNgramLM.load(path)
    assert err.value.line == 5


@pytest.mark.parametrize("add_k", ["nan", "inf", "0", "-1"])
def test_lm_load_rejects_bad_smoothing_constant(tmp_path, add_k):
    path = tmp_path / "lm.tsv"
    path.write_text(f"#adsm-lm-v1\norder\t2\nadd_k\t{add_k}\nevents\ta </s>\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match="smoothing"):
        SubwordNgramLM.load(path)


def test_lm_rejects_repeated_events():
    with pytest.raises(ValueError, match="repeats"):
        SubwordNgramLM(order=2, add_k=0.1, events=("a", "a", EOS))


def test_train_lm_counts():
    lm = train_lm(small_table(), order=2, add_k=0.1)
    assert lm.events == ("a", "a_", "aa", "aa_", "ab_", "b", "b_", EOS)
    assert lm.counts[(BOS,)] == {"a": 0.75, "ab_": 0.25, "b_": 1.0}
    assert lm.counts[("a",)] == {"b_": 0.75}
    assert lm.counts[("b_",)] == {EOS: 1.75}
    assert lm.counts[("ab_",)] == {EOS: 0.25}
    assert lm.totals[(BOS,)] == pytest.approx(2.0)
    assert lm.totals[("b_",)] == pytest.approx(1.75)


def test_train_lm_rejects_bad_tables():
    vocab = Vocabulary.from_units([("a", True)])
    with pytest.raises(ValueError):
        train_lm(SegTable.implicit(["a"], vocab))
    with pytest.raises(ValueError):
        train_lm(SegTable.explicit({}, vocab))


def test_known_word_best_takes_heaviest_variant():
    table = small_table()
    lm = train_lm(table)
    assert segment_word("ab", table, lm) == (("a", False), ("b", True))
    assert segment_word("b", table, lm, mode="sample", rng=0) == (("b", True),)


def test_known_word_sampling_follows_weights():
    table = small_table()
    lm = train_lm(table)
    rng = np.random.default_rng(11)
    n = 2000
    split = sum(segment_word("ab", table, lm, mode="sample", rng=rng)
                == (("a", False), ("b", True)) for _ in range(n))
    # 3 sigma around p = 0.75
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(split / n - 0.75) < 3 * sigma
    # integer seeds restart the generator, so the draw is reproducible
    draws = [segment_word("ab", table, lm, mode="sample", rng=5) for _ in range(4)]
    assert len(set(draws)) == 1


def _dp_matches_exhaustive_argmax(order, seed):
    rng = np.random.default_rng(seed)
    alphabet = "ab"
    for _ in range(60):
        units = {(ch, e) for ch in alphabet for e in (False, True)}
        for _ in range(int(rng.integers(2, 6))):
            k = int(rng.integers(2, 4))
            piece = "".join(rng.choice(list(alphabet), size=k))
            units.add((piece, bool(rng.integers(2))))
        vocab = Vocabulary.from_units(units)
        tokens = tuple(sorted(marked(u) for u in vocab))
        lm = SubwordNgramLM(order=order, add_k=0.2, events=tokens + (EOS,))
        for _ in range(12):  # pseudo-training on random token strings
            sent = [tokens[int(rng.integers(len(tokens)))]
                    for _ in range(int(rng.integers(1, 5)))]
            for i, tok in enumerate(sent):
                lm.add(lm._history(tuple(sent[:i])), tok, float(rng.integers(1, 4)))
            lm.add(lm._history(tuple(sent)), EOS, 1.0)
        table = SegTable.explicit({}, vocab)
        word = "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 7))))
        spellings = {s for s, _ in vocab}
        cands = []
        for pieces in enumerate_segmentations(word, spellings):
            us = flagged(pieces)
            if all(u in vocab for u in us):
                toks = tuple(marked(u) for u in us)
                cands.append((lm.score(toks), len(us), toks, us))
        want = cands[0]
        for c in cands[1:]:
            if (c[0], ) > (want[0], ) or (c[0] == want[0] and (c[1], c[2]) < (want[1], want[2])):
                want = c
        assert segment_word(word, table, lm) == want[3]


def test_unknown_word_matches_exhaustive_argmax():
    _dp_matches_exhaustive_argmax(order=2, seed=23)


@pytest.mark.parametrize("order", [1, 3])
def test_unknown_word_matches_exhaustive_argmax_at_other_orders(order):
    _dp_matches_exhaustive_argmax(order, seed=29 + order)


def test_dp_prefers_fewer_then_lexicographic():
    vocab = Vocabulary.from_units(
        [("a", False), ("a", True), ("aa", False), ("aa", True), ("b", True)])
    lm = SubwordNgramLM(order=2, add_k=0.3,
                        events=tuple(sorted(marked(u) for u in vocab)) + (EOS,))
    table = SegTable.explicit({}, vocab)
    # no counts: every conditional is uniform, so score depends on length only
    assert segment_word("aa", table, lm) == (("aa", True),)
    assert segment_word("aaa", table, lm) == (("a", False), ("aa", True))


def test_segment_word_errors():
    table = small_table()
    lm = train_lm(table)
    with pytest.raises(ValueError):
        segment_word("ab", table, lm, mode="weird")
    with pytest.raises(ValueError, match="outside the alphabet"):
        segment_word("axb", table, lm)
    # chars known but no word-final unit fits
    vocab = Vocabulary.from_units([("c", False), ("d", True)])
    bare = SegTable.explicit({}, vocab)
    lm2 = SubwordNgramLM(order=2, add_k=0.1,
                         events=tuple(sorted(marked(u) for u in vocab)) + (EOS,))
    with pytest.raises(ValueError, match="current vocabulary"):
        segment_word("dc", bare, lm2)


def test_segment_corpus_round_trips():
    table = small_table()
    lm = train_lm(table)
    lines = ["ab b", "b ab ab", "aab b"]
    for mode in ("best", "sample"):
        segged = segment_corpus(lines, table, lm, mode=mode, seed=3)
        assert [detokenize(s) for s in segged] == lines
    best = segment_corpus(["ab b"], table, lm)
    assert best == ["a b_ b_"]


def test_segment_corpus_sampling_is_seeded():
    table = small_table()
    lm = train_lm(table)
    lines = ["ab ab ab ab ab ab"] * 4
    a = segment_corpus(lines, table, lm, mode="sample", seed=9)
    b = segment_corpus(lines, table, lm, mode="sample", seed=9)
    assert a == b
    trials = [segment_corpus(lines, table, lm, mode="sample", seed=s)
              for s in range(8)]
    assert len({tuple(t) for t in trials}) > 1


def _per_word(lines, table, lm, mode, seed):
    """Reference: segment every occurrence, sharing one generator."""
    rng = np.random.default_rng(seed)
    return [" ".join(marked(u) for word in line.split()
                     for u in segment_word(word, table, lm, mode, rng))
            for line in lines]


REPEATS = ["ab aab b ab ba", "aab aab ab ab", "ba b ab aab aa ab", "ab aa ba"]


def test_segment_corpus_equals_per_word_loop():
    table = small_table()
    lm = train_lm(table)
    for mode in ("best", "sample"):
        for seed in range(6):
            assert (segment_corpus(REPEATS, table, lm, mode=mode, seed=seed)
                    == _per_word(REPEATS, table, lm, mode, seed))


def test_segment_corpus_runs_the_dp_once_per_unseen_word(monkeypatch):
    table = small_table()
    lm = train_lm(table)
    calls = []
    dp = textseg._segment_dp

    def counting(word, vocab, lm):
        calls.append(word)
        return dp(word, vocab, lm)

    monkeypatch.setattr(textseg, "_segment_dp", counting)
    unseen = {w for line in REPEATS for w in line.split() if w not in table}
    for mode in ("best", "sample"):
        calls.clear()
        segment_corpus(REPEATS, table, lm, mode=mode, seed=1)
        assert sorted(calls) == sorted(unseen)
    calls.clear()
    segment_corpus(REPEATS, table, lm)            # a new call starts afresh
    assert len(calls) == len(unseen)



def test_segment_corpus_builds_each_seen_words_draw_once(monkeypatch):
    table = small_table()
    lm = train_lm(table)
    calls = []
    build = textseg._variant_cdf

    def counting(table, word):
        calls.append(word)
        return build(table, word)

    monkeypatch.setattr(textseg, "_variant_cdf", counting)
    seen = {w for line in REPEATS for w in line.split() if w in table}
    assert sum(w in seen for line in REPEATS for w in line.split()) > len(seen)
    segment_corpus(REPEATS, table, lm, mode="sample", seed=1)
    assert sorted(calls) == sorted(seen)
    calls.clear()
    segment_corpus(REPEATS, table, lm, mode="sample", seed=2)   # a new call starts afresh
    assert sorted(calls) == sorted(seen)
    calls.clear()
    segment_corpus(REPEATS, table, lm, mode="best", seed=1)
    assert calls == []

def test_sampling_draw_matches_generator_choice():
    rng = np.random.default_rng(17)
    word = "abcd"
    vocab = Vocabulary.from_units(
        (word[i:j], j == len(word)) for i in range(4) for j in range(i + 1, 5))
    spellings = {s for s, _ in vocab}
    segs = [tuple(vocab.id_of[u] for u in flagged(p))
            for p in enumerate_segmentations(word, spellings)]
    for _ in range(60):
        k = int(rng.integers(1, len(segs) + 1))       # k == 1: one variant, one draw
        picks = rng.permutation(len(segs))[:k]
        weights = rng.random(k) ** 3 + 1e-6
        weights /= weights.sum()
        table = SegTable.explicit(
            {word: [(segs[i], float(w)) for i, w in zip(picks, weights)]}, vocab)
        variants = table.unit_variants(word)
        p = np.array([w for _, w in variants])
        seed = int(rng.integers(2**32))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            got = segment_word(word, table, None, mode="sample", rng=ours)
            assert got == variants[int(ref.choice(len(variants), p=p / p.sum()))][0]
        assert ours.bit_generator.state == ref.bit_generator.state


def test_segment_corpus_unknown_character_raises_at_first_occurrence():
    table = small_table()
    lm = train_lm(table)
    for mode in ("best", "sample"):
        with pytest.raises(ValueError, match="outside the alphabet"):
            segment_corpus(["ab aab b", "aab axb ab"], table, lm, mode=mode)


def _count_segment_word(monkeypatch):
    calls = []
    seg = textseg.segment_word

    def counting(word, *args):
        calls.append(word)
        return seg(word, *args)

    monkeypatch.setattr(textseg, "segment_word", counting)
    return calls


@pytest.mark.parametrize("lines", [[], [""], ["ab b", "aab"]])
def test_segment_corpus_refuses_an_unknown_mode_up_front(monkeypatch, lines):
    table = small_table()
    lm = train_lm(table)
    calls = _count_segment_word(monkeypatch)
    with pytest.raises(ValueError, match="unknown mode"):
        segment_corpus(lines, table, lm, mode="bogus")
    assert calls == []


def test_segment_corpus_empty_input_and_blank_lines():
    table = small_table()
    lm = train_lm(table)
    lines = ["", "ab b", "   ", "aab ab", ""]
    for mode in ("best", "sample"):
        assert segment_corpus([], table, lm, mode=mode) == []
        assert segment_corpus([""], table, lm, mode=mode) == [""]
        got = segment_corpus(lines, table, lm, mode=mode, seed=4)
        assert got == _per_word(lines, table, lm, mode, 4)
        assert [got[0], got[2], got[4]] == ["", "", ""]
        assert segment_corpus(iter(lines), table, lm, mode=mode, seed=4) == got


def three_variant_table():
    """small_table plus "aab", stored with three variants."""
    vocab = small_table().vocab
    a, aa, b_, ab_ = (vocab.id(*u) for u in [("a", False), ("aa", False),
                                            ("b", True), ("ab", True)])
    entries = {"ab": [((a, b_), 0.75), ((ab_,), 0.25)], "b": [((b_,), 1.0)],
               "aab": [((a, a, b_), 0.2), ((aa, b_), 0.3), ((a, ab_), 0.5)]}
    return SegTable.explicit(entries, vocab)


def random_corpus(rng, pool):
    """Up to 6 lines of up to 7 words drawn from ``pool`` (so words repeat);
    lines may be blank."""
    return [" ".join(pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(8))))
            for _ in range(int(rng.integers(7)))]


def test_segment_corpus_equals_per_word_on_random_corpora():
    table = three_variant_table()
    lm = train_lm(table)
    seen = table.words()
    kinds = {"mixed": 0, "unseen only": 0, "seen only": 0}
    for seed in range(30):
        rng = np.random.default_rng(seed)
        unseen = sorted({"".join(rng.choice(["a", "b"], size=int(rng.integers(1, 6))))
                         for _ in range(4)} - set(seen))
        kind = list(kinds)[seed % 3]
        pool = {"mixed": seen + unseen, "unseen only": unseen, "seen only": seen}[kind]
        lines = random_corpus(rng, pool)
        kinds[kind] += sum(len(line.split()) for line in lines) > 0
        for mode in ("best", "sample"):
            assert (segment_corpus(lines, table, lm, mode=mode, seed=seed)
                    == _per_word(lines, table, lm, mode, seed))
    assert min(kinds.values()) >= 5


def test_segment_corpus_segments_each_draw_free_word_once(monkeypatch):
    table = three_variant_table()
    lm = train_lm(table)
    calls = _count_segment_word(monkeypatch)
    words = [w for line in REPEATS for w in line.split()]
    unseen = {w for w in words if w not in table}
    assert len(words) > len(set(words)) and 0 < len(unseen) < len(set(words))
    for mode, draw_free in (("best", set(words)), ("sample", unseen)):
        for seed in (1, 2):                       # each call starts afresh
            calls.clear()
            segment_corpus(REPEATS, table, lm, mode=mode, seed=seed)
            assert sorted(calls) == sorted(draw_free)


def test_detokenize():
    assert detokenize("a b_ ab_") == "ab ab"
    assert detokenize("b_") == "b"
    assert detokenize("") == ""
    with pytest.raises(ValueError):
        detokenize("a b")
