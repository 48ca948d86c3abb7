"""Property tests of the text formats: whatever is saved loads back equal,
and a file with one bad line is refused with that line's number."""

import os
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adsm.corpus import (FeatureMatrix, read_features, read_targets, read_transcripts,
                         write_features, write_targets, write_transcripts)
from adsm.encoder import init_params, load_params, save_params
from adsm.errors import FormatError
from adsm.lexicon import G2PEntry, parse_g2p
from adsm.pipeline import VariantStats
from adsm.textseg import BOS, EOS, SubwordNgramLM, train_lm
from adsm.vocab import SegMode, SegTable, Vocabulary, marked
from _reference import flatten_params, set_flat_params

# Reproducible runs that leave no example database behind.
FORMATS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SPELLING = st.text(alphabet="abcxyzé", min_size=1, max_size=4)


def saved_lines(save) -> list[str]:
    """The lines of the file that ``save(path)`` writes."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "saved.tsv")
        save(path)
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()


def load_lines(load, lines, *args):
    """``load(path, *args)`` of a file holding ``lines``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mutated.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return load(path, *args)


def units(min_size=0):
    return st.lists(st.tuples(SPELLING, st.booleans()), unique=True,
                    min_size=min_size, max_size=12)


@FORMATS
@given(units())
def test_vocabulary_round_trips(unit_list):
    vocab = Vocabulary(unit_list)
    lines = saved_lines(vocab.save)
    assert lines[0] == "#adsm-vocab-v1"
    assert load_lines(Vocabulary.load, lines).units == vocab.units


@FORMATS
@given(units(min_size=2), st.data())
def test_vocabulary_rejects_a_bad_line_at_its_number(unit_list, data):
    lines = saved_lines(Vocabulary(unit_list).save)
    i, j = sorted(data.draw(st.lists(st.integers(1, len(lines) - 1), min_size=2,
                                     max_size=2, unique=True)))
    spelling, _, uid = lines[j].split("\t")
    if data.draw(st.booleans()):
        flag = data.draw(st.sampled_from(["2", "-1", "true", "", "01"]))
        lines[j] = "\t".join([spelling, flag, uid])
        match = "word_end"
    else:  # the later line repeats the earlier one's unit under its own id
        lines[j] = "\t".join(lines[i].split("\t")[:2] + [uid])
        match = "duplicate unit"
    with pytest.raises(FormatError, match=match) as err:
        load_lines(Vocabulary.load, lines)
    assert err.value.line == j + 1


@st.composite
def variant_stats(draw, min_words=0):
    """Stats over distinct words, each with one to three splits of its
    spelling carrying any word-end flags, each added with a positive count."""
    stats = VariantStats()
    for word in draw(st.lists(SPELLING, unique=True, min_size=min_words, max_size=5)):
        for _ in range(draw(st.integers(1, 3))):
            cuts = draw(st.sets(st.integers(1, len(word) - 1))) if len(word) > 1 else set()
            bounds = [0, *sorted(cuts), len(word)]
            variant = tuple((word[a:b], draw(st.booleans())) for a, b in zip(bounds, bounds[1:]))
            stats.add(word, variant, draw(st.integers(1, 10**12)))
    return stats


@FORMATS
@given(variant_stats())
def test_variant_stats_round_trip(stats):
    lines = saved_lines(stats.save)
    assert lines[0] == "#adsm-stats-v1"
    loaded = load_lines(VariantStats.load, lines)
    assert loaded.counts == stats.counts
    assert loaded.word_total == stats.word_total


@FORMATS
@given(variant_stats(min_words=1), st.data())
def test_variant_stats_rejects_a_bad_line_at_its_number(stats, data):
    lines = saved_lines(stats.save)
    i = data.draw(st.integers(1, len(lines) - 1))
    word, count, tokens = lines[i].split("\t")
    if data.draw(st.booleans()):
        count = data.draw(st.sampled_from(["0", "-3", "1.5", "x", ""]))
    else:  # the variant no longer spells the word
        word += data.draw(SPELLING)
    lines[i] = "\t".join([word, count, tokens])
    with pytest.raises(FormatError) as err:
        load_lines(VariantStats.load, lines)
    assert err.value.line == i + 1


def splits(draw, word):
    """One split of ``word`` into pieces, word-end flag on the last only."""
    cuts = draw(st.sets(st.integers(1, len(word) - 1))) if len(word) > 1 else set()
    bounds = [0, *sorted(cuts), len(word)]
    pieces = [word[a:b] for a, b in zip(bounds, bounds[1:])]
    return tuple((p, i == len(pieces) - 1) for i, p in enumerate(pieces))


@st.composite
def seg_tables(draw, min_words=0):
    """An explicit table over distinct words, each with one to three distinct
    splits whose weights are positive and sum to one, or an implicit one."""
    words = draw(st.lists(SPELLING, unique=True, min_size=min_words, max_size=5))
    if draw(st.booleans()) and min_words == 0:
        return SegTable.implicit(words, Vocabulary([]))
    variants = {w: list(dict.fromkeys(splits(draw, w) for _ in range(draw(st.integers(1, 3)))))
                for w in words}
    vocab = Vocabulary(dict.fromkeys(u for vs in variants.values() for v in vs for u in v))
    entries = {}
    for word, vs in variants.items():
        counts = [draw(st.integers(1, 1000)) for _ in vs]
        entries[word] = [(tuple(vocab.id_of[u] for u in v), c / sum(counts))
                         for v, c in zip(vs, counts)]
    return SegTable.explicit(entries, vocab)


@FORMATS
@given(seg_tables())
def test_segtable_round_trips(table):
    lines = saved_lines(table.save)
    assert lines[0] == f"#adsm-segtable-v1\tmode={table.mode.value}"
    loaded = load_lines(SegTable.load, lines, table.vocab)
    assert loaded.mode is table.mode
    assert loaded.entries == table.entries


@FORMATS
@given(seg_tables(min_words=1), st.data())
def test_segtable_rejects_a_bad_line_at_its_number(table, data):
    lines = saved_lines(table.save)
    i = data.draw(st.integers(1, len(lines) - 1))
    word, tokens, weight = lines[i].split("\t")
    how = data.draw(st.sampled_from(["weight", "unit", "fields"]))
    if how == "weight":
        weight = data.draw(st.sampled_from(["x", "", "1,0", "0x1"]))
    elif how == "unit":     # no unit of the vocabulary is spelled with q
        tokens = data.draw(st.sampled_from(["q_", tokens + " q", "_"]))
    lines[i] = "\t".join([word, tokens] if how == "fields" else [word, tokens, weight])
    with pytest.raises(FormatError) as err:
        load_lines(SegTable.load, lines, table.vocab)
    assert err.value.line == i + 1


@st.composite
def language_models(draw, min_rows=0):
    """A model of order 1 to 3 over the marked units of a vocabulary, with
    positive counts on distinct (history, event) rows, added in the order
    the file lists them."""
    unit_list = draw(units(min_size=1))
    events = tuple(sorted(marked(u) for u in unit_list)) + (EOS,)
    order = draw(st.integers(1, 3))
    lm = SubwordNgramLM(order, draw(st.floats(1e-6, 10.0)), events)
    history = st.tuples(*[st.sampled_from((BOS,) + events[:-1])] * (order - 1))
    rows = draw(st.dictionaries(st.tuples(history, st.sampled_from(events)),
                                st.floats(1e-9, 1e9), min_size=min_rows, max_size=12))
    for (h, event), count in sorted(rows.items()):
        lm.add(h, event, count)
    return lm


@FORMATS
@given(language_models())
def test_language_model_round_trips(lm):
    lines = saved_lines(lm.save)
    assert lines[0] == "#adsm-lm-v1"
    loaded = load_lines(SubwordNgramLM.load, lines)
    assert (loaded.order, loaded.add_k, loaded.events) == (lm.order, lm.add_k, lm.events)
    assert loaded.counts == lm.counts
    assert loaded.totals == lm.totals


@FORMATS
@given(language_models(min_rows=1), st.data())
def test_language_model_rejects_a_bad_line_at_its_number(lm, data):
    lines = saved_lines(lm.save)
    first_row = next(k for k, line in enumerate(lines) if line.startswith("ngram\t"))
    i = data.draw(st.integers(1, len(lines) - 1))
    if i < first_row:       # a metadata line
        key, value = lines[i].split("\t")
        lines[i] = data.draw(st.sampled_from([key + "s\t" + value, key, lines[i] + "\t1"]))
    else:
        tag, hs, event, count = lines[i].split("\t")
        how = data.draw(st.sampled_from(
            ["count", "event", "history", "repeat"] if i > first_row else
            ["count", "event", "history"]))
        if how == "count":
            count = data.draw(st.sampled_from(["0", "-1.5", "x", "inf", "nan"]))
        elif how == "event":    # no event is spelled with q
            event = "q_"
        elif how == "history":  # one symbol too many
            hs = BOS if hs == "-" else hs + " " + BOS
        else:   # an earlier row again
            tag, hs, event, count = lines[data.draw(st.integers(first_row, i - 1))].split("\t")
        lines[i] = "\t".join([tag, hs, event, count])
    with pytest.raises(FormatError) as err:
        load_lines(SubwordNgramLM.load, lines)
    assert err.value.line == i + 1


@st.composite
def encoder_params(draw):
    """Parameters of one to three hidden layers at any subsampling, a few
    entries replaced by arbitrary finite floats."""
    n = draw(st.integers(1, 3))
    params = init_params(draw(st.integers(1, 4)),
                         draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
                         draw(st.integers(2, 6)), draw(st.sampled_from([1, 2, 4, 8])),
                         draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                         seed=draw(st.integers(0, 2**32 - 1)))
    flat = flatten_params(params)
    for i in draw(st.lists(st.integers(0, len(flat) - 1), max_size=4)):
        flat[i] = draw(st.floats(allow_nan=False, allow_infinity=False))
    set_flat_params(params, flat)
    return params


@FORMATS
@given(encoder_params())
def test_params_round_trip(params):
    lines = saved_lines(lambda path: save_params(params, path))
    assert lines[0] == "#adsm-params-v1"
    loaded = load_lines(load_params, lines)
    assert ((loaded.input_dim, loaded.num_classes, loaded.subsample_factor, loaded.radii,
             loaded.hidden_sizes, loaded.pool_after)
            == (params.input_dim, params.num_classes, params.subsample_factor, params.radii,
                params.hidden_sizes, params.pool_after))
    assert [a.tobytes() for a in loaded.arrays()] == [a.tobytes() for a in params.arrays()]
    assert saved_lines(lambda path: save_params(loaded, path)) == lines


def bad_metadata(key: str, value: str) -> list[str]:
    """Values that make a params file's metadata line wrong: unparsable,
    out of range, or disagreeing with the other lines or the arrays."""
    if key in ("radii", "hidden"):
        return ["x", "", value + " 1", "-1" if key == "radii" else "0"]
    if key == "subsample_factor":
        return ["x", "0", "3", "6"]
    return ["x", "-1", "0", str(int(value) + 1)] + (["1"] if key == "num_classes" else [])


@FORMATS
@given(encoder_params(), st.data())
def test_params_reject_one_bad_line(params, data):
    lines = saved_lines(lambda path: save_params(params, path))
    i = data.draw(st.integers(1, len(lines) - 1))
    key, _, value = lines[i].partition("\t")
    if key == "array":
        name, shape = value.split("\t")
        lines[i] = data.draw(st.sampled_from(
            ["arrays\t" + value, "array\t" + name, f"array\t{name}\t{shape} 2",
             f"array\tw9\t{shape}"]))
    elif value:
        lines[i] = data.draw(st.sampled_from([key + "s\t" + value] + [
            key + "\t" + bad for bad in bad_metadata(key, value)]))
    else:   # one value of an array (a blank line is skipped, not refused)
        lines[i] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "0x1"]))
    with pytest.raises(FormatError) as err:
        load_lines(load_params, lines)
    assert err.value.path.endswith("mutated.tsv")
    assert err.value.line == i + 1



@st.composite
def g2p_entries(draw, min_size=0):
    """Distinct words, each split into chunks aligned to a phoneme or to none."""
    entries = []
    for word in draw(st.lists(SPELLING, unique=True, min_size=min_size, max_size=6)):
        chunks = [chunk for chunk, _ in splits(draw, word)]
        phonemes = [draw(st.none() | st.text(alphabet="ABXYZ", min_size=1, max_size=3))
                    for _ in chunks]
        entries.append(G2PEntry(word, tuple(zip(chunks, phonemes))))
    return entries


def save_g2p(entries):
    """Writer of the alignment format, as ``adsm gen-synthetic`` writes it."""
    def save(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#adsm-g2p-v1\n")
            for e in entries:
                pairs = " ".join(f"{g}}}{'_' if p is None else p}" for g, p in e.pairs)
                fh.write(f"{e.word}\t{pairs}\n")
    return save


@FORMATS
@given(g2p_entries())
def test_g2p_round_trips(entries):
    lines = saved_lines(save_g2p(entries))
    assert lines[0] == "#adsm-g2p-v1"
    assert load_lines(parse_g2p, lines) == entries


@FORMATS
@given(g2p_entries(min_size=1), st.data())
def test_g2p_rejects_a_bad_line_at_its_number(entries, data):
    lines = saved_lines(save_g2p(entries))
    i = data.draw(st.integers(1, len(lines) - 1))
    word, pairs = lines[i].split("\t")
    lines[i] = data.draw(st.sampled_from([
        word + " " + pairs,                 # no tab
        lines[i] + "\tx}X",                 # a third field
        word + "_\t" + pairs,               # a reserved character in the word
        word + "\t" + pairs.replace("}", "", 1),
        word + "\t" + pairs + " }X",
        word + "\t" + pairs + " x}",
        word + "\t"]))                      # no pairs
    with pytest.raises(FormatError) as err:
        load_lines(parse_g2p, lines)
    assert err.value.line == i + 1


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def feature_matrices(draw, min_size=0):
    """Matrices of one to four frames of the same one to three arbitrary
    finite values."""
    ids = draw(st.lists(st.text(alphabet="uv01_", min_size=1, max_size=3), unique=True,
                        min_size=min_size, max_size=4))
    width = draw(st.integers(1, 3))
    return [FeatureMatrix(utt_id, np.array(draw(st.lists(
                st.lists(FLOATS, min_size=width, max_size=width), min_size=1, max_size=4))))
            for utt_id in ids]


@FORMATS
@given(feature_matrices())
def test_features_round_trip(mats):
    lines = saved_lines(lambda path: write_features(mats, path))
    assert lines[0] == "#adsm-feats-v1"
    loaded = load_lines(read_features, lines)
    assert [m.utt_id for m in loaded] == [m.utt_id for m in mats]
    assert [m.values.tobytes() for m in loaded] == [m.values.tobytes() for m in mats]


@FORMATS
@given(feature_matrices(min_size=1), st.data())
def test_features_reject_a_bad_line_at_its_number(mats, data):
    lines = saved_lines(lambda path: write_features(mats, path))
    heads = [1 + sum(len(m.values) + 1 for m in mats[:k]) for k in range(len(mats))]
    i = data.draw(st.integers(1, len(lines) - 1))
    parts = lines[i].split()
    if i in heads:
        utt_id, T, D = parts
        lines[i] = data.draw(st.sampled_from(
            [f"{utt_id} {T}", f"{utt_id} x {D}", f"{utt_id} 0 {D}", f"{utt_id} {T} -1"]
            + [f"{lines[heads[0]].split()[0]} {T} {D}", f"{utt_id} {T} {int(D) + 1}"]
            * (i > heads[0])))
    else:   # one row of values
        parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(
            st.sampled_from(["x", "nan", "-inf", "1e999", "0x1", "1.0 2.0"]))
        lines[i] = " ".join(parts)
    with pytest.raises(FormatError) as err:
        load_lines(read_features, lines)
    assert err.value.line == i + 1


ITEM_LINES = [(write_transcripts, read_transcripts, "#adsm-trans-v1"),
              (write_targets, read_targets, "#adsm-targets-v1")]


def item_rows(read, min_size=0):
    """Rows of distinct utterance ids, each with one to four items: words for
    a transcript, words with or without the word-end mark for targets."""
    marks = ["", "_"] if read is read_targets else [""]
    item = st.builds(str.__add__, SPELLING, st.sampled_from(marks))
    return st.dictionaries(st.text(alphabet="uv01", min_size=1, max_size=3),
                           st.lists(item, min_size=1, max_size=4).map(tuple),
                           min_size=min_size, max_size=5)


@pytest.mark.parametrize("write, read, header", ITEM_LINES)
@FORMATS
@given(data=st.data())
def test_transcripts_and_targets_round_trip(write, read, header, data):
    rows = data.draw(item_rows(read))
    lines = saved_lines(lambda path: write(rows.items(), path))
    assert lines[0] == header
    assert load_lines(read, lines) == rows


@pytest.mark.parametrize("write, read, header", ITEM_LINES)
@FORMATS
@given(data=st.data())
def test_transcripts_and_targets_reject_a_bad_line_at_its_number(write, read, header, data):
    rows = data.draw(item_rows(read, min_size=1))
    lines = saved_lines(lambda path: write(rows.items(), path))
    i = data.draw(st.integers(1, len(lines) - 1))
    utt_id, items = lines[i].split("\t")
    lines[i] = data.draw(st.sampled_from(
        [utt_id + " " + items, lines[i] + "\tx", utt_id + "\t", utt_id + "\t "]
        + [lines[1].split("\t")[0] + "\t" + items] * (i > 1)))
    with pytest.raises(FormatError) as err:
        load_lines(read, lines)
    assert err.value.line == i + 1


def small_files():
    """One small instance of each format: (object, its saver, loader, loader args)."""
    vocab = Vocabulary([("a", False), ("b", True), ("ab", True)])
    table = SegTable.explicit({"ab": [((0, 1), 0.25), ((2,), 0.75)]}, vocab)
    stats = VariantStats()
    stats.add("ab", (("ab", True),), 3)
    stats.add("ab", (("a", False), ("b", True)), 1)
    rows = {"u0": ("ab", "a"), "u1": ("b",)}
    return {
        "vocab": (vocab, lambda v: v.save, Vocabulary.load, ()),
        "segtable": (table, lambda t: t.save, SegTable.load, (vocab,)),
        "implicit segtable": (SegTable.implicit(["ab", "b"], vocab), lambda t: t.save,
                              SegTable.load, (vocab,)),
        "stats": (stats, lambda s: s.save, VariantStats.load, ()),
        "lm": (train_lm(table), lambda lm: lm.save, SubwordNgramLM.load, ()),
        "params": (init_params(2, (3,), 4, seed=0), lambda p: partial(save_params, p),
                   load_params, ()),
        "feats": ([FeatureMatrix("u0", [[1.0, 2.0], [3.0, 4.0]]),
                   FeatureMatrix("u1", [[5.0, 6.0]])],
                  lambda m: partial(write_features, m), read_features, ()),
        "trans": (rows, lambda r: partial(write_transcripts, r.items()), read_transcripts, ()),
        "targets": (rows, lambda r: partial(write_targets, r.items()), read_targets, ()),
        "g2p": ([G2PEntry("ab", (("a", "A"), ("b", None)))], save_g2p, parse_g2p, ()),
    }


@pytest.mark.parametrize("name", sorted(small_files()))
def test_blank_lines_are_skipped_in_every_format(name):
    obj, saver, load, args = small_files()[name]
    lines = saved_lines(saver(obj))
    spaced = [part for line in lines for part in (line, "")]
    assert saved_lines(saver(load_lines(load, spaced, *args))) == lines


def test_hash_starts_a_comment_only_where_there_is_no_header():
    assert load_lines(read_transcripts, ["#adsm-trans-v1", "#u0\tab"]) == {"#u0": ("ab",)}
    assert load_lines(parse_g2p, ["#u0\tab}A", "ab\ta}A b}B"]) == [
        G2PEntry("ab", (("a", "A"), ("b", "B")))]
