"""Property tests of the text formats: whatever is saved loads back equal,
and a file with one bad line is refused with that line's number."""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from adsm.errors import FormatError
from adsm.pipeline import VariantStats
from adsm.vocab import Vocabulary

# Reproducible runs that leave no example database behind.
FORMATS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SPELLING = st.text(alphabet="abcxyzé", min_size=1, max_size=4)


def saved_lines(obj) -> list[str]:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "saved.tsv")
        obj.save(path)
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()


def load_lines(cls, lines):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mutated.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return cls.load(path)


def units(min_size=0):
    return st.lists(st.tuples(SPELLING, st.booleans()), unique=True,
                    min_size=min_size, max_size=12)


@FORMATS
@given(units())
def test_vocabulary_round_trips(unit_list):
    vocab = Vocabulary(unit_list)
    lines = saved_lines(vocab)
    assert lines[0] == "#adsm-vocab-v1"
    assert load_lines(Vocabulary, lines).units == vocab.units


@FORMATS
@given(units(min_size=2), st.data())
def test_vocabulary_rejects_a_bad_line_at_its_number(unit_list, data):
    lines = saved_lines(Vocabulary(unit_list))
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
        load_lines(Vocabulary, lines)
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
    lines = saved_lines(stats)
    assert lines[0] == "#adsm-stats-v1"
    loaded = load_lines(VariantStats, lines)
    assert loaded.counts == stats.counts
    assert loaded.word_total == stats.word_total


@FORMATS
@given(variant_stats(min_words=1), st.data())
def test_variant_stats_rejects_a_bad_line_at_its_number(stats, data):
    lines = saved_lines(stats)
    i = data.draw(st.integers(1, len(lines) - 1))
    word, count, tokens = lines[i].split("\t")
    if data.draw(st.booleans()):
        count = data.draw(st.sampled_from(["0", "-3", "1.5", "x", ""]))
    else:  # the variant no longer spells the word
        word += data.draw(SPELLING)
    lines[i] = "\t".join([word, count, tokens])
    with pytest.raises(FormatError) as err:
        load_lines(VariantStats, lines)
    assert err.value.line == i + 1
