import numpy as np
import pytest

from adsm.errors import FormatError
from adsm.vocab import (SegMode, SegTable, Vocabulary, check_word_chars,
                        marked, parse_marked)


def test_marked_round_trip():
    assert marked(("ab", False)) == "ab"
    assert marked(("ab", True)) == "ab_"
    assert parse_marked("xyz_") == ("xyz", True)
    assert parse_marked("xyz") == ("xyz", False)
    rng = np.random.default_rng(7)
    letters = list("abcdefgh")
    for _ in range(200):
        s = "".join(rng.choice(letters, size=int(rng.integers(1, 5))))
        e = bool(rng.integers(2))
        assert parse_marked(marked((s, e))) == (s, e)


def test_parse_marked_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_marked("")
    with pytest.raises(ValueError):
        parse_marked("_")


def test_check_word_chars_rejects_reserved():
    check_word_chars("plain")
    for bad in ("a_b", "a b", "a\tb", "a\nb", "}x", ""):
        with pytest.raises(ValueError):
            check_word_chars(bad)


def test_vocabulary_ids_and_blank():
    units = [("b", True), ("a", False), ("ab", True)]
    v = Vocabulary.from_units(units)
    assert v.units == (("a", False), ("ab", True), ("b", True))
    assert [v.id_of[u] for u in v.units] == [0, 1, 2]
    assert v.blank_id == 3
    assert v.num_classes == 4
    assert v.spelling(1) == "ab_"
    assert v.spelling(v.blank_id) == "eps"
    assert v.alphabet() == {"a", "b"}


def test_vocabulary_duplicate_unit_rejected():
    with pytest.raises(ValueError):
        Vocabulary([("a", False), ("a", False)])


def test_vocabulary_from_units_dedups_and_sorts():
    v1 = Vocabulary.from_units([("b", False), ("a", True), ("a", True)])
    v2 = Vocabulary.from_units([("a", True), ("b", False)])
    assert v1 == v2


def test_vocabulary_save_load_round_trip(tmp_path):
    v = Vocabulary.from_units([("a", False), ("a", True), ("xy", True)])
    p = tmp_path / "vocab.tsv"
    v.save(p)
    assert Vocabulary.load(p) == v
    first = p.read_bytes()
    Vocabulary.load(p).save(p)
    assert p.read_bytes() == first


def test_vocabulary_load_rejects_bad_files(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("no header\n")
    with pytest.raises(FormatError):
        Vocabulary.load(p)
    p.write_text("#adsm-vocab-v1\na\t1\t0\nb\t0\t2\n")
    with pytest.raises(FormatError, match="dense"):
        Vocabulary.load(p)
    p.write_text("#adsm-vocab-v1\na\t1\n")
    with pytest.raises(FormatError) as err:
        Vocabulary.load(p)
    assert err.value.line == 2
    for flag in ("7", "-1", "true", ""):
        p.write_text(f"#adsm-vocab-v1\na\t0\t0\nb\t{flag}\t1\n")
        with pytest.raises(FormatError, match="word_end") as err:
            Vocabulary.load(p)
        assert err.value.line == 3
    p.write_text("#adsm-vocab-v1\na\t1\t0\na\t1\t1\n")
    with pytest.raises(FormatError, match="duplicate"):
        Vocabulary.load(p)


def make_table():
    v = Vocabulary.from_units([("a", False), ("b", True), ("ab", True)])
    a, b_, ab_ = v.id_of[("a", False)], v.id_of[("b", True)], v.id_of[("ab", True)]
    entries = {"ab": [((a, b_), 0.5), ((ab_,), 0.5)]}
    return v, SegTable.explicit(entries, v)


def test_segtable_explicit_checks():
    v, table = make_table()
    assert table.mode is SegMode.EXPLICIT
    a, b_ = v.id_of[("a", False)], v.id_of[("b", True)]
    with pytest.raises(ValueError, match="spells"):
        SegTable.explicit({"ba": [((a, b_), 1.0)]}, v)
    with pytest.raises(ValueError, match="word_end"):
        SegTable.explicit({"aa": [((a, a), 1.0)]}, v)
    with pytest.raises(ValueError, match="sum"):
        SegTable.explicit({"ab": [((a, b_), 0.7)]}, v)
    with pytest.raises(ValueError, match="duplicate"):
        SegTable.explicit({"ab": [((a, b_), 0.5), ((a, b_), 0.5)]}, v)
    with pytest.raises(ValueError, match="no variants"):
        SegTable.explicit({"ab": []}, v)


def test_segtable_best_variant_tie_break():
    # equal weights: the lexicographically smallest marked form wins
    v, table = make_table()
    best = tuple(v.spelling(i) for i in table.best_variant("ab"))
    assert best == ("a", "b_")
    skew = SegTable.explicit(
        {"ab": [((v.id_of[("a", False)], v.id_of[("b", True)]), 0.25),
                ((v.id_of[("ab", True)],), 0.75)]}, v)
    assert tuple(v.spelling(i) for i in skew.best_variant("ab")) == ("ab_",)


def test_segtable_save_load_round_trip(tmp_path):
    v, table = make_table()
    p = tmp_path / "seg.tsv"
    table.save(p)
    back = SegTable.load(p, v)
    assert back.mode is SegMode.EXPLICIT
    assert back.entries == table.entries
    first = p.read_bytes()
    back.save(p)
    assert p.read_bytes() == first


def test_segtable_implicit_round_trip(tmp_path):
    v, _ = make_table()
    table = SegTable.implicit(["ab", "a"], v)
    with pytest.raises(ValueError):
        table.variants("ab")
    p = tmp_path / "seg.tsv"
    table.save(p)
    back = SegTable.load(p, v)
    assert back.mode is SegMode.IMPLICIT_ALL
    assert back.words() == ["a", "ab"]


def test_segtable_load_rejects_bad_files(tmp_path):
    v, table = make_table()
    p = tmp_path / "seg.tsv"
    p.write_text("#adsm-segtable-v1\tmode=WHAT\n")
    with pytest.raises(FormatError, match="mode"):
        SegTable.load(p, v)
    p.write_text("#adsm-segtable-v1\tmode=EXPLICIT\nab\ta zz_\t1.0\n")
    with pytest.raises(FormatError, match="bad variant"):
        SegTable.load(p, v)


def test_segtable_load_reports_constructor_errors_with_line(tmp_path):
    v, _ = make_table()
    p = tmp_path / "seg.tsv"
    head = "#adsm-segtable-v1\tmode=EXPLICIT\nab\tab_\t1.0\n"
    cases = {
        "ba\ta b_\t1.0": "spells",
        "b\tb_\tnan": "outside",
        "b\tb_\t0": "outside",
        "b\tb_\t1.5": "outside",
        "b\tb_\t-0.5": "outside",
        "aab\ta ab_\t0.5": "sum",
        "b\tb_\t0.5\nb\tb_\t0.5": "duplicate",
    }
    for body, message in cases.items():
        p.write_text(head + body + "\n")
        with pytest.raises(FormatError, match=message) as err:
            SegTable.load(p, v)
        assert err.value.line == 3, body      # the word's first line
    p.write_text("#adsm-segtable-v1\tmode=IMPLICIT_ALL\nab\na b\n")
    with pytest.raises(FormatError, match="reserved") as err:
        SegTable.load(p, v)
    assert err.value.line == 3


def test_segtable_load_rejects_a_repeated_implicit_word(tmp_path):
    v, _ = make_table()
    p = tmp_path / "seg.tsv"
    p.write_text("#adsm-segtable-v1\tmode=IMPLICIT_ALL\nab\na\nab\n")
    with pytest.raises(FormatError, match="repeated word") as err:
        SegTable.load(p, v)
    assert err.value.line == 4
