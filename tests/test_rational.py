"""Continued fractions, canonical classes, knot naming, and grouping of
model words into knot types."""

import math
from fractions import Fraction

import pytest

import golden
from twobridge import census, diagram, rational, words


def model_words(c_lo, c_hi):
    for c in range(c_lo, c_hi + 1):
        yield from words.enumerate_model_words(c)


# ---------------------------------------------------- continued fractions

def test_continued_fraction_golden():
    assert rational.continued_fraction([7]) == rational.KnotFraction(7, 1)
    assert rational.continued_fraction([3, 1, 1, 1]) == rational.KnotFraction(11, 3)
    assert rational.continued_fraction([1] * 7) == rational.KnotFraction(21, 13)
    assert rational.continued_fraction([2, 1, 1, 2]) == rational.KnotFraction(13, 5)


def test_continued_fraction_rejects_bad_exponents():
    with pytest.raises(ValueError):
        rational.continued_fraction([])
    with pytest.raises(ValueError):
        rational.continued_fraction([3, 0, 2])


def test_knot_fraction_validation():
    with pytest.raises(ValueError):
        rational.KnotFraction(4, 1)  # even p
    with pytest.raises(ValueError):
        rational.KnotFraction(5, 5)  # q not below p
    with pytest.raises(ValueError):
        rational.KnotFraction(9, 3)  # not coprime


@pytest.mark.parametrize("row", golden.ROWS_SMALL + golden.ROWS_C6 + golden.ROWS_C7,
                         ids=[r[0] for r in golden.ROWS_SMALL + golden.ROWS_C6 + golden.ROWS_C7])
def test_fractions_from_alternating_words_golden(row):
    word, _, _, _, _, _, _, _, p, q, name, _ = row
    d = diagram.full_diagram(words.normalize_to_model(word).run_word)
    f = rational.continued_fraction(d.exponents())
    assert (f.p, f.q) == (p, q)
    assert rational.knot_name(rational.canonical_class(f)) == name


# -------------------------------------------------------- canonical class

def test_canonical_class_golden():
    assert rational.canonical_class(rational.KnotFraction(9, 7)) == (9, 2)
    assert rational.canonical_class(rational.KnotFraction(21, 13)) == (21, 8)
    assert rational.canonical_class(rational.KnotFraction(5, 3)) == (5, 2)
    assert rational.canonical_class(rational.KnotFraction(3, 1)) == (3, 1)


def test_canonical_class_is_idempotent_and_orbit_invariant():
    for f in (rational.KnotFraction(p, q)
              for p in range(3, 40, 2) for q in range(1, 40)
              if q < p and math.gcd(p, q) == 1):
        cc = rational.canonical_class(f)
        assert rational.canonical_class(rational.KnotFraction(cc.p, cc.q_star)) == cc
        # q, p-q, and the inverse of q mod p all land in the same class
        assert rational.canonical_class(rational.KnotFraction(f.p, f.p - f.q)) == cc
        qinv = pow(f.q, -1, f.p)
        assert rational.canonical_class(rational.KnotFraction(f.p, qinv)) == cc


def test_reversed_word_yields_same_class_and_genus():
    for r in model_words(3, 9):
        a = diagram.analyze(r)
        back = words.normalize_to_model(words.reverse(words.from_runs(r)))
        b = diagram.analyze(back.run_word)
        ca = rational.canonical_class(rational.KnotFraction(a.p, a.q))
        cb = rational.canonical_class(rational.KnotFraction(b.p, b.q))
        assert ca == cb
        assert a.genus == b.genus


def test_all_reference_names_reachable():
    found = set()
    for r in model_words(3, 7):
        found.add(diagram.analyze(r).name)
    assert found == set(rational.KNOT_NAMES.values())
    assert len(rational.KNOT_NAMES) == 14


# ---------------------------------------------------------------- grouping

def test_group_by_knot_golden():
    got = {k.name: k.multiplicity for k in census.run_census(6).knot_classes}
    assert got == golden.CLASSES_C6
    got = {k.name: k.multiplicity for k in census.run_census(7).knot_classes}
    assert got == golden.CLASSES_C7
    only = census.run_census(3).knot_classes
    assert len(only) == 1 and only[0].name == "3_1" and only[0].multiplicity == 1


def test_group_multiplicity_structure():
    # every knot type collects its word and the reverse; palindromic
    # type words are the multiplicity-1 classes
    for c in range(3, 12):
        classes = census.run_census(c).knot_classes
        n_words = sum(k.multiplicity for k in classes)
        assert n_words == sum(1 for _ in words.enumerate_model_words(c))
        n_pal = sum(1 for r in words.enumerate_model_words(c)
                    if words.is_palindromic_type(r))
        assert sum(1 for k in classes if k.multiplicity == 1) == n_pal
        assert 2 * len(classes) == n_words + n_pal
        for k in classes:
            assert k.multiplicity in (1, 2)
            assert len(k.words) == k.multiplicity
            if k.multiplicity == 2:
                w1, w2 = k.words
                r1 = words.normalize_to_model(w1).run_word
                r2 = words.normalize_to_model(w2).run_word
                assert r1.runs == r2.runs[::-1]


def test_distinct_knot_counts_match_reference():
    # 2-bridge knots by crossing number: 1, 1, 2, 3, 7 for c = 3..7
    counts = [len(census.run_census(c).knot_classes) for c in range(3, 8)]
    assert counts == [1, 1, 2, 3, 7]


def test_knot_class_serialization():
    k = census.run_census(6).knot_classes[0]
    row = k.csv_row()
    assert len(row) == len(rational.KnotClass.CSV_COLUMNS)
    blob = k.to_json()
    assert set(blob) >= {"p", "q", "q_star", "name", "multiplicity", "words"}


# -------------------------------------------------------------- rendering

def test_decimal_string():
    assert rational.decimal_string(Fraction(11, 10)) == "1.100000"
    assert rational.decimal_string(Fraction(17, 11)) == "1.545455"
    assert rational.decimal_string(Fraction(1, 3)) == "0.333333"
    assert rational.decimal_string(Fraction(2)) == "2.000000"
    assert rational.decimal_string(Fraction(1, 2), places=1) == "0.5"


def test_rational_rendering():
    assert rational.format_rational(Fraction(19, 5)) == "19/5 (3.800000)"
    assert rational.format_rational(Fraction(2)) == "2 (2.000000)"
    assert rational.rational_json(Fraction(8, 5)) == {
        "num": 8, "den": 5, "decimal": "1.600000"}


def test_records_render_from_their_field_list():
    # an unnamed knot, so the None name shows in both forms
    a = diagram.analyze(words.to_runs("+-+-++-++-"))
    assert a.csv_row() == [
        "+-+-++-++-", "1 1 1 1 2 1 2 1", "s1 s2^-1 s1 s2^-5", "HVVHHHHH",
        "2", "1", "0", "3", "2", "4", "3", "17", "11", "", "false"]
    assert a.to_json() == {
        "word": "+-+-++-++-",
        "runs": {"first_sign": "+", "runs": [1, 1, 1, 1, 2, 1, 2, 1]},
        "alternating": "s1 s2^-1 s1 s2^-5", "smoothings": "HVVHHHHH",
        "vertical": 2, "viable": 1, "sequential": 0, "s": 3, "s_lower": 2,
        "s_upper": 4, "genus": 3, "p": 17, "q": 11, "name": None,
        "palindromic": False}
    k = next(k for k in census.run_census(8).knot_classes if k.name is None)
    assert k.csv_row() == ["31", "13", "12", "", "2", "+--++-+-+- +-+-+--++-"]
    assert k.to_json() == {"p": 31, "q": 13, "q_star": 12, "name": None,
                           "multiplicity": 2,
                           "words": ["+--++-+-+-", "+-+-+--++-"]}
    for record in (a, k):
        assert list(record.to_json()) == list(record.CSV_COLUMNS)
