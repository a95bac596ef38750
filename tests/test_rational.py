"""Continued fractions, canonical classes, knot naming, and grouping of
model words into knot types."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import golden
import table_faults
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
    exponents = [len(list(run)) for _, run in itertools.groupby(x.generator for x in d)]
    f = rational.continued_fraction(exponents)
    assert (f.p, f.q) == (p, q)
    assert rational.KNOT_NAMES.get(rational.canonical_class(f)) == name


# ------------------------------------------ classify against its check route

def right_fold(exponents):
    """[a1, ..., ak] folded from the right, one exponent at a time: the
    check route for classify's continuant product."""
    num, den = exponents[-1], 1
    for a in reversed(exponents[:-1]):
        num, den = a * num + den, num
    return rational.KnotFraction(num, den)


def assert_classify_agrees(exponents):
    """classify against the right fold and canonical_class's pow(q, -1, p),
    refusals included: both routes raise the same ValueError or neither does."""
    try:
        f = right_fold(exponents)
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            rational.classify(exponents)
        assert str(info.value) == str(e)
        return False
    assert rational.classify(exponents) == (f, rational.canonical_class(f))
    return True


def word_exponents(r):
    return diagram._scan(r)[-1]


def test_classify_agrees_with_right_fold_on_model_words():
    for r in model_words(3, 14):
        assert assert_classify_agrees(word_exponents(r)), r


def benchmark_runs():
    """The 960 model words of the sample workload, sample 3001 15 s for s < 64."""
    runs = [n.run_word for s in range(64) for n in map(words.normalize_to_model,
                                                        words.sample(3001, 15, s))
            if n.kind == words.MODEL]
    assert len(runs) == 960
    return runs


def benchmark_exponents():
    """The exponents of the 960 words of the sample workload, about 489 each."""
    return map(word_exponents, benchmark_runs())


def test_classify_agrees_with_right_fold_on_benchmark_words():
    for exponents in benchmark_exponents():
        assert assert_classify_agrees(exponents)


def test_classify_takes_no_gcd_and_knot_fraction_takes_one(monkeypatch):
    # classify's determinant proves gcd(p, q) = 1; a direct construction
    # has no determinant and checks coprimality itself
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(rational, "gcd", counting_gcd)
    for exponents in benchmark_exponents():
        rational.classify(exponents)
    assert calls == []
    with pytest.raises(ValueError, match="^p, q must be coprime, got 9/3$"):
        rational.KnotFraction(9, 3)
    assert calls == [(9, 3)]


@pytest.mark.parametrize("k", [1, 2, 255, 256, 257, 511, 512, 513, 1500])
def test_classify_agrees_with_right_fold_across_block_edges(k):
    rng = random.Random(k)
    knots = sum(assert_classify_agrees([rng.randint(1, 20) for _ in range(k)])
                for _ in range(30))
    assert knots >= 10  # even p, and [1] alone, are refused by both routes


# ------------------------------------- the genus from the even continued fraction

def even_fraction_length(p, q):
    """The number of terms of the continued fraction of p/q whose terms are
    all even and nonzero, for p odd: 2 g, twice the genus of the 2-bridge
    knot p/q.  An odd q is replaced by p - q, the mirror image, first.
    Each step takes the even integer a nearest n/d, and continues with
    d/(n - a d).  A third route to the genus: it reads p and q only,
    nothing of diagram's run automaton or of the planar oracle."""
    n, d = p, q if q % 2 == 0 else p - q
    terms = 0
    while d:
        a = 2 * ((n + d) // (2 * d))
        n, d = d, n - a * d
        terms += 1
    return terms


def test_even_fraction_golden():
    # 3_1 and 4_1 have genus 1, 5_1 genus 2, 7_1 genus 3
    knots = [(3, 1), (5, 2), (5, 1), (7, 1)]
    assert [even_fraction_length(p, q) for p, q in knots] == [2, 2, 4, 6]


def test_even_fraction_gives_the_genus_of_every_word():
    # all 10,922 model words with c <= 16 and the 960 benchmark words
    count = 0
    for r in itertools.chain(model_words(3, 16), benchmark_runs()):
        a = diagram.analyze(r)
        assert even_fraction_length(a.p, a.q) == 2 * a.genus, a.word
        count += 1
    assert count == sum(census.model_count(c) for c in range(3, 17)) + 960 == 11_882


@pytest.mark.parametrize("fault, caught", [
    ("hv-shifted", 682), ("viability-inverted", 677), ("end-not-counted", 677)])
def test_even_fraction_catches_each_table_fault(monkeypatch, fault, caught):
    # the faulted genus is read past analyze's parity check, as
    # (c - 1 - viable) / 2 from the kernel's viable count; p/q comes from
    # the exponents, which no table fault touches
    table_faults.plant(fault, monkeypatch.setattr)
    mismatched = sum(len(r.runs) - 1 - diagram._scan(r)[3]
                     != even_fraction_length(*rational.classify(word_exponents(r))[0])
                     for r in model_words(3, 12))
    assert mismatched == caught  # of 682 words


def test_group_rows_records_equal_keyword_built_classes():
    # group_rows builds its records positionally; the same classes built
    # by field name, from a grouping of the test's own
    for c in range(3, 15):
        analyses = [diagram.analyze(r) for r in words.enumerate_model_words(c)]
        got = rational.group_rows(((a.p, a.q_star), a.word, a.q, a.genus, a.palindromic)
                                  for a in analyses)
        members = {}
        for a in analyses:
            members.setdefault((a.p, a.q_star), []).append(a)
        want = [rational.KnotClass(p=p, q=ms[0].q, q_star=q_star,
                                   name=rational.KNOT_NAMES.get((p, q_star)),
                                   multiplicity=len(ms), words=tuple(a.word for a in ms),
                                   genus=ms[0].genus)
                for (p, q_star), ms in members.items()]
        assert all(type(k) is rational.KnotClass for k in got)
        assert [k._asdict() for k in got] == [k._asdict() for k in want]
        assert len(got) == census.knot_class_count(c)


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
        assert rational.canonical_class(rational.KnotFraction(*cc)) == cc
        # q, p-q, and the inverse of q mod p all land in the same class
        assert rational.canonical_class(rational.KnotFraction(f.p, f.p - f.q)) == cc
        qinv = pow(f.q, -1, f.p)
        assert rational.canonical_class(rational.KnotFraction(f.p, qinv)) == cc


def test_reversed_word_yields_same_class_and_genus():
    for r in model_words(3, 9):
        a = diagram.analyze(r)
        back = words.normalize_to_model(words.from_runs(r)[::-1])
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


# ((p, q_star), word, q, genus, palindromic) rows, as WordAnalysis.knot_row gives
# them, each planted so that exactly one of group_rows' checks fires
_CC = (7, 2)


@pytest.mark.parametrize("rows, name, actual", [
    ([(_CC, "+--+-+-", 2, 1, False), (_CC, "+-+-+--", 4, 1, False),
      (_CC, "+-+--+-", 3, 1, False)], "class multiplicity", 3),
    ([(_CC, "+--+-+-", 2, 1, False), (_CC, "+-+-+--", 4, 2, False)],
     "one genus per class", [1, 2]),
    ([(_CC, "+--+-+-", 2, 1, True), (_CC, "+-+-+--", 4, 1, True)],
     "palindromic exactly when single", [True, True]),
    ([(_CC, "+--+-+-", 2, 1, False)], "palindromic exactly when single", [False]),
    ([(_CC, "+--+-+-", 2, 1, True), (_CC, "+-+-+--", 4, 1, False)],
     "palindromic exactly when single", [True, False]),
], ids=["multiplicity", "genus", "palindromic", "single-not-palindromic",
        "pair-one-palindromic"])
def test_group_rows_checks_fire(rows, name, actual):
    with pytest.raises(words.InvariantError) as info:
        rational.group_rows(rows)
    e = info.value
    assert (e.name, e.actual) == (name, actual)
    assert e.where == "words " + " ".join(row[1] for row in rows)


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
    assert rational.decimal_string(Fraction(-5, 2 * 10 ** 6)) == "-0.000002"  # half to even
    # the reference is round(Fraction(x) * 10**6), a half to even: on exact
    # halves of both signs, on ints and on random fractions
    halves = [Fraction(k, 2 * 10 ** 6) for k in range(-9, 10, 2)]
    ints = [0, 1, -1, 7, -12, 3 ** 200, -(5 ** 90)]
    rng = random.Random(32)
    randoms = [Fraction(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(1, 10 ** d))
               for d in rng.choices(range(1, 30), k=2000)]
    for x in halves + ints + randoms:
        n = round(Fraction(x) * 10 ** 6)
        whole, fraction = divmod(abs(n), 10 ** 6)
        assert rational.decimal_string(x) == f"{'-' if n < 0 else ''}{whole}.{fraction:06d}", x


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
