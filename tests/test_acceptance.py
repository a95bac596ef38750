"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single `criterion NN PASS` line on success, so a
verbose run gives a per-criterion pass/fail report.  Stated runtime
budgets are enforced after the correctness assertions.  The large-c
experimental growth claim is out of scope by design; the bound for
c up to 30 is exercised through the CLI but not asserted against
external data.
"""

import time
from fractions import Fraction

import golden
from twobridge import census, crosscheck, diagram, planar, rational, words


def model_words(c_lo, c_hi):
    for c in range(c_lo, c_hi + 1):
        yield from words.enumerate_model_words(c)


def done(n, label, elapsed=None, budget=None):
    if budget is not None:
        assert elapsed < budget, f"criterion {n}: {elapsed:.2f}s over {budget}s budget"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {n:02d} PASS: {label}{suffix}")


def test_criterion_01_census_c6_exact():
    t0 = time.perf_counter()
    rep = census.run_census(6)
    elapsed = time.perf_counter() - t0
    assert rep.word_count == 5
    assert rep.avg_s == Fraction(19, 5)
    assert rep.avg_s_upper == Fraction(24, 5)
    assert rep.avg_genus == Fraction(8, 5)
    assert rep.avg_genus_lower == Fraction(11, 10)
    done(1, "c=6 census aggregates", elapsed, 1.0)


def test_criterion_02_census_c7_exact():
    t0 = time.perf_counter()
    rep = census.run_census(7)
    elapsed = time.perf_counter() - t0
    assert rep.word_count == 11
    assert rep.avg_s == Fraction(48, 11)
    assert rep.avg_s_upper == Fraction(54, 11)
    assert rep.avg_genus == Fraction(20, 11)
    assert rep.avg_genus_lower == Fraction(17, 11)
    done(2, "c=7 census aggregates", elapsed, 1.0)


def test_criterion_03_per_word_golden_tables():
    for c, rows in ((6, golden.ROWS_C6), (7, golden.ROWS_C7)):
        got = {a.word: a for a in census.run_census(c, per_word=True).analyses}
        assert set(got) == {r[0] for r in rows}
        for word, runs, alt, smooth, viable, seq, s, g, p, q, name, pal in rows:
            a = got[word]
            assert a.alternating == alt, word
            d = diagram.full_diagram(words.normalize_to_model(word).run_word)
            assert {x.index for x in d if x.viable} == viable, word
            nonviable = golden.vertical_set(smooth) - viable
            assert {x.index for x in d
                    if x.smoothing == diagram.V and not x.viable} == nonviable
            assert a.name == name, word
            assert (a.p, a.q, a.s, a.genus) == (p, q, s, g), word
    done(3, "tables of all 5 + 11 words at c=6,7")


def test_criterion_04_index_contribution_examples():
    assert census.index_contribution(6, 2) == 3
    assert census.index_contribution(6, 3) == 4
    assert census.closed_form_vertical_total(6) == 14
    assert census.index_contribution(7, 2) == 5
    assert census.index_contribution(7, 3) == 8
    assert census.index_contribution(7, 4) == 6
    assert census.closed_form_vertical_total(7) == 32
    done(4, "index contributions at c=6,7")


def test_criterion_05_count_formula_up_to_24():
    t0 = time.perf_counter()
    for c in range(3, 25):
        model = words.enumerate_model_words(c)
        if c <= 20:
            model = list(model)
            palindromes = sum(map(words.is_palindromic_type, model))
            assert palindromes == census.palindromic_count(c), c
        enumerated = sum(1 for _ in model)
        assert enumerated == census.model_count(c) == (
            2 ** (c - 2) + census.star(c)) // 3, c
    elapsed = time.perf_counter() - t0
    done(5, "enumerated counts match (2^(c-2)+*)/3 for 3<=c<=24, "
            "palindromic counts for c<=20", elapsed, 60.0)


def test_criterion_06_oracle_seifert_equivalence_up_to_14():
    t0 = time.perf_counter()
    n = 0
    for r in model_words(3, 14):
        a = diagram.analyze(r)
        od = planar.orient(planar.alternating_pd(diagram.generators(r)))
        s = planar.trace_seifert_circles(od)
        assert s == a.s, a.word
        assert a.s_lower <= s <= a.s_upper, a.word
        n += 1
    elapsed = time.perf_counter() - t0
    assert n == 2730
    done(6, f"traced circles equal 2+viable on {n} words, c<=14", elapsed, 60.0)


def test_criterion_07_billiard_orientation_patterns():
    t0 = time.perf_counter()
    checks = crosscheck.check_orientation_patterns(max_len=40, per_length=500,
                                                   seed=20260814)
    elapsed = time.perf_counter() - t0
    assert checks == 500 * len([n for n in range(1, 41) if n % 3 != 2])
    done(7, f"{checks} random billiard closures follow the forced V/H pattern",
         elapsed)


def test_criterion_08_closed_form_vertical_totals_up_to_20():
    t0 = time.perf_counter()
    for c in range(3, 21):
        rep = census.run_census(c)
        assert rep.vertical_total == census.closed_form_vertical_total(c), c
        assert rep.per_index_contributions == tuple(
            census.index_contribution(c, i) for i in range(2, c)), c
        for i in range(2, c):
            assert census.index_contribution(c, i) == \
                census.index_contribution(c, c + 1 - i)
    elapsed = time.perf_counter() - t0
    done(8, "closed form equals enumerated vertical totals for 3<=c<=20", elapsed)


def test_criterion_09_multiplicity_structure_up_to_14():
    for c in range(3, 15):
        classes = census.run_census(c).knot_classes
        pal = {words.from_runs(r) for r in words.enumerate_model_words(c)
               if words.is_palindromic_type(r)}
        for k in classes:
            if k.multiplicity == 1:
                assert set(k.words) <= pal, (c, k)
            else:
                assert k.multiplicity == 2
                assert not set(k.words) & pal, (c, k)
                a, b = (diagram.analyze(words.normalize_to_model(w).run_word)
                        for w in k.words)
                assert a.genus == b.genus
                ca = rational.canonical_class(rational.KnotFraction(a.p, a.q))
                cb = rational.canonical_class(rational.KnotFraction(b.p, b.q))
                assert ca == cb == (k.p, k.q_star)
        assert sum(1 for k in classes if k.multiplicity == 1) == len(pal)
    done(9, "knot class multiplicities and 2-class agreement for 3<=c<=14")


def test_criterion_10_determinants_up_to_12():
    t0 = time.perf_counter()
    n = 0
    for r in model_words(3, 12):
        a = diagram.analyze(r)
        det_alt = planar.goeritz_determinant(planar.alternating_pd(diagram.generators(r)))
        det_bil = planar.goeritz_determinant(planar.billiard_pd(a.word))
        assert det_alt == det_bil == a.p, a.word
        n += 1
    elapsed = time.perf_counter() - t0
    assert n == 682
    done(10, f"Goeritz determinants agree with p on {n} words, c<=12",
         elapsed, 120.0)


def test_criterion_11_netto_identities_up_to_30():
    import math
    for k in range(31):
        for r in range(3):
            direct = sum(math.comb(k, j) for j in range(r, k + 1, 3))
            assert census.netto_partial_sum(k, r) == direct, (k, r)
    done(11, "binomial residue-class sums match closed forms for k<=30")
