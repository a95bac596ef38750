"""Counting formulas, closed-form census totals, the average-genus
lower bound, the run scan, and the enumerated census that cross-checks
them."""

import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from twobridge import census, crosscheck, diagram, words


# ----------------------------------------------------------- Netto counts

def test_two_cos_table():
    vals = [golden.two_cos_pi_thirds(m) for m in range(8)]
    assert vals == [2, 1, -1, -2, -1, 1, 2, 1]
    # 2cos((m + 1) x) = 2cos(x) 2cos(m x) - 2cos((m - 1) x), and 2cos(pi/3) = 1
    for m in range(1, 30):
        assert vals[(m + 1) % 6] == vals[m % 6] - vals[(m - 1) % 6], m


def netto(k, r):
    """N(k, r), the sum of C(k, j) over j = r (mod 3), in the closed form
    index_contribution is derived from: (2^k + 2cos((k - 2r) pi/3)) / 3."""
    total = 2 ** k + golden.two_cos_pi_thirds(k - 2 * r)
    assert total % 3 == 0, (k, r)
    return total // 3


def test_netto_partial_sums_match_direct_binomial_sums():
    for k in range(21):
        for r in range(3):
            direct = sum(math.comb(k, j) for j in range(r, k + 1, 3))
            assert netto(k, r) == direct


def test_netto_golden():
    assert netto(4, 0) == 5
    assert netto(6, 1) == 21
    assert netto(0, 0) == 1
    assert netto(0, 1) == 0


@given(st.integers(min_value=0, max_value=400))
def test_netto_residue_classes_cover_all_subsets(k):
    assert sum(netto(k, r) for r in range(3)) == 2 ** k


@pytest.mark.parametrize("entry, wrong", [(0, 3), (3, -1), (5, 0)])
def test_check_netto_reads_the_table_the_census_uses(monkeypatch, entry, wrong):
    # the census's per-index closed form was derived from this table and
    # reads none at run time, so one wrong entry of 2cos(m pi/3) fails
    # check's Netto identities, and nothing else
    table = list(crosscheck._TWO_COS)
    table[entry] = wrong
    monkeypatch.setattr(crosscheck, "_TWO_COS", tuple(table))
    results, ok = crosscheck.run_all(8)
    assert not ok
    errors = {name: error for name, _, error in results if error is not None}
    assert list(errors) == ["netto identities"]
    assert errors["netto identities"].startswith("InvariantError: Netto closed form at k=")


# ------------------------------------------------------------ word counts

def test_star_values():
    got = [census.star(c) for c in range(3, 13)]
    assert got == [1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
    assert all(v in (-1, 1) for v in got)
    with pytest.raises(ValueError):
        census.star(2)
    # the residue form, 2cos(m pi/3) with m chosen by c mod 3
    for c in range(3, 301):
        reference = golden.two_cos_pi_thirds({1: c - 2, 0: c - 4, 2: c - 6}[c % 3])
        assert census.star(c) == reference, c


def test_model_count_golden_and_vs_enumeration():
    assert [census.model_count(c) for c in range(3, 13)] == golden.MODEL_COUNTS
    for c in range(3, 13):
        assert census.model_count(c) == sum(1 for _ in words.enumerate_model_words(c))


def test_model_count_divisibility():
    for c in range(3, 40):
        assert (2 ** (c - 2) + census.star(c)) % 3 == 0


# ------------------------------------------------- vertical contributions

def delta(i, d1, e):
    """The H/V start rule: 1 when run i, of length e, with d1 doubles
    before it, starts at a letter position i + d1 that is not e mod 3 (so
    smooths V)."""
    return 1 if (i + d1) % 3 != e else 0


def test_delta_indicators():
    # single at position i + d1 is vertical unless that lands on 1 mod 3
    assert [delta(i, 0, 1) for i in (1, 2, 3, 4)] == [0, 1, 1, 0]
    assert [delta(i, 0, 2) for i in (1, 2, 3, 4)] == [1, 0, 1, 1]
    assert delta(1, 1, 1) == 1
    assert delta(1, 1, 2) == 0


def test_index_contributions_golden():
    assert [census.index_contribution(6, i) for i in range(2, 6)] == [3, 4, 4, 3]
    assert [census.index_contribution(7, i) for i in range(2, 7)] == [5, 8, 6, 8, 5]


def _index_contribution_by_double_sum(c, i):
    """The per-index count summed over every placement: d1 doubles left of
    run i and d2 right of it, with run i single (first sum) or double
    (second), filtered by the total-length congruence and the delta
    indicators.  O(c^2) binomial products; the oracle for the residue form.
    """
    total = 0
    left_slots = i - 2
    right_slots = c - i - 1
    for d1 in range(left_slots + 1):
        ways_left = math.comb(left_slots, d1)
        if delta(i, d1, 1):
            for d2 in range(right_slots + 1):
                if (c + d1 + d2) % 3 == 1:
                    total += ways_left * math.comb(right_slots, d2)
        if delta(i, d1, 2):
            for d2 in range(right_slots + 1):
                if (c + d1 + 1 + d2) % 3 == 1:
                    total += ways_left * math.comb(right_slots, d2)
    return total


def _index_contribution_by_netto_products(c, i):
    """The per-index count as three products of Netto sums, one per residue
    r of the doubles left of run i; the oracle for the shift form."""
    total = 0
    left_slots = i - 2
    right_slots = c - i - 1
    for r in (0, 1, 2):
        right = (delta(i, r, 1) * netto(right_slots, (1 - c - r) % 3)
                 + delta(i, r, 2) * netto(right_slots, (-c - r) % 3))
        total += netto(left_slots, r) * right
    return total


def test_index_contribution_equals_netto_products():
    for c in range(3, 300):
        for i in range(2, c):
            assert census.index_contribution(c, i) == _index_contribution_by_netto_products(c, i), \
                (c, i)


def _netto_coefficients(c, i):
    """Nine times _index_contribution_by_netto_products(c, i) as its
    coefficients of 2^(c-3), 2^(i-2), 2^(c-i-1) and 1: each product
    N(a, r) N(b, r') = (2^(a+b) + u 2^a + t 2^b + t u) / 9 with
    t = 2cos((a - 2r) pi/3) and u = 2cos((b - 2r') pi/3)."""
    left, right = i - 2, c - i - 1
    both = by_left = by_right = const = 0
    for r in (0, 1, 2):
        t = golden.two_cos_pi_thirds(left - 2 * r)
        for e, r2 in ((1, (1 - c - r) % 3), (2, (-c - r) % 3)):
            if delta(i, r, e):
                u = golden.two_cos_pi_thirds(right - 2 * r2)
                both += 1
                by_left += u
                by_right += t
                const += t * u
    return both, by_left, by_right, const


def test_netto_coefficients_prove_the_closed_form():
    # census's docstring proof: the Netto route's coefficients depend on
    # i mod 6 and c mod 6 alone, the closed form's on their parities, so
    # one (c, i) per pair of residues proves the form for every c; the
    # 2^(c-3) coefficient 4 is the closed form's 2^(c-1)
    for c in range(12, 18):
        for i in range(6, 12):
            sc, si = (-1) ** c, (-1) ** i
            assert _netto_coefficients(c, i) == (4, sc * si, -si, 2 * sc), (c, i)
    for c in range(3, 60):
        for i in range(2, c):
            both, by_left, by_right, const = _netto_coefficients(c, i)
            assert ((both << (c - 3)) + (by_left << (i - 2)) + (by_right << (c - i - 1))
                    + const == 9 * _index_contribution_by_netto_products(c, i)), (c, i)
            assert _netto_coefficients(c, i) == _netto_coefficients(12 + c % 6, 6 + i % 6)


def test_index_contribution_equals_double_sum():
    for c in range(3, 61):
        for i in range(2, c):
            assert census.index_contribution(c, i) == _index_contribution_by_double_sum(c, i), (c, i)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=400).flatmap(
    lambda c: st.tuples(st.just(c), st.integers(min_value=2, max_value=c - 1))))
def test_index_contribution_equals_double_sum_large_c(ci):
    c, i = ci
    assert census.index_contribution(c, i) == _index_contribution_by_double_sum(c, i)


def test_index_contribution_symmetry():
    for c in range(3, 15):
        for i in range(2, c):
            assert census.index_contribution(c, i) == census.index_contribution(c, c + 1 - i)


def test_index_contribution_counts_enumerated_verticals():
    # the residue-class formula counts, per index, exactly the model words
    # whose crossing there is vertically smoothed
    for c in range(3, 10):
        seen = [0] * (c + 1)
        for r in words.enumerate_model_words(c):
            for x in diagram.full_diagram(r):
                if x.smoothing == diagram.V:
                    seen[x.index] += 1
        assert seen[0] == seen[1] == seen[c] == 0
        for i in range(2, c):
            assert seen[i] == census.index_contribution(c, i)


def test_closed_form_vertical_totals():
    assert census.closed_form_totals(3).vertical_total == 0
    assert census.closed_form_totals(6).vertical_total == 14
    assert census.closed_form_totals(7).vertical_total == 32
    with pytest.raises(ValueError):
        census.closed_form_totals(2).vertical_total


def test_index_contribution_rejects_bad_index():
    with pytest.raises(ValueError):
        census.index_contribution(6, 1)
    with pytest.raises(ValueError):
        census.index_contribution(6, 6)


# ------------------------------------------------------------- the bound

def test_lower_bound_golden():
    assert census.lower_bound_avg_genus(3) == 1
    assert census.lower_bound_avg_genus(6) == Fraction(11, 10)
    assert census.lower_bound_avg_genus(7) == Fraction(17, 11)
    assert isinstance(census.lower_bound_avg_genus(6), Fraction)


def test_lower_bound_exact_at_c100():
    assert census.lower_bound_avg_genus(100) == Fraction(
        3579939195088981180152726644757, 211275100038038233582783867562)


def test_lower_bound_is_the_papers_formula_on_every_route():
    for c in range(3, 301):
        paper = Fraction(c - 1, 2) - Fraction(
            3 * census.closed_form_totals(c).vertical_total, 2 * (2 ** (c - 2) + census.star(c)))
        assert census.lower_bound_avg_genus(c) == paper, c
        assert census.scan_totals(c).avg_genus_lower == paper, c


def test_averages_equal_their_composite_expressions():
    # each average is one Fraction of two integers; these are the chained
    # forms it replaced, on the same totals
    for c in [*range(3, 301), 10_000]:
        rep = census.closed_form_totals(c)
        n, vert, viab = rep.word_count, rep.vertical_total, rep.viable_total
        avg_s = 2 + Fraction(viab, n)
        assert rep.avg_s == avg_s, c
        assert rep.avg_s_upper == 2 + Fraction(vert, n), c
        assert rep.avg_genus == Fraction(1 + c, 2) - avg_s / 2, c
        assert rep.avg_genus_lower == Fraction(c - 1, 2) - Fraction(vert, 2 * n), c


def test_lower_bound_below_half_c_minus_one():
    for c in range(3, 26):
        b = census.lower_bound_avg_genus(c)
        assert 0 < b <= Fraction(c - 1, 2)


# ----------------------------------------------------------------- census

def check_report(rep, want):
    assert rep.word_count == want["word_count"]
    assert rep.star == want["star"]
    assert rep.vertical_total == want["vertical_total"]
    assert rep.viable_total == want["viable_total"]
    assert rep.sequential_total == want["sequential_total"]
    assert rep.avg_s == want["avg_s"]
    assert rep.avg_s_upper == want["avg_s_upper"]
    assert rep.avg_genus == want["avg_genus"]
    assert rep.avg_genus_lower == want["bound"]
    assert rep.per_index_contributions == want["contributions"]
    assert census.closed_form_totals(rep.c).vertical_total == want["vertical_total"]
    for x in (rep.avg_s, rep.avg_s_upper, rep.avg_genus,
              rep.avg_genus_lower):
        assert isinstance(x, Fraction)


def test_census_c6_golden():
    check_report(census.run_census(6), golden.CENSUS_C6)


def test_census_c7_golden():
    check_report(census.run_census(7), golden.CENSUS_C7)


def test_census_c3_trivial():
    rep = census.run_census(3)
    assert rep.word_count == 1
    assert rep.avg_genus == 1
    assert rep.avg_genus_lower == 1
    assert rep.per_index_contributions == (0,)


def test_census_of_no_analyses_fails_the_scan_by_name():
    # an empty stream leaves no average genus to compare, not a 0/0
    with pytest.raises(words.InvariantError, match="^scan totals at c=5: "):
        census.run_census(5, analyses=iter([]))


def test_census_rejects_small_c():
    with pytest.raises(ValueError):
        census.run_census(2)


def test_census_agrees_with_bound_ordering():
    for c in range(3, 13):
        rep = census.run_census(c)
        assert rep.avg_genus_lower <= rep.avg_genus <= Fraction(c - 1, 2)


def test_census_per_word_rows_match_reference_tables():
    rep = census.run_census(7, per_word=True)
    assert rep.analyses is not None
    by_word = {a.word: a for a in rep.analyses}
    assert set(by_word) == {row[0] for row in golden.ROWS_C7}
    for word, runs, alt, smooth, viable, seq, s, g, p, q, name, pal in golden.ROWS_C7:
        a = by_word[word]
        assert (a.alternating, a.smoothings, a.s, a.genus) == (alt, smooth, s, g)
        assert (a.p, a.q, a.name, a.palindromic) == (p, q, name, pal)
    assert census.run_census(7).analyses is None


def test_census_knot_classes():
    rep = census.run_census(7)
    got = {k.name: k.multiplicity for k in rep.knot_classes}
    assert got == golden.CLASSES_C7


def test_census_report_stores_only_what_was_counted():
    assert list(census.CensusReport._fields) == [
        "c", "word_count", "vertical_total", "viable_total", "sequential_total",
        "knot_classes", "analyses"]
    rep = census.scan_totals(9)
    assert rep.avg_genus_lower == census.lower_bound_avg_genus(9)
    assert rep.vertical_total == census.closed_form_totals(9).vertical_total
    assert rep.per_index_contributions == tuple(census.index_contribution(9, i)
                                                for i in range(2, 9))


def test_report_serialization():
    rep = census.run_census(6, per_word=True)
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["c"] == 6
    assert blob["avg_genus"] == {"num": 8, "den": 5, "decimal": "1.600000"}
    assert blob["totals"]["vertical"] == 14
    assert len(blob["words"]) == 5
    assert len(blob["knot_classes"]) == 3
    row = rep.csv_row()
    assert len(row) == len(census.CensusReport.CSV_COLUMNS)
    assert row[census.CensusReport.CSV_COLUMNS.index("avg_s")] == "19/5"


# --------------------------------------------------------------- run scan

scanned = functools.cache(census.scan_totals)

# the census module docstring's proof: for a fixed parity of c, a scanned
# total satisfies a recurrence of order at most len(diagram.STATES) x 4
# sums, a closed form one of order 4, so equality on 76 consecutive values
# of each parity holds for every c
_RECURRENCE_ORDER_BOUND = len(diagram.STATES) * 4 + 4
_CERTIFIED = range(3, 301)


def test_run_automaton_has_18_states_12_reachable():
    assert len(diagram.STATES) == 18
    assert _RECURRENCE_ORDER_BOUND == 76
    reached, frontier = {diagram.START}, [diagram.START]
    while frontier:
        row = diagram.STEP[frontier.pop()]
        for nxt in {row[e][g][0] for e in (1, 2) for g in row[e]}:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    assert len(reached) == 12


def test_scan_carries_at_most_7_live_states():
    # the states a scan over c runs holds after each run; run i of length e
    # has generator s1 iff i + e is odd
    generator = (diagram.SIGMA2_INV, diagram.SIGMA1)
    most = 0
    for c in range(3, 60):
        live = {diagram.START}
        for i in range(c):
            live = {diagram.STEP[state][e][generator[(i + e) % 2]][0]
                    for state in live for e in ((1, 2) if 0 < i < c - 1 else (1,))}
            most = max(most, len(live))
    assert most == 7


def test_scan_equals_enumerated_totals():
    for c in range(3, 17):
        rep = census.run_census(c)
        assert scanned(c) == rep._replace(knot_classes=None, analyses=None), c


def test_scan_count_and_vertical_match_closed_forms():
    for c in range(3, 301):
        assert scanned(c).word_count == census.model_count(c), c
        assert scanned(c).vertical_total == census.closed_form_totals(c).vertical_total, c


def test_closed_form_totals_equal_scan_for_every_c():
    for first in (0, 1):  # consecutive values of one parity: c = 3, 5, ... and 4, 6, ...
        assert len(_CERTIFIED[first::2]) >= _RECURRENCE_ORDER_BOUND
    for c in _CERTIFIED:
        closed = census.closed_form_totals(c)
        assert closed == scanned(c), c
        for rep in (closed, scanned(c)):  # totals only: no classes, no analyses
            assert type(rep) is census.CensusReport, c
            assert rep.knot_classes is None and rep.analyses is None, c


def _minimal_recurrence(seq):
    """Berlekamp-Massey over the rationals: the coefficients [1, a1, ..., aL]
    of least L with seq[n] + a1 seq[n-1] + ... + aL seq[n-L] = 0 for every
    n >= L, that is, of the characteristic polynomial x^L + a1 x^(L-1) + ... + aL."""
    conn, prev = [Fraction(1)], [Fraction(1)]
    order, shift, prev_d = 0, 1, Fraction(1)
    for n, x in enumerate(seq):
        d = x + sum(conn[i] * seq[n - i] for i in range(1, order + 1))
        if d == 0:
            shift += 1
            continue
        saved = conn[:]
        conn += [Fraction(0)] * (len(prev) + shift - len(conn))
        for i, y in enumerate(prev):
            conn[i + shift] -= d / prev_d * y
        if 2 * order <= n:
            order, prev, prev_d, shift = n + 1 - order, saved, d, 1
        else:
            shift += 1
    return conn[:order + 1]


def test_minimal_recurrence_recovers_known_sequences():
    assert _minimal_recurrence([2 ** n for n in range(10)]) == [1, -2]
    assert _minimal_recurrence([n * 3 ** n for n in range(12)]) == [1, -6, 9]
    fibonacci = [0, 1]
    while len(fibonacci) < 12:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert _minimal_recurrence(fibonacci) == [1, -1, -1]


def test_scanned_totals_satisfy_the_closed_form_recurrences():
    # in steps of 2: (x - 4)^2 (x - 1)^2 for the crossing totals, and
    # (x - 4)(x - 1) for the word count, whose (-1)^c term has no factor c
    want = {"word_count": [1, -5, 4], "vertical_total": [1, -10, 33, -40, 16],
            "viable_total": [1, -10, 33, -40, 16], "sequential_total": [1, -10, 33, -40, 16]}
    for first in (0, 1):
        totals = [scanned(c) for c in _CERTIFIED[first::2]]
        for name, poly in want.items():
            seq = [getattr(t, name) for t in totals]
            assert _minimal_recurrence(seq) == poly, (first, name)


def test_closed_form_totals_check_divisibility():
    assert census.closed_form_totals(7) == census.CensusReport(7, 11, 32, 26, 14)
    with pytest.raises(ValueError, match="c >= 3"):
        census.closed_form_totals(2)
    with pytest.raises(words.InvariantError,
                       match="^vertical total divisible by 54 at c=6: expected 0, got 1$"):
        census._exact_quotient(14 * 54 + 1, 54, "vertical total", "c=6")


def test_scan_census_equals_run_census_without_word_lists():
    for c in (3, 6, 7, 12):
        enumerated = census.run_census(c)
        assert census.scan_totals(c) == enumerated._replace(knot_classes=None)


def test_toggled_half_maps_palindromes_onto_half_length_model_words():
    # palindromic_count's bijection: keep the end runs and, when c is odd,
    # the middle run; toggle the h = (c - 2) // 2 interior runs before it
    for c in range(3, 19):
        h = (c - 2) // 2
        images = [(1,) + tuple(3 - e for e in r.runs[1:h + 1]) + r.runs[h + 1:c - h - 1] + (1,)
                  for r in words.enumerate_model_words(c) if words.is_palindromic_type(r)]
        half = [r.runs for r in words.enumerate_model_words((c + 1) // 2 + 1)]
        assert len(set(images)) == len(images) and sorted(images) == sorted(half), c


def test_knot_class_count_golden():
    # 2-bridge knots up to mirror image by crossing number (Ernst-Sumners)
    assert [census.knot_class_count(c) for c in range(3, 13)] == [
        1, 1, 2, 3, 7, 12, 24, 45, 91, 176]


def test_run_census_checks_class_count(monkeypatch):
    monkeypatch.setattr(census, "knot_class_count", lambda c: 4)
    with pytest.raises(words.InvariantError,
                       match="knot class count at c=6: expected 3, got 4"):
        census.run_census(6)


def test_run_census_builds_no_word_through_run_word_checks(monkeypatch):
    # the enumeration's construction proves what RunWord's constructor
    # checks (test_enumeration_counts_and_distinctness compares the two),
    # so the census path builds its words past it; a direct construction
    # still checks
    calls = []
    checked = words.RunWord.__new__

    def counting_new(cls, *args):
        calls.append(args)
        return checked(cls, *args)

    monkeypatch.setattr(words.RunWord, "__new__", counting_new)
    assert census.run_census(12).word_count == 341
    assert calls == []
    with pytest.raises(words.NotReducedForm, match="^run lengths must be 1 or 2"):
        words.RunWord("+", (1, 3, 1))
    assert calls == [("+", (1, 3, 1))]
