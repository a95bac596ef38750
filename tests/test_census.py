"""Counting formulas, closed-form vertical totals, the average-genus
lower bound, and the enumerated census that cross-checks them."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden
from twobridge import census, diagram, words


# ----------------------------------------------------------- Netto counts

def test_two_cos_table():
    vals = [census.two_cos_pi_thirds(m) for m in range(8)]
    assert vals == [2, 1, -1, -2, -1, 1, 2, 1]


def test_netto_partial_sums_match_direct_binomial_sums():
    for k in range(21):
        for r in range(3):
            direct = sum(math.comb(k, j) for j in range(r, k + 1, 3))
            assert census.netto_partial_sum(k, r) == direct


def test_netto_golden():
    assert census.netto_partial_sum(4, 0) == 5
    assert census.netto_partial_sum(6, 1) == 21
    assert census.netto_partial_sum(0, 0) == 1
    assert census.netto_partial_sum(0, 1) == 0


@given(st.integers(min_value=0, max_value=400))
def test_netto_residue_classes_cover_all_subsets(k):
    assert sum(census.netto_partial_sum(k, r) for r in range(3)) == 2 ** k


def test_netto_rejects_bad_arguments():
    with pytest.raises(ValueError):
        census.netto_partial_sum(-1, 0)
    with pytest.raises(ValueError):
        census.netto_partial_sum(3, 5)


# ------------------------------------------------------------ word counts

def test_star_values():
    got = [census.star(c) for c in range(3, 13)]
    assert got == [1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
    assert all(v in (-1, 1) for v in got)
    with pytest.raises(ValueError):
        census.star(2)


def test_model_count_golden_and_vs_enumeration():
    assert [census.model_count(c) for c in range(3, 13)] == golden.MODEL_COUNTS
    for c in range(3, 13):
        assert census.model_count(c) == sum(1 for _ in words.enumerate_model_words(c))


def test_model_count_divisibility():
    for c in range(3, 40):
        assert (2 ** (c - 2) + census.star(c)) % 3 == 0


# ------------------------------------------------- vertical contributions

def test_delta_indicators():
    # single at position i + d1 is vertical unless that lands on 1 mod 3
    assert [census.delta_single(i, 0) for i in (1, 2, 3, 4)] == [0, 1, 1, 0]
    assert [census.delta_double(i, 0) for i in (1, 2, 3, 4)] == [1, 0, 1, 1]
    assert census.delta_single(1, 1) == 1
    assert census.delta_double(1, 1) == 0


def test_index_contributions_golden():
    assert [census.index_contribution(6, i) for i in range(2, 6)] == [3, 4, 4, 3]
    assert [census.index_contribution(7, i) for i in range(2, 7)] == [5, 8, 6, 8, 5]


def test_index_contribution_symmetry():
    for c in range(3, 15):
        for i in range(2, c):
            assert census.index_contribution(c, i) == census.index_contribution(c, c + 1 - i)


def test_index_contribution_counts_enumerated_verticals():
    # the binomial formula counts, per index, exactly the model words
    # whose crossing there is vertically smoothed
    for c in range(3, 10):
        seen = [0] * (c + 1)
        for r in words.enumerate_model_words(c):
            d = diagram.full_diagram(r)
            for i in d.vertical_indices():
                seen[i] += 1
        assert seen[0] == seen[1] == seen[c] == 0
        for i in range(2, c):
            assert seen[i] == census.index_contribution(c, i)


def test_closed_form_vertical_totals():
    assert census.closed_form_vertical_total(3) == 0
    assert census.closed_form_vertical_total(6) == 14
    assert census.closed_form_vertical_total(7) == 32
    with pytest.raises(ValueError):
        census.closed_form_vertical_total(2)


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
    assert rep.avg_genus_lower_closed_form == want["bound"]
    assert rep.per_index_contributions == want["contributions"]
    assert rep.closed_form_vertical_total == want["vertical_total"]
    for x in (rep.avg_s, rep.avg_s_upper, rep.avg_genus,
              rep.avg_genus_lower_closed_form):
        assert isinstance(x, Fraction)


def test_census_c6_golden():
    check_report(census.run_census(6), golden.CENSUS_C6)


def test_census_c7_golden():
    check_report(census.run_census(7), golden.CENSUS_C7)


def test_census_c3_trivial():
    rep = census.run_census(3)
    assert rep.word_count == 1
    assert rep.avg_genus == 1
    assert rep.avg_genus_lower_closed_form == 1
    assert rep.per_index_contributions == (0,)


def test_census_rejects_small_c():
    with pytest.raises(ValueError):
        census.run_census(2)


def test_census_agrees_with_bound_ordering():
    for c in range(3, 13):
        rep = census.run_census(c)
        assert rep.avg_genus_lower_closed_form <= rep.avg_genus <= Fraction(c - 1, 2)


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(census.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def test_census_thread_count_does_not_change_report(monkeypatch):
    # with the cutoff at 0, c=8 runs through a real two-process pool
    serial = census.run_census(8, per_word=True)
    sizes = []

    class CountingPool(census.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(census, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(census, "_POOL_MIN_WORDS", 0)
    _usable_cpus(monkeypatch, 2)
    assert census.run_census(8, per_word=True) == serial
    assert sizes == [2]


def test_resolve_threads_is_clamped(monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 64)
    _usable_cpus(monkeypatch, 4)
    assert census.model_count(17) < census._POOL_MIN_WORDS <= census.model_count(18)
    assert census._resolve_threads(17, 100) == 1  # small census
    assert census._resolve_threads(18, 100) == 4  # the affinity mask, not cpu_count
    assert census._resolve_threads(18, 3) == 3
    _usable_cpus(monkeypatch, 1)
    assert census._resolve_threads(40, 100) == 1
    # without sched_getaffinity the CPU count decides
    monkeypatch.delattr(census.os, "sched_getaffinity", raising=False)
    assert census._resolve_threads(18, 100) == 64
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert census._resolve_threads(18, 100) == 1


def _record_pool_sizes(monkeypatch):
    """Swap the pool for a stand-in that records the size it was asked
    for and starts no process; returns the recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(census, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_census_pool_never_exceeds_cpu_count(monkeypatch):
    serial = census.run_census(8)
    n_tasks = len(list(words.enumeration_tasks(8)))
    sizes = _record_pool_sizes(monkeypatch)
    monkeypatch.setattr(census, "_POOL_MIN_WORDS", 0)
    for cpus in (2, n_tasks + 5):
        _usable_cpus(monkeypatch, cpus)
        assert census.run_census(8) == serial
    assert sizes == [2, n_tasks]


def test_census_one_usable_cpu_starts_no_pool(monkeypatch):
    sizes = _record_pool_sizes(monkeypatch)
    monkeypatch.setattr(census, "_POOL_MIN_WORDS", 0)
    _usable_cpus(monkeypatch, 1)
    census.run_census(8)
    assert sizes == []


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
