"""The cross-validation battery itself: green path and error capture."""

import gc

import pytest

import table_faults
from twobridge import census, crosscheck, diagram, planar


def test_run_all_green_and_counts():
    results, ok = crosscheck.run_all(6)
    assert ok
    names = [name for name, _, _ in results]
    assert names == [
        "netto identities",
        "census closed forms",
        "oracle circle counts and orientations",
        "determinant equality",
        "billiard orientation patterns",
        "knot class multiplicities",
        "link detection",
    ]
    for _, count, error in results:
        assert error is None
        assert count > 0


def test_run_all_captures_check_failures(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("planted failure")
    monkeypatch.setattr(crosscheck, "check_netto", boom)
    results, ok = crosscheck.run_all(5)
    assert not ok
    byname = {name: (count, error) for name, count, error in results}
    count, error = byname["netto identities"]
    assert count is None and "planted failure" in error
    # the rest of the battery still ran
    assert byname["link detection"] == (1, None)


def test_oracle_check_reads_what_analyze_reports(monkeypatch):
    real = diagram.analyze

    def off_by_one(r):
        a = real(r)
        return a._replace(s=a.s + 1)

    monkeypatch.setattr(diagram, "analyze", off_by_one)
    results, ok = crosscheck.run_all(6)
    assert not ok
    failed = [name for name, _, error in results if error is not None]
    assert failed == ["oracle circle counts and orientations"]
    assert all(count > 0 for name, count, _ in results if name not in failed)


def test_run_all_runs_each_census_once(monkeypatch):
    calls = []
    real = census.run_census

    def counting(c, *args, **kwargs):
        calls.append(c)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(census, "run_census", counting)
    _, ok = crosscheck.run_all(8)
    assert ok
    assert sorted(calls) == list(range(3, 9))


def test_run_all_analyzes_each_word_once(monkeypatch):
    # the census aggregates the analyses the oracle pass makes
    analyzed, censuses = [], []
    real_analyze, real_census = diagram.analyze, census.run_census

    def counting_analyze(r):
        analyzed.append(r)
        return real_analyze(r)

    def counting_census(c, *args, **kwargs):
        censuses.append(c)
        return real_census(c, *args, **kwargs)

    monkeypatch.setattr(diagram, "analyze", counting_analyze)
    monkeypatch.setattr(census, "run_census", counting_census)
    _, ok = crosscheck.run_all(11)
    assert ok
    assert len(analyzed) == 341  # the model words with 3 <= c <= 11
    assert censuses == list(range(3, 12))


def live_reports():
    """Census reports alive now: a report is a tuple, which no weak reference
    can point to, so count them among the objects the collector tracks."""
    gc.collect()
    return sum(type(x) is census.CensusReport for x in gc.get_objects())


def test_run_all_keeps_no_census_report(monkeypatch):
    # the census checks read only class counts, so by the time the diagram
    # checks build their first planar diagram no report is alive
    reports = []
    alive = []
    real_census, real_pd = census.run_census, planar.alternating_pd

    def tracked(c, *args, **kwargs):
        rep = real_census(c, *args, **kwargs)
        reports.append(c)
        return rep

    def first_build(generators):
        if not alive:
            alive.append(live_reports() - before)
        return real_pd(generators)

    monkeypatch.setattr(census, "run_census", tracked)
    monkeypatch.setattr(planar, "alternating_pd", first_build)
    before = live_reports()
    _, ok = crosscheck.run_all(8)
    assert ok
    assert len(reports) == 6 and alive == [0]


def test_run_all_builds_each_diagram_once(monkeypatch):
    calls = []
    real = planar.alternating_pd

    def counting(generators):
        calls.append(len(generators))
        return real(generators)

    monkeypatch.setattr(planar, "alternating_pd", counting)
    results, ok = crosscheck.run_all(11)
    assert ok
    assert len(calls) == 341  # the model words with 3 <= c <= 11
    counts = {name: count for name, count, _ in results}
    assert counts["oracle circle counts and orientations"] == 3 * 341
    assert counts["determinant equality"] == 341


def test_run_all_draws_no_per_crossing_records(monkeypatch):
    # the oracle draws each diagram from the generator list, never from
    # full_diagram's CrossingInfo records
    calls = []
    real = diagram.full_diagram

    def counting(r):
        calls.append(r)
        return real(r)

    monkeypatch.setattr(diagram, "full_diagram", counting)
    _, ok = crosscheck.run_all(8)
    assert ok
    assert calls == []


_PLANTED_DIAGRAM_FAULTS = [
    (planar, "goeritz_determinant", ["determinant equality"]),
    (planar, "trace_seifert_circles", ["oracle circle counts and orientations"]),
    (planar, "alternating_pd", ["oracle circle counts and orientations", "determinant equality"]),
    # the kernel reads the same generator list, so the census checks fail too
    (diagram, "generators", ["census closed forms", "oracle circle counts and orientations",
                             "determinant equality", "knot class multiplicities"]),
]


# ids name the planted function and its index, not the module
@pytest.mark.parametrize("module, name, failed", _PLANTED_DIAGRAM_FAULTS, ids=[
    f"{name}-failed{i}" for i, (_, name, _) in enumerate(_PLANTED_DIAGRAM_FAULTS)])
def test_diagram_checks_fail_independently(monkeypatch, module, name, failed):
    # the two checks share one pass over the words; a fault in what only
    # one of them reads fails that one, a fault in the shared build both
    def faulty(*args):
        raise AssertionError(f"planted {name} failure")

    monkeypatch.setattr(module, name, faulty)
    results, ok = crosscheck.run_all(8)
    assert not ok
    byname = {check: (count, error) for check, count, error in results}
    assert [check for check, (_, error) in byname.items() if error is not None] == failed
    for check in failed:
        assert byname[check] == (None, f"AssertionError: planted {name} failure")
    if "oracle circle counts and orientations" not in failed:
        assert byname["oracle circle counts and orientations"][0] == 3 * 42
    if "determinant equality" not in failed:
        assert byname["determinant equality"][0] == 42


@pytest.mark.parametrize("fault", table_faults.ALL_FAULTS)
def test_planted_table_fault_fails_census_and_oracle_checks(monkeypatch, fault):
    # the kernel and the scan read one table: the census checks compare it
    # with the closed forms, the oracle checks with the planar diagram
    table_faults.plant(fault, monkeypatch.setattr)
    results, ok = crosscheck.run_all(8)
    assert not ok
    assert [name for name, _, error in results if error is not None] == [
        "census closed forms", "oracle circle counts and orientations",
        "determinant equality", "knot class multiplicities"]


def test_failing_census_fails_both_census_checks(monkeypatch):
    real = census.run_census

    def faulty(c, *args, **kwargs):
        if c == 5:
            raise AssertionError("planted census failure")
        return real(c, *args, **kwargs)

    monkeypatch.setattr(census, "run_census", faulty)
    results, ok = crosscheck.run_all(6)
    assert not ok
    byname = {name: (count, error) for name, count, error in results}
    for name in ("census closed forms", "knot class multiplicities"):
        assert byname[name] == (None, "AssertionError: planted census failure")
    failed = [name for name, (_, error) in byname.items() if error is not None]
    assert failed == ["census closed forms", "knot class multiplicities"]


def test_empty_word_stream_fails_both_census_checks_by_name(monkeypatch):
    # no words at c = 5: both census checks fail the scan comparison, not
    # with a 0/0, and the diagram checks pass on the words there are
    real = crosscheck.enumerate_model_words
    monkeypatch.setattr(crosscheck, "enumerate_model_words",
                        lambda c: iter([]) if c == 5 else real(c))
    results, ok = crosscheck.run_all(6)
    assert not ok
    byname = {name: (count, error) for name, count, error in results}
    for name in ("census closed forms", "knot class multiplicities"):
        count, error = byname[name]
        assert count is None and error.startswith("InvariantError: scan totals at c=5: ")
    failed = [name for name, (_, error) in byname.items() if error is not None]
    assert failed == ["census closed forms", "knot class multiplicities"]
    assert byname["oracle circle counts and orientations"] == (3 * 7, None)
    assert byname["determinant equality"] == (7, None)


def test_census_failing_unread_leaves_the_oracle_whole(monkeypatch):
    # a census that raises before it reads its analyses fails both census
    # checks; every word of its c is still oracle-checked
    checked = []
    real_census, real_oracle = census.run_census, crosscheck.check_oracle_agreement

    def faulty(c, *args):
        if c == 5:
            raise AssertionError("planted census failure")
        return real_census(c, *args)

    def counting(a, pd):
        checked.append(len(a.smoothings))
        return real_oracle(a, pd)

    monkeypatch.setattr(census, "run_census", faulty)
    monkeypatch.setattr(crosscheck, "check_oracle_agreement", counting)
    results, ok = crosscheck.run_all(8)
    assert not ok
    byname = {name: (count, error) for name, count, error in results}
    assert byname["oracle circle counts and orientations"] == (3 * 42, None)
    assert byname["determinant equality"] == (42, None)
    assert [checked.count(c) for c in range(3, 9)] == [1, 1, 3, 5, 11, 21]
    failed = [name for name, (_, error) in byname.items() if error is not None]
    assert failed == ["census closed forms", "knot class multiplicities"]


_STREAM_CHECKS = ["census closed forms", "oracle circle counts and orientations",
                  "determinant equality", "knot class multiplicities"]


@pytest.mark.parametrize("census_reads", [True, False], ids=["census-reads", "census-unread"])
@pytest.mark.parametrize("where", ["enumeration", "analysis"])
@pytest.mark.parametrize("at", [0, 2], ids=["first-word", "third-word"])
def test_failing_word_stream_fails_every_check_that_reads_it(monkeypatch, where, at,
                                                             census_reads):
    # an enumeration or analysis that raises at word `at` of c = 5 fails
    # both diagram checks and both census checks with its own error, also
    # when the census raised first without reading: no short count passes
    real_enumerate, real_analyze = crosscheck.enumerate_model_words, diagram.analyze
    real_census = census.run_census
    seen = []

    def enumerate_words(c):
        for i, r in enumerate(real_enumerate(c)):
            if c == 5 and i == at:
                raise AssertionError("planted stream failure")
            yield r

    def analyze(r):
        a = real_analyze(r)
        if len(a.smoothings) == 5:
            seen.append(a)
            if len(seen) > at:
                raise AssertionError("planted stream failure")
        return a

    def unread(c, *args):
        if c == 5:
            raise AssertionError("planted census failure")
        return real_census(c, *args)

    if where == "analysis":
        monkeypatch.setattr(diagram, "analyze", analyze)
    else:
        monkeypatch.setattr(crosscheck, "enumerate_model_words", enumerate_words)
    if not census_reads:
        monkeypatch.setattr(census, "run_census", unread)
    results, ok = crosscheck.run_all(8)
    assert not ok
    byname = {name: (count, error) for name, count, error in results}
    assert [name for name, (_, error) in byname.items() if error is not None] == _STREAM_CHECKS
    for name in _STREAM_CHECKS:
        assert byname[name] == (None, "AssertionError: planted stream failure")


def test_check_netto_counts():
    # k = 0..NETTO_K_MAX, three residues each: the count check 11 prints
    assert crosscheck.check_netto() == 93


def test_link_detection_requires_two_components():
    assert crosscheck.check_link_detection() == 1
