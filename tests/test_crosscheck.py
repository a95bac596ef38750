"""The cross-validation battery itself: green path and error capture."""

import dataclasses

import pytest

from twobridge import census, crosscheck, diagram


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
        return dataclasses.replace(a, s=a.s + 1)

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


def test_check_netto_counts():
    assert crosscheck.check_netto(k_max=10) == 33


def test_link_detection_requires_two_components():
    assert crosscheck.check_link_detection() == 1
