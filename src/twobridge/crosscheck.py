"""The full two-route validation battery behind the check command.

Every fact the fast modules compute combinatorially is recomputed here
through an independent route and compared: closed forms against
enumeration (inside run_census), circle counts and orientations against
honest diagram traversal, determinants against the continued-fraction p,
multiplicity structure against the classification.  A clean run is real
evidence; any mismatch is reported as a failure, never patched over.
"""

import random
from math import comb

from . import census, diagram, planar
from .words import enumerate_model_words


def expected_pattern(n):
    """Billiard V/H sequence for any word of length n: independent of the
    letters, only the length matters."""
    if n % 3 == 1:
        return ["H"] + ["V", "V", "H"] * ((n - 1) // 3)
    if n % 3 == 0:
        return ["V", "H", "V"] * (n // 3)
    raise ValueError(f"length {n} closes to a link, no knot pattern")


def check_netto(k_max=30):
    count = 0
    for k in range(k_max + 1):
        for r in (0, 1, 2):
            direct = sum(comb(k, j) for j in range(r, k + 1, 3))
            assert census.netto_partial_sum(k, r) == direct, (k, r)
            count += 1
    return count


def check_census_closed_forms(c_max):
    # run_census itself asserts: enumerated count = count formula,
    # enumerated vertical total and per-index counts = closed forms,
    # index symmetry, genus identity, bound ordering
    count = 0
    for c in range(3, c_max + 1):
        census.run_census(c)
        count += 5 + (c - 2)
    return count


def check_oracle_agreement(c_max):
    count = 0
    for c in range(3, c_max + 1):
        for r in enumerate_model_words(c):
            d = diagram.full_diagram(r)
            od = planar.orient(planar.alternating_pd(d))
            traced = planar.classify_orientations(od)
            assert traced == [x.smoothing for x in d.crossings], r
            s = diagram.seifert_circle_count(d)
            assert planar.trace_seifert_circles(od) == s, r
            lo, hi = diagram.seifert_bounds(d)
            assert lo <= s <= hi, r
            count += 3
    return count


def check_determinants(c_max):
    count = 0
    for c in range(3, min(c_max, 12) + 1):
        for r in enumerate_model_words(c):
            a = diagram.analyze(r)
            alt = planar.goeritz_determinant(planar.alternating_pd(diagram.full_diagram(r)))
            bil = planar.goeritz_determinant(planar.billiard_pd(a.word))
            assert alt == bil == a.p, (a.word, alt, bil, a.p)
            count += 1
    return count


def check_orientation_patterns(max_len=40, per_length=50, seed=2026):
    rng = random.Random(seed)
    count = 0
    for n in range(1, max_len + 1):
        if n % 3 == 2:
            continue
        expected = expected_pattern(n)
        for _ in range(per_length):
            w = "".join(rng.choice("+-") for _ in range(n))
            od = planar.orient(planar.billiard_pd(w))
            assert planar.classify_orientations(od) == expected, w
            count += 1
    return count


def check_multiplicities(c_max):
    # group_rows asserts multiplicity in {1,2}, palindromic singles,
    # genus agreement and the distinct-knot count identity
    count = 0
    for c in range(3, c_max + 1):
        count += len(census.run_census(c).knot_classes)
    return count


def check_link_detection():
    try:
        planar.orient(planar.billiard_pd("+-", allow_link=True))
    except planar.MultiComponent as e:
        assert e.k == 2
        return 1
    raise AssertionError("closure of '+-' should have 2 components")


def run_all(c_max):
    """Run every check; returns (results, ok) where results is a list of
    (name, assertion count or None, error text or None)."""
    if c_max < 3:
        raise ValueError(f"need c_max >= 3, got {c_max}")
    checks = [
        ("netto identities", lambda: check_netto()),
        ("census closed forms", lambda: check_census_closed_forms(c_max)),
        ("oracle circle counts and orientations", lambda: check_oracle_agreement(c_max)),
        ("determinant equality", lambda: check_determinants(c_max)),
        ("billiard orientation patterns", lambda: check_orientation_patterns()),
        ("knot class multiplicities", lambda: check_multiplicities(c_max)),
        ("link detection", check_link_detection),
    ]
    results = []
    ok = True
    for name, fn in checks:
        try:
            results.append((name, fn(), None))
        except Exception as e:  # report every failure, keep going
            ok = False
            results.append((name, None, f"{type(e).__name__}: {e}"))
    return results, ok
