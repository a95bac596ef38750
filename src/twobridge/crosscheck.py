"""The full two-route validation battery behind the check command.

Every fact the fast modules compute combinatorially is recomputed here
through an independent route and compared: closed forms against
enumeration (inside run_census), circle counts and orientations against
honest diagram traversal, determinants against the continued-fraction p,
multiplicity structure against the classification.  The oracle checks
compare against analyze itself, the record the CLI prints.  A clean run
is real evidence; any mismatch raises InvariantError, under python -O
too, and is reported as a failure, never patched over.
"""

import functools
import random
from math import comb

from . import census, diagram, planar
from .words import ENUMERATION_CEILING, InvariantError, draw_letters, enumerate_model_words


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
            closed = census.netto_partial_sum(k, r)
            if closed != direct:
                raise InvariantError("Netto closed form", f"k={k}, r={r}", direct, closed)
            count += 1
    return count


def check_census_closed_forms(c_max, class_count):
    # class_count(c) runs run_census(c), which checks, in order: genus identity,
    # enumerated totals = scan_totals (diagram.STEP walked per word against its
    # sum over states: the aggregation, not the rule), = closed_form_totals and
    # bound ordering, per-index counts = index_contribution, index symmetry, and
    # class count = knot_class_count.  The rule's independent routes are the
    # closed forms, the planar oracle and full_diagram.
    count = 0
    for c in range(3, c_max + 1):
        class_count(c)
        count += 5 + (c - 2)
    return count


def check_oracle_agreement(a, pd):
    """One model word: the planar oracle on its alternating diagram pd
    gives the smoothings and Seifert circle count analyze reports, within
    analyze's bounds."""
    where = f"word {a.word}"
    od = planar.orient(pd)
    traced = "".join(planar.classify_orientations(od))
    if traced != a.smoothings:
        raise InvariantError("oracle smoothings", where, traced, a.smoothings)
    s = planar.trace_seifert_circles(od)
    if s != a.s:
        raise InvariantError("oracle Seifert circle count", where, s, a.s)
    if not a.s_lower <= a.s <= a.s_upper:
        raise InvariantError("Seifert circle bounds", where,
                             f"{a.s_lower}..{a.s_upper}", a.s)
    return 3


def check_determinants(a, pd):
    """One model word: the Goeritz determinants of its alternating diagram
    pd and of its billiard diagram both equal the continued-fraction p."""
    alt = planar.goeritz_determinant(pd)
    bil = planar.billiard_determinant(a.word)
    if not alt == bil == a.p:
        raise InvariantError("Goeritz determinants (alternating, billiard)",
                             f"word {a.word}", (a.p, a.p), (alt, bil))
    return 1


def _diagram_checks(c_max):
    """check_oracle_agreement on every model word with c <= c_max and
    check_determinants on those with c <= 12, in one pass: each word's
    analysis and planar diagram, drawn from its generator list alone, are
    built once and read by both checks.  A build that raises fails every
    live check; a check stops at its first failure and the other goes
    on.  Returns [assertion count, exception or None] per check."""
    checks = ((check_oracle_agreement, c_max), (check_determinants, 12))
    out = [[0, None] for _ in checks]
    for c in range(3, c_max + 1):
        for r in enumerate_model_words(c):
            live = [(check, o) for (check, top), o in zip(checks, out)
                    if c <= top and o[1] is None]
            if not live:
                break
            try:
                built = diagram.analyze(r), planar.alternating_pd(diagram.generators(r))
            except Exception as e:
                for _, o in live:
                    o[1] = e
                continue
            for check, o in live:
                try:
                    o[0] += check(*built)
                except Exception as e:
                    o[1] = e
    return out


def _result(count, error):
    if error is not None:
        raise error
    return count


def check_orientation_patterns(max_len=40, per_length=50, seed=2026):
    rng = random.Random(seed)
    count = 0
    for n in range(1, max_len + 1):
        if n % 3 == 2:
            continue
        expected = expected_pattern(n)
        letters = draw_letters(rng, n * per_length)  # as per_length draws of n
        for i in range(0, n * per_length, n):
            w = letters[i:i + n]
            od = planar.orient(planar.billiard_pd(w))
            got = planar.classify_orientations(od)
            if got != expected:
                raise InvariantError("billiard orientation pattern", f"word {w}",
                                     "".join(expected), "".join(got))
            count += 1
    return count


def check_multiplicities(c_max, class_count):
    # group_rows, inside run_census(c) behind class_count(c), checks
    # multiplicity in {1,2}, palindromic singles and genus agreement
    count = 0
    for c in range(3, c_max + 1):
        count += class_count(c)
    return count


def check_link_detection():
    try:
        planar.orient(planar.billiard_pd("+-", allow_link=True))
    except planar.MultiComponent as e:
        if e.actual != 2:
            raise InvariantError("link components", "word +-", 2, e.actual) from e
        return 1
    raise InvariantError("link components", "word +-", 2, 1)


def run_all(c_max):
    """Run every check; returns (results, ok) where results is a list of
    (name, assertion count or None, error text or None)."""
    if c_max < 3:
        raise ValueError(f"need c_max >= 3, got {c_max}")
    if c_max > ENUMERATION_CEILING:
        raise ValueError(f"c_max={c_max} is above the enumeration ceiling "
                         f"{ENUMERATION_CEILING}")
    # each census runs once and both census checks read its class count, not
    # its report; a census that raises is not kept, so it raises again in the
    # second check as well
    class_count = functools.cache(lambda c: len(census.run_census(c).knot_classes))
    diagram_checks = functools.cache(lambda: _diagram_checks(c_max))
    checks = [
        ("netto identities", lambda: check_netto()),
        ("census closed forms", lambda: check_census_closed_forms(c_max, class_count)),
        ("oracle circle counts and orientations", lambda: _result(*diagram_checks()[0])),
        ("determinant equality", lambda: _result(*diagram_checks()[1])),
        ("billiard orientation patterns", lambda: check_orientation_patterns()),
        ("knot class multiplicities", lambda: check_multiplicities(c_max, class_count)),
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
