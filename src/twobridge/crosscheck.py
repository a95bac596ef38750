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

import random
from math import comb

from . import census, diagram, planar
from .diagram import H, V
from .words import InvariantError, UsageError, draw_letters, enumerate_model_words

NETTO_K_MAX = 30  # check_netto compares every k <= NETTO_K_MAX, each residue r
CHECK_CEILING = 20  # run_all's time and memory double per step of c_max (README)


def expected_pattern(n):
    """Billiard V/H sequence for any word of length n: independent of the
    letters, only the length matters."""
    if n % 3 == 1:
        return [H] + [V, V, H] * ((n - 1) // 3)
    if n % 3 == 0:
        return [V, H, V] * (n // 3)
    raise ValueError(f"length {n} closes to a link, no knot pattern")


def check_netto():
    count = 0
    for k in range(NETTO_K_MAX + 1):
        for r in (0, 1, 2):
            direct = sum(comb(k, j) for j in range(r, k + 1, 3))
            closed = census.netto_partial_sum(k, r)
            if closed != direct:
                raise InvariantError("Netto closed form", f"k={k}, r={r}", direct, closed)
            count += 1
    return count


def check_census_closed_forms(c_max, classes):
    # classes[c] records the class count of run_census(c), run once per c on
    # the analyses the oracle pass makes, or its error; run_census checks, in
    # order: genus identity, enumerated totals = scan_totals (diagram.STEP
    # walked per word against its sum over states: the aggregation, not the
    # rule), enumerated totals = closed_form_totals, check_report (genus
    # parity and bound ordering), per-index counts = index_contribution,
    # index symmetry, and class count = knot_class_count.
    # In check the rule's independent routes are the closed forms and the
    # planar oracle; full_diagram is tier-1's route, which check never calls.
    count = 0
    for c in range(3, c_max + 1):
        _result(*classes[c])
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


def _one_pass(c_max):
    """Analyze each model word with c <= c_max once, for the oracle check,
    the determinant check (c <= 12, both on a diagram drawn from the
    generator list alone) and run_census(c).  A check stops at its first
    failure.  Each live diagram check builds the diagram in its own try,
    reusing one an earlier check built, so a build that raises fails that
    check and the next tries the build itself; a failed enumeration or
    analysis fails them and the census.  Returns [count, exception or
    None] per c's class count and per diagram check."""
    checks = ((check_oracle_agreement, c_max), (check_determinants, 12))
    out = [[0, None] for _ in checks]

    def analyses(c):
        mine = [(check, o) for (check, top), o in zip(checks, out) if c <= top]
        try:
            for r in enumerate_model_words(c):
                a = diagram.analyze(r)
                pd = None
                for check, o in mine:
                    if o[1] is None:
                        try:
                            pd = pd or planar.alternating_pd(diagram.generators(r))
                            o[0] += check(a, pd)
                        except Exception as e:
                            o[1] = e
                yield a
        except Exception as e:
            for _, o in mine:
                if o[1] is None:
                    o[1] = e
            raise

    classes = {}
    for c in range(3, c_max + 1):
        stream = analyses(c)
        try:
            try:  # keep the class count, not the report
                classes[c] = [len(census.run_census(c, False, stream).knot_classes), None]
            finally:
                for _ in stream:  # the words a failed census left unread
                    pass
        except Exception as e:  # a failed stream fails the census too
            classes[c] = [None, e]
    return classes, out


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
        od = None
        for i in range(0, n * per_length, n):
            w = letters[i:i + n]
            pd = planar.billiard_pd(w)
            # a length's words share billiard_pd's wiring; orient reads no over
            # flag, and the classification reads od alone
            if od is None or pd.other is not od.pd.other:
                od = planar.orient(pd)
                got = planar.classify_orientations(od)
            if got != expected:
                raise InvariantError("billiard orientation pattern", f"word {w}",
                                     "".join(expected), "".join(got))
            count += 1
    return count


def check_multiplicities(c_max, classes):
    # group_rows, inside run_census(c) behind classes[c], checks
    # multiplicity in {1,2}, palindromic singles and genus agreement
    count = 0
    for c in range(3, c_max + 1):
        count += _result(*classes[c])
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
        raise UsageError(f"need c_max >= 3, got {c_max}")
    if c_max > CHECK_CEILING:
        raise UsageError(f"c_max={c_max} is above the check ceiling {CHECK_CEILING}")
    # one pass records each census's class count and each diagram check's
    # count, or their exceptions, and raises none; the checks read the records
    classes, (oracle, determinants) = _one_pass(c_max)
    checks = [
        ("netto identities", check_netto),
        ("census closed forms", lambda: check_census_closed_forms(c_max, classes)),
        ("oracle circle counts and orientations", lambda: _result(*oracle)),
        ("determinant equality", lambda: _result(*determinants)),
        ("billiard orientation patterns", check_orientation_patterns),
        ("knot class multiplicities", lambda: check_multiplicities(c_max, classes)),
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
