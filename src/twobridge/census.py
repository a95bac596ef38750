"""Exact counting and census aggregation over model words.

Three routes to the same numbers live here.  The closed forms (Netto
partial sums, the model-count formula, the census totals of
closed_form_totals, the palindromic and knot-class counts) evaluate in
pure integer arithmetic with O(1) big-integer operations each.  The
per-index vertical counts, three Netto residue-class products each, sum
to the vertical total in O(c) steps and are its check route.  The run
scan, scan_totals, gives the census totals (word count and vertical,
viable and sequential crossings) in O(c) big-integer steps: it sums
diagram.STEP over its states, each carrying (count, vertical, viable,
sequential) summed over the prefixes that end there.  Run i (0-based)
has length 1 or 2, 1 for the first and last run.  A word is accepted
when its letter length is 1 mod 3, that is when the start after its
last run is 2 mod 3, and diagram.ENDS_VIABLE then counts the crossing
still pending.  Each word is one path through the states that settles
each flag once, so the sums give the totals exactly.

A CensusReport stores the totals and derives the averages and the bound
from them.  scan_census builds it from the scan, with no enumeration,
so it serves any c; run_census builds it from every model word and also
checks the scan and the per-index counts against what it enumerates.
Both check the totals against the closed forms before returning, and
every check raises InvariantError, also under python -O.

The totals in closed form, for every c >= 3, with s = (-1)^c:

    count      = (2^(c-2) - s) / 3                (model_count; star(c) = -s)
    vertical   = ((3c - 7) 2^c + (12c - 20) s) / 54
    viable     = ((3c - 7) 2^c + (88 - 24c) s) / 72
    sequential = ((3c - 10) 2^c + (64 - 24c) s) / 108

They were fitted to the scan; a transfer-matrix dimension bound (Stanley,
Enumerative Combinatorics Vol. 1, 4.7) proves them.  A scan step is
linear in the sums carried per state, one of the len(diagram.STATES) =
18 tuples, so the carried vector has at most 72 entries.  An interior
step depends on i only through its parity.  So for c = 2k + p with p
fixed, the scan is a fixed first step, k - 1 applications of one
two-step matrix A of size at most 72 x 72, at most one more interior
step, the last run and the acceptance sum: each total is u A^(k-1) w for
fixed u and w, and by Cayley-Hamilton it satisfies a linear recurrence
in k of order at most 72.  Each closed form is (a k + b) 4^k + (d k + e)
for fixed p, which satisfies the recurrence of (x - 4)^2 (x - 1)^2.  The
difference of the two satisfies the product recurrence, of order at
most 76, so it is zero for every k once it is zero on 76 consecutive
values of k.  tests/test_census.py compares them on c = 3..300, 149
values of each parity, which proves the closed forms for every c.

A knot class holds two model words, or one whose run vector is its own
reversal (words.is_palindromic_type), so there are (model_count +
palindromic_count) / 2 classes.  A palindromic run vector is fixed by
its half: single end runs, h = (c - 2) // 2 interior pairs, and a free
middle run when c is odd.  With d doubled pairs and x = 0 or 1 for the
middle, its length c + 2d + x must be 1 mod 3, which fixes d mod 3, so
each choice of x contributes one Netto sum N(h, r).

Averages are exact fractions; nothing in this module (or the package)
touches floating point, including the decimal renderings, which are
computed by integer division.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple

from . import diagram, rational
from .words import InvariantError, enumerate_model_words

# 2cos(m*pi/3) is periodic with period 6 and always a whole number
_TWO_COS = (2, 1, -1, -2, -1, 1)


def two_cos_pi_thirds(m):
    return _TWO_COS[m % 6]


def netto_partial_sum(k, r):
    """Sum of C(k, j) over j = r (mod 3), by the exact closed form
    (2^k + 2cos((k - 2r)pi/3)) / 3.

    >>> netto_partial_sum(4, 0)
    5
    >>> netto_partial_sum(6, 1)
    21
    """
    if k < 0 or r not in (0, 1, 2):
        raise ValueError(f"need k >= 0 and r in 0..2, got k={k}, r={r}")
    return _exact_quotient(2 ** k + two_cos_pi_thirds(k - 2 * r), 3, "Netto sum",
                           f"k={k}, r={r}")


def _exact_quotient(total, divisor, name, where):
    """total // divisor, checking that the division is exact."""
    if total % divisor:
        raise InvariantError(f"{name} divisible by {divisor}", where, 0, total % divisor)
    return total // divisor


def star(c):
    """The correction term in the model-count formula.

    >>> star(6), star(7)
    (-1, 1)
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    m = {1: c - 2, 0: c - 4, 2: c - 6}[c % 3]
    return two_cos_pi_thirds(m)


def model_count(c):
    """Number of model words with c runs: (2^(c-2) + star(c)) / 3.

    >>> [model_count(c) for c in range(3, 8)]
    [1, 1, 3, 5, 11]
    """
    return _exact_quotient(2 ** (c - 2) + star(c), 3, "model count", f"c={c}")


def palindromic_count(c):
    """Number of model words with c runs whose run vector is its own
    reversal: the sum of N(h, r) over the middle choices x, where h =
    (c - 2) // 2 and c + 2r + x = 1 (mod 3).

    >>> [palindromic_count(c) for c in range(3, 11)]
    [1, 1, 1, 1, 3, 3, 5, 5]
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    h = (c - 2) // 2
    # 2 is its own inverse mod 3, so c + 2r + x = 1 gives r = 2(1 - c - x)
    return sum(netto_partial_sum(h, 2 * (1 - c - x) % 3)
               for x in ((0, 1) if c % 2 else (0,)))


def knot_class_count(c):
    """Number of 2-bridge knot classes with crossing number c, a knot and
    its mirror image counted once: (model_count + palindromic_count) / 2.

    >>> [knot_class_count(c) for c in range(3, 11)]
    [1, 1, 2, 3, 7, 12, 24, 45]
    """
    return _exact_quotient(model_count(c) + palindromic_count(c), 2, "knot class count",
                           f"c={c}")


class CensusTotals(NamedTuple):
    """Sums over all model words of one crossing number."""

    count: int
    vertical: int
    viable: int
    sequential: int


def scan_totals(c):
    """The census totals of crossing number c: diagram.STEP summed over at
    most 7 live states, in O(c) big-integer steps.

    >>> scan_totals(6)
    CensusTotals(count=5, vertical=14, viable=9, sequential=4)
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    # state index -> (count, vertical, viable, sequential) of its prefixes
    states = {diagram.START: (1, 0, 0, 0)}
    for i in range(c):
        generator = diagram.GENERATOR[i & 1]  # run i of length e has generator[e]
        inputs = [(e, generator[e]) for e in ((1, 2) if 0 < i < c - 1 else (1,))]
        after = {}
        for state, (n, vert, viab, seq) in states.items():
            for e, g in inputs:
                key, smoothing, viable, sequential = diagram.STEP[state][e][g]
                n0, vert0, viab0, seq0 = after.get(key, (0, 0, 0, 0))
                after[key] = (n0 + n, vert0 + vert + n * (smoothing == diagram.V),
                              viab0 + viab + n * viable, seq0 + seq + n * sequential)
        states = after
    accepted = [(n, vert, viab + n * diagram.ENDS_VIABLE[state], seq)
                for state, (n, vert, viab, seq) in states.items()
                if diagram.STATES[state][0] == 2]  # letter length 1 mod 3
    return CensusTotals(*map(sum, zip(*accepted)))


def closed_form_totals(c):
    """The census totals of crossing number c by the closed forms proved in
    the module docstring: O(1) big-integer operations.

    >>> closed_form_totals(6)
    CensusTotals(count=5, vertical=14, viable=9, sequential=4)
    """
    where = f"c={c}"
    count = model_count(c)  # raises ValueError below c = 3
    power, sign = 2 ** c, (-1) ** c
    return CensusTotals(
        count,
        _exact_quotient((3 * c - 7) * power + (12 * c - 20) * sign, 54, "vertical total", where),
        _exact_quotient((3 * c - 7) * power + (88 - 24 * c) * sign, 72, "viable total", where),
        _exact_quotient((3 * c - 10) * power + (64 - 24 * c) * sign, 108,
                        "sequential total", where),
    )


def delta_single(i, d1):
    """1 when a single run at crossing i, with d1 doubles before it,
    starts at a letter position that is not 1 mod 3 (so smooths V)."""
    return 1 if (i + d1) % 3 != 1 else 0


def delta_double(i, d1):
    """Same for a double run at crossing i: V unless the start is 2 mod 3."""
    return 1 if (i + d1) % 3 != 2 else 0


def index_contribution(c, i):
    """Number of model words of crossing number c whose crossing i smooths
    vertically.

    Run i is single or double, with d1 doubles among the i - 2 runs to its
    left and d2 among the c - i - 1 runs to its right.  Run i starts at
    letter position i + d1 and the H/V rule reads only that start mod 3,
    so its smoothing depends on d1 only through (i + d1) mod 3.  The total
    length c + d1 + d2 (+ 1 if run i is double) must be 1 mod 3, which
    fixes d2 mod 3 once d1 mod 3 is known.  Grouping d1 by its residue r
    turns the placements into Netto sums N(k, r) = netto_partial_sum(k, r):

        sum over r = 0..2 of N(i-2, r) * (delta_single(i, r) * N(c-i-1, (1-c-r) mod 3)
                                        + delta_double(i, r) * N(c-i-1, (-c-r) mod 3))

    With N(k, r) = (2^k + t) / 3, t = two_cos_pi_thirds(k - 2r), each
    product N(a, r) N(b, r') is (2^(a+b) + t' 2^a + t 2^b + t t') / 9.  So
    nine times the sum is four small coefficients times 2^(a+b), 2^a, 2^b
    and 1: three shifts, no big multiplication.

    >>> [index_contribution(7, i) for i in range(2, 7)]
    [5, 8, 6, 8, 5]
    """
    if c < 3 or not 2 <= i <= c - 1:
        raise ValueError(f"need 3 <= c and 2 <= i <= c-1, got c={c}, i={i}")
    left, right = i - 2, c - i - 1
    both = by_left = by_right = const = 0  # coefficients of 2^(left+right), 2^left, 2^right, 1
    for r in (0, 1, 2):
        t = two_cos_pi_thirds(left - 2 * r)
        for vertical, r2 in ((delta_single(i, r), (1 - c - r) % 3),
                             (delta_double(i, r), (-c - r) % 3)):
            if vertical:
                u = two_cos_pi_thirds(right - 2 * r2)
                both += 1
                by_left += u
                by_right += t
                const += t * u
    return _exact_quotient((both << (left + right)) + (by_left << left) + (by_right << right)
                           + const, 9, "index contribution", f"c={c}, i={i}")


def closed_form_vertical_total(c):
    """Total vertical crossings over all model words of crossing number c,
    in closed form; index_contribution summed over 2 <= i <= c-1 is its
    O(c) check route.

    >>> closed_form_vertical_total(6), closed_form_vertical_total(7)
    (14, 32)
    """
    return closed_form_totals(c).vertical


def lower_bound_avg_genus(c):
    """Exact lower bound on the average genus over the c census, the paper's
    (c-1)/2 - 3V / (2(2^(c-2) + star(c))) for the vertical total V: since
    2^(c-2) + star(c) = 3 model_count(c), it is (c-1)/2 - V / (2 model_count(c)).

    >>> lower_bound_avg_genus(6)
    Fraction(11, 10)
    >>> lower_bound_avg_genus(7)
    Fraction(17, 11)
    """
    closed = closed_form_totals(c)
    return Fraction(c - 1, 2) - Fraction(closed.vertical, 2 * closed.count)


class CensusReport(namedtuple("CensusReport", "c word_count vertical_total viable_total "
                              "sequential_total knot_classes analyses", defaults=(None, None))):
    """The census totals of crossing number c (and the knot classes and word
    analyses of an enumerated census); every other value derives from them."""

    __slots__ = ()

    CSV_COLUMNS = (
        "c", "star", "word_count", "vertical_total", "viable_total",
        "sequential_total", "avg_s", "avg_s_upper", "avg_genus",
        "avg_genus_lower",
    )
    csv_row = rational.csv_row

    @property
    def star(self):
        return star(self.c)

    @property
    def avg_s(self):
        return 2 + Fraction(self.viable_total, self.word_count)

    @property
    def avg_s_upper(self):
        return 2 + Fraction(self.vertical_total, self.word_count)

    @property
    def avg_genus(self):
        return Fraction(1 + self.c, 2) - self.avg_s / 2

    @property
    def avg_genus_lower(self):
        """lower_bound_avg_genus(c) once the totals equal their closed forms."""
        return Fraction(1 + self.c, 2) - self.avg_s_upper / 2

    @property
    def closed_form_vertical_total(self):
        """The vertical total, which _check compares with its closed form."""
        return self.vertical_total

    @property
    def per_index_contributions(self):
        """index_contribution(c, i) for 2 <= i <= c-1, checked to sum to the
        vertical total's closed form: O(c) big-integer steps on each read."""
        c = self.c
        contributions = tuple(index_contribution(c, i) for i in range(2, c))
        closed = closed_form_vertical_total(c)
        if sum(contributions) != closed:
            raise InvariantError("vertical total by index", f"c={c}", closed,
                                 sum(contributions))
        return contributions

    def to_json(self):
        """JSON object with the three totals nested under "totals"."""
        out = {
            "c": self.c,
            "star": self.star,
            "word_count": self.word_count,
            "totals": {"vertical": self.vertical_total, "viable": self.viable_total,
                       "sequential": self.sequential_total},
        }
        for name in ("avg_s", "avg_s_upper", "avg_genus", "avg_genus_lower",
                     "closed_form_vertical_total", "per_index_contributions",
                     "knot_classes"):
            out[name] = rational.json_value(getattr(self, name))
        if self.analyses is not None:
            out["words"] = rational.json_value(self.analyses)
        return out


def _check(rep):
    """Compare the totals with closed_form_totals, then check the genus bounds."""
    where = f"c={rep.c}"
    totals = CensusTotals(rep.word_count, rep.vertical_total, rep.viable_total,
                          rep.sequential_total)
    closed = closed_form_totals(rep.c)
    if totals != closed:
        raise InvariantError("closed-form totals", where, closed, totals)
    if not rep.avg_genus_lower <= rep.avg_genus <= Fraction(rep.c - 1, 2):
        raise InvariantError("genus bounds", where,
                             f"{rep.avg_genus_lower}..{Fraction(rep.c - 1, 2)}", rep.avg_genus)


def scan_census(c):
    """The census report of crossing number c from scan_totals, checked
    against the closed forms, with no enumeration, for any c >= 3.  It
    holds no word lists: knot_classes and analyses are None, and
    knot_class_count(c) counts the classes.

    >>> scan_census(7).avg_genus
    Fraction(20, 11)
    """
    rep = CensusReport(c, *scan_totals(c))
    # each word's genus (c - 1 - viable) / 2 is whole, so their sum is too
    genus_total = rep.avg_genus * rep.word_count
    if genus_total.denominator != 1:
        raise InvariantError("genus parity", f"c={c}", "a whole genus total", genus_total)
    _check(rep)
    return rep


def run_census(c, per_word=False):
    """Enumerate, analyze and aggregate all model words of crossing number
    c, checking the scan, the closed forms, the per-index counts and the
    knot class count against the enumerated values along the way.
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    count = vertical = viable = sequential = genus_total = 0
    smoothing_counts = Counter()  # few distinct strings: 377 among 2,731 words at c=15
    rows = []
    analyses = []
    for r in enumerate_model_words(c):
        a = diagram.analyze(r)
        count += 1
        vertical += a.vertical
        viable += a.viable
        sequential += a.sequential
        genus_total += a.genus
        smoothing_counts[a.smoothings] += 1
        rows.append(a.knot_row)
        if per_word:
            analyses.append(a)

    per_index = [0] * c
    for smoothings, n in smoothing_counts.items():
        for pos, sm in enumerate(smoothings):
            if sm == diagram.V:
                per_index[pos] += n

    where = f"c={c}"
    totals = CensusTotals(count, vertical, viable, sequential)
    rep = CensusReport(c, *totals, tuple(rational.group_rows(rows)),
                       tuple(analyses) if per_word else None)
    # the averaged genus formula must agree with summing per-word genus
    if rep.avg_genus != Fraction(genus_total, count):
        raise InvariantError("average genus", where, Fraction(genus_total, count),
                             rep.avg_genus)
    scanned = scan_totals(c)
    if scanned != totals:
        raise InvariantError("scan totals", where, totals, scanned)
    _check(rep)
    contributions = rep.per_index_contributions
    if tuple(per_index) != (0, *contributions, 0):  # V never at crossing 1 or c
        raise InvariantError("per-index vertical counts", where, (0, *contributions, 0),
                             tuple(per_index))
    if contributions != contributions[::-1]:
        raise InvariantError("index symmetry", where, contributions[::-1], contributions)
    if len(rep.knot_classes) != knot_class_count(c):
        raise InvariantError("knot class count", where, len(rep.knot_classes),
                             knot_class_count(c))
    return rep
