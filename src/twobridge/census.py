"""Exact counting and census aggregation over model words.

Three routes to the same numbers live here.  The closed forms (the
model-count formula, the census totals of closed_form_totals, the
palindromic and knot-class counts) evaluate in pure integer arithmetic
with O(1) big-integer operations each.  The per-index vertical counts
sum to the vertical total in O(c) steps and are its check route.  Each
is three products of Netto sums N(k, r), the sum of C(k, j) over j = r
(mod 3), which equals (2^k + two_cos_pi_thirds(k - 2r)) / 3.  The run
scan, scan_totals, gives the census totals (word count and vertical,
viable and sequential crossings) in O(c) big-integer steps: it sums
diagram.STEP over its states, each carrying (count, vertical, viable,
sequential) summed over the prefixes that end there.  Run i (0-based)
has length 1 or 2, 1 for the first and last run.  A word is accepted
when its letter length is 1 mod 3, that is when the start after its
last run is 2 mod 3, and diagram.ENDS_VIABLE then counts the crossing
still pending.  Each word is one path through the states that settles
each flag once, so the sums give the totals exactly.

A CensusReport, the one census record, stores the totals and derives
the averages and the bound from them; scan_totals and closed_form_totals
return one with knot_classes and analyses None.  closed_form_totals
serves any c with no enumeration; run_census builds a report from every
model word and checks the scan, the closed forms and the per-index
counts against what it enumerates.  check_report holds the checks any
report passes on its own integers: a whole genus total and the genus
bounds.  Every check raises InvariantError, also under python -O.

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
palindromic_count) / 2 classes.  A palindromic vector is fixed by its
h = (c - 2) // 2 first interior runs, of sum S, and its middle run m
when c is odd, and has letter length 2 + 2S (+ m).  Toggling those h
runs (e -> 3 - e) makes their sum 3h - S = 2S (mod 3), so (1, toggled
half, [m], 1) has the same length mod 3: it is a model word of
(c + 1) // 2 + 1 runs, and toggling is its own inverse.  That
model_count is the half-length term of the Ernst-Sumners count.

Averages are exact fractions; nothing in this module (or the package)
touches floating point, including the decimal renderings, which are
computed by integer division.
"""

from collections import Counter, namedtuple
from fractions import Fraction

from . import diagram, rational
from .words import InvariantError, UsageError, enumerate_model_words

# 2cos(m*pi/3) is periodic with period 6 and always a whole number
_TWO_COS = (2, 1, -1, -2, -1, 1)


def two_cos_pi_thirds(m):
    return _TWO_COS[m % 6]


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
        raise UsageError(f"need c >= 3, got {c}")
    return -(-1) ** c


def model_count(c):
    """Number of model words with c runs: (2^(c-2) + star(c)) / 3.

    >>> [model_count(c) for c in range(3, 8)]
    [1, 1, 3, 5, 11]
    """
    return _exact_quotient(2 ** (c - 2) + star(c), 3, "model count", f"c={c}")


def palindromic_count(c):
    """Number of model words with c runs whose run vector is its own
    reversal: model_count((c + 1) // 2 + 1), by the module's toggle bijection.

    >>> [palindromic_count(c) for c in range(3, 11)]
    [1, 1, 1, 1, 3, 3, 5, 5]
    """
    if c < 3:
        raise UsageError(f"need c >= 3, got {c}")
    return model_count((c + 1) // 2 + 1)


def knot_class_count(c):
    """Number of 2-bridge knot classes with crossing number c, a knot and
    its mirror image counted once: (model_count + palindromic_count) / 2.

    >>> [knot_class_count(c) for c in range(3, 11)]
    [1, 1, 2, 3, 7, 12, 24, 45]
    """
    return _exact_quotient(model_count(c) + palindromic_count(c), 2, "knot class count",
                           f"c={c}")


def scan_totals(c):
    """The census totals of crossing number c: diagram.STEP summed over at
    most 7 live states, in O(c) big-integer steps.

    >>> scan_totals(6)  # doctest: +NORMALIZE_WHITESPACE
    CensusReport(c=6, word_count=5, vertical_total=14, viable_total=9,
                 sequential_total=4, knot_classes=None, analyses=None)
    """
    if c < 3:
        raise UsageError(f"need c >= 3, got {c}")
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
    return CensusReport(c, *map(sum, zip(*accepted)))


def closed_form_totals(c):
    """The census totals of crossing number c by the closed forms proved in
    the module docstring: O(1) big-integer operations.

    >>> closed_form_totals(6) == scan_totals(6)
    True
    """
    where = f"c={c}"
    count = model_count(c)  # raises UsageError below c = 3
    power, sign = 2 ** c, (-1) ** c
    return CensusReport(
        c,
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
    turns the placements into Netto sums N(k, r), the sum of C(k, j) over
    j = r (mod 3):

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


def lower_bound_avg_genus(c):
    """Exact lower bound on the average genus over the c census: the
    paper's bound, CensusReport.avg_genus_lower, on the closed-form totals.

    >>> lower_bound_avg_genus(6)
    Fraction(11, 10)
    >>> lower_bound_avg_genus(7)
    Fraction(17, 11)
    """
    return closed_form_totals(c).avg_genus_lower


class CensusReport(namedtuple("CensusReport", "c word_count vertical_total viable_total "
                              "sequential_total knot_classes analyses", defaults=(None, None))):
    """The census totals of crossing number c (and the knot classes and word
    analyses of an enumerated census); every other value derives from them,
    each average as one Fraction of two integers, so one gcd reduces it."""

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
        n = self.word_count
        return Fraction(2 * n + self.viable_total, n)

    @property
    def avg_s_upper(self):
        n = self.word_count
        return Fraction(2 * n + self.vertical_total, n)

    @property
    def avg_genus(self):
        """(c + 1)/2 - avg_s/2, as each word's genus is (c - 1 - viable)/2."""
        n = self.word_count
        return Fraction((self.c - 1) * n - self.viable_total, 2 * n)

    @property
    def avg_genus_lower(self):
        """The paper's bound (c-1)/2 - 3V / (2(2^(c-2) + star(c))) for the
        vertical total V: since 2^(c-2) + star(c) = 3 word_count, it is
        (c-1)/2 - V / (2 word_count)."""
        n = self.word_count
        return Fraction((self.c - 1) * n - self.vertical_total, 2 * n)

    @property
    def per_index_contributions(self):
        """index_contribution(c, i) for 2 <= i <= c-1, checked to sum to the
        vertical total: O(c) big-integer steps on each read."""
        c = self.c
        contributions = tuple(index_contribution(c, i) for i in range(2, c))
        if sum(contributions) != self.vertical_total:
            raise InvariantError("vertical total by index", f"c={c}", self.vertical_total,
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
        for name in ("avg_s", "avg_s_upper", "avg_genus", "avg_genus_lower"):
            out[name] = rational.json_value(getattr(self, name))
        out["closed_form_vertical_total"] = self.vertical_total  # only the JSON key has this name
        for name in ("per_index_contributions", "knot_classes"):
            out[name] = rational.json_value(getattr(self, name))
        if self.analyses is not None:
            out["words"] = rational.json_value(self.analyses)
        return out


def check_report(rep):
    """Check that the genus total is whole, then the genus bounds, and
    return rep.  Both checks read the report's integer totals alone; the
    fractions are built only for an error."""
    where = f"c={rep.c}"
    # each word's genus (c - 1 - viable) / 2 is whole, so their sum is too
    twice_genus_total = (rep.c - 1) * rep.word_count - rep.viable_total
    if twice_genus_total & 1:
        raise InvariantError("genus parity", where, "a whole genus total",
                             Fraction(twice_genus_total, 2))
    # the same as avg_genus_lower <= avg_genus <= (c - 1)/2, as word_count > 0
    if not 0 <= rep.viable_total <= rep.vertical_total:
        raise InvariantError("genus bounds", where,
                             f"{rep.avg_genus_lower}..{Fraction(rep.c - 1, 2)}", rep.avg_genus)
    return rep


def run_census(c, per_word=False, analyses=None):
    """Aggregate the analyses of all model words of crossing number c
    (analyze over enumerate_model_words(c) unless given, in that order),
    checking the scan, the closed forms, the per-index counts and the
    knot class count against the aggregated values along the way.
    """
    if c < 3:
        raise UsageError(f"need c >= 3, got {c}")
    count = vertical = viable = sequential = genus_total = 0
    smoothing_counts = Counter()  # few distinct strings: 377 among 2,731 words at c=15
    rows = []
    kept = []
    if analyses is None:
        analyses = map(diagram.analyze, enumerate_model_words(c))
    for a in analyses:
        # one unpacking in WordAnalysis._fields order, which test_records pins
        word, _, _, smoothings, vert, viab, seq, _, _, _, genus, p, q, q_star, _, palindromic = a
        count += 1
        vertical += vert
        viable += viab
        sequential += seq
        genus_total += genus
        smoothing_counts[smoothings] += 1
        rows.append(((p, q_star), word, q, genus, palindromic))  # as group_rows takes it
        if per_word:
            kept.append(a)

    per_index = [0] * c
    for smoothings, n in smoothing_counts.items():
        for pos, sm in enumerate(smoothings):
            if sm == diagram.V:
                per_index[pos] += n

    where = f"c={c}"
    totals = CensusReport(c, count, vertical, viable, sequential)
    rep = totals._replace(knot_classes=tuple(rational.group_rows(rows)),
                          analyses=tuple(kept) if per_word else None)
    # the averaged genus formula must agree with summing per-word genus
    if count and 2 * genus_total != (c - 1) * count - viable:
        raise InvariantError("average genus", where, Fraction(genus_total, count),
                             rep.avg_genus)
    scanned = scan_totals(c)
    if scanned != totals:
        raise InvariantError("scan totals", where, totals, scanned)
    closed = closed_form_totals(c)
    if closed != totals:
        raise InvariantError("closed-form totals", where, closed, totals)
    check_report(rep)
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
