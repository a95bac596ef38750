"""Exact counting and census aggregation over model words.

Three routes to the same numbers live here.  The closed forms (Netto
partial sums, the model-count formula, the per-index vertical counts as
three Netto residue-class products, the palindromic and knot-class
counts) evaluate in pure integer arithmetic with O(1) big-integer
operations each.  The run scan, scan_totals, gives the census totals
(word count and vertical, viable and sequential crossings) in O(c)
big-integer steps; scan_census builds the report from it and the closed
forms, with no enumeration, so it serves any c.  run_census enumerates
every model word, aggregates the per-word diagram counts, and checks
the closed forms and the scan against the enumerated values before
reporting anything.  Every check raises InvariantError, also under
python -O.

The scan reads the runs left to right.  Run i (0-based) of a model word
has length e = 1 or 2 (1 for the first and last run) and generator
(i + e) & 1, and it smooths vertically iff its 1-based start position
is not e mod 3 (see diagram).  A vertical crossing is viable when the
next vertical crossing has its generator or there is none, and
sequential when that next one is the crossing right after it.  So all
that the rest of a word needs to know about a prefix is the state

    (start mod 3, generator of the last vertical crossing or None,
     whether that crossing is the previous one)

of which there are at most 3 * 5 = 15 (12 are reachable, at most 7 at
once).  A new vertical crossing settles the pending one (viable if the
generators match, sequential if they also sit side by side) and becomes
pending itself; a horizontal one leaves it pending, no longer adjacent.  A word
is accepted when its letter length is 1 mod 3, that is when the start
after its last run is 2 mod 3, and the crossing still pending there is
viable.  Each word is one path through the states and settles each of
its flags exactly once along it, and every total is a sum of flags, so
carrying (count, vertical, viable, sequential) summed over the prefixes
in each state gives the totals exactly.

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

from dataclasses import dataclass
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
    total = 2 ** k + two_cos_pi_thirds(k - 2 * r)
    if total % 3:
        raise InvariantError("Netto sum divisible by 3", f"k={k}, r={r}", 0, total % 3)
    return total // 3


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
    total = 2 ** (c - 2) + star(c)
    if total % 3:
        raise InvariantError("model count divisible by 3", f"c={c}", 0, total % 3)
    return total // 3


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
    total = model_count(c) + palindromic_count(c)
    if total % 2:
        raise InvariantError("knot class count divisible by 2", f"c={c}", 0, total % 2)
    return total // 2


class CensusTotals(NamedTuple):
    """Sums over all model words of one crossing number."""

    count: int
    vertical: int
    viable: int
    sequential: int


def scan_totals(c):
    """The census totals of crossing number c by the run scan described in
    the module docstring: O(c) big-integer steps over at most 15 states.

    >>> scan_totals(6)
    CensusTotals(count=5, vertical=14, viable=9, sequential=4)
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    # (start mod 3, pending generator or None, pending is the previous
    # crossing) -> (count, vertical, viable, sequential) of its prefixes
    states = {(1, None, False): (1, 0, 0, 0)}
    for i in range(c):
        lengths = (1, 2) if 0 < i < c - 1 else (1,)
        step = {}
        for (start, pending, adjacent), sums in states.items():
            n, vert, viab, seq = sums
            for e in lengths:
                g = (i + e) & 1
                if start == e:  # horizontal: the pending crossing waits
                    key, add = ((start + e) % 3, pending, False), sums
                else:  # vertical: settle the pending crossing, take its place
                    settled = n if pending == g else 0
                    key = ((start + e) % 3, g, True)
                    add = (n, vert + n, viab + settled, seq + (settled if adjacent else 0))
                acc = step.get(key)
                step[key] = add if acc is None else (
                    acc[0] + add[0], acc[1] + add[1], acc[2] + add[2], acc[3] + add[3])
        states = step
    totals = (0, 0, 0, 0)
    for (start, pending, _), (n, vert, viab, seq) in states.items():
        if start == 2:  # letter length 1 mod 3; the last vertical crossing is viable
            last = 0 if pending is None else n
            totals = tuple(map(sum, zip(totals, (n, vert, viab + last, seq))))
    return CensusTotals(*totals)


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

    >>> [index_contribution(7, i) for i in range(2, 7)]
    [5, 8, 6, 8, 5]
    """
    if c < 3 or not 2 <= i <= c - 1:
        raise ValueError(f"need 3 <= c and 2 <= i <= c-1, got c={c}, i={i}")
    total = 0
    left_slots = i - 2
    right_slots = c - i - 1
    for r in (0, 1, 2):
        right = (delta_single(i, r) * netto_partial_sum(right_slots, (1 - c - r) % 3)
                 + delta_double(i, r) * netto_partial_sum(right_slots, (-c - r) % 3))
        total += netto_partial_sum(left_slots, r) * right
    return total


def closed_form_vertical_total(c):
    """Total vertical crossings over all model words of crossing number c,
    with no enumeration: the sum of index_contribution over 2 <= i <= c-1.

    >>> closed_form_vertical_total(6), closed_form_vertical_total(7)
    (14, 32)
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    return sum(index_contribution(c, i) for i in range(2, c))


def lower_bound_avg_genus(c):
    """Exact lower bound on the average genus over the c census.

    >>> lower_bound_avg_genus(6)
    Fraction(11, 10)
    >>> lower_bound_avg_genus(7)
    Fraction(17, 11)
    """
    return _bound_from_vertical_total(c, closed_form_vertical_total(c))


def _bound_from_vertical_total(c, vertical_total):
    """The bound (c-1)/2 - 3V / (2(2^(c-2) + star(c))) for vertical total V."""
    denominator = 2 * (2 ** (c - 2) + star(c))
    return Fraction(c - 1, 2) - Fraction(3, denominator) * vertical_total


@dataclass(frozen=True)
class CensusReport(rational.Record):
    c: int
    star: int
    word_count: int
    vertical_total: int
    viable_total: int
    sequential_total: int
    avg_s: Fraction
    avg_s_upper: Fraction
    avg_genus: Fraction
    avg_genus_lower_closed_form: Fraction
    closed_form_vertical_total: int
    per_index_contributions: tuple
    knot_classes: tuple = None
    analyses: tuple = None

    CSV_COLUMNS = (
        "c", "star", "word_count", "vertical_total", "viable_total",
        "sequential_total", "avg_s", "avg_s_upper", "avg_genus",
        "avg_genus_lower",
    )

    @property
    def avg_genus_lower(self):
        """The output name of avg_genus_lower_closed_form."""
        return self.avg_genus_lower_closed_form

    def to_json(self):
        """JSON object with the three totals nested under "totals"."""
        out = {
            "c": self.c,
            "star": self.star,
            "word_count": self.word_count,
            "totals": {
                "vertical": self.vertical_total,
                "viable": self.viable_total,
                "sequential": self.sequential_total,
            },
        }
        for name in ("avg_s", "avg_s_upper", "avg_genus", "avg_genus_lower",
                     "closed_form_vertical_total", "per_index_contributions",
                     "knot_classes"):
            out[name] = rational.json_value(getattr(self, name))
        if self.analyses is not None:
            out["words"] = rational.json_value(self.analyses)
        return out


def _report(c, totals, knot_classes=None, analyses=None):
    """The CensusReport of crossing number c with the given totals: checks
    the count and vertical total against their closed forms, derives the
    averages and the bound, and checks that the average genus lies
    between the bound and (c - 1)/2."""
    where = f"c={c}"
    count, vertical, viable, sequential = totals
    if count != model_count(c):
        raise InvariantError("model word count", where, model_count(c), count)
    contributions = tuple(index_contribution(c, i) for i in range(2, c))
    closed_vertical = sum(contributions)
    if vertical != closed_vertical:
        raise InvariantError("vertical total", where, closed_vertical, vertical)
    avg_s = 2 + Fraction(viable, count)
    avg_genus = Fraction(1 + c, 2) - avg_s / 2
    bound = _bound_from_vertical_total(c, closed_vertical)
    if not bound <= avg_genus <= Fraction(c - 1, 2):
        raise InvariantError("genus bounds", where, f"{bound}..{Fraction(c - 1, 2)}",
                             avg_genus)
    return CensusReport(
        c=c,
        star=star(c),
        word_count=count,
        vertical_total=vertical,
        viable_total=viable,
        sequential_total=sequential,
        avg_s=avg_s,
        avg_s_upper=2 + Fraction(vertical, count),
        avg_genus=avg_genus,
        avg_genus_lower_closed_form=bound,
        closed_form_vertical_total=closed_vertical,
        per_index_contributions=contributions,
        knot_classes=knot_classes,
        analyses=analyses,
    )


def scan_census(c):
    """The census report of crossing number c from scan_totals and the
    closed forms, with no enumeration, for any c >= 3.  It holds no word
    lists: knot_classes and analyses are None, and knot_class_count(c)
    counts the classes.

    >>> scan_census(7).avg_genus
    Fraction(20, 11)
    """
    rep = _report(c, scan_totals(c))
    # each word's genus (c - 1 - viable) / 2 is whole, so their sum is too
    genus_total = rep.avg_genus * rep.word_count
    if genus_total.denominator != 1:
        raise InvariantError("genus parity", f"c={c}", "a whole genus total", genus_total)
    return rep


def run_census(c, per_word=False):
    """Enumerate, analyze and aggregate all model words of crossing number
    c, checking the closed forms, the scan and the knot class count
    against the enumerated values along the way.
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    count = vertical = viable = sequential = genus_total = 0
    per_index = [0] * (c - 2)
    rows = []
    analyses = []
    for r in enumerate_model_words(c):
        a = diagram.analyze(r)
        count += 1
        vertical += a.vertical
        viable += a.viable
        sequential += a.sequential
        genus_total += a.genus
        for pos, sm in enumerate(a.smoothings):
            if sm == diagram.V:
                per_index[pos - 1] += 1  # V never occurs at crossing 1 or c
        rows.append(a.knot_row)
        if per_word:
            analyses.append(a)

    where = f"c={c}"
    totals = CensusTotals(count, vertical, viable, sequential)
    rep = _report(c, totals, tuple(rational.group_rows(rows)),
                  tuple(analyses) if per_word else None)
    contributions = rep.per_index_contributions
    if tuple(per_index) != contributions:
        raise InvariantError("per-index vertical counts", where, contributions,
                             tuple(per_index))
    if contributions != contributions[::-1]:
        raise InvariantError("index symmetry", where, contributions[::-1], contributions)
    # the averaged genus formula must agree with summing per-word genus
    if rep.avg_genus != Fraction(genus_total, count):
        raise InvariantError("average genus", where, Fraction(genus_total, count),
                             rep.avg_genus)
    scanned = scan_totals(c)
    if scanned != totals:
        raise InvariantError("scan totals", where, totals, scanned)
    if len(rep.knot_classes) != knot_class_count(c):
        raise InvariantError("knot class count", where, len(rep.knot_classes),
                             knot_class_count(c))
    return rep
