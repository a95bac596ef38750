"""Exact counting and census aggregation over model words.

Two independent routes to the same numbers live here.  The closed forms
(Netto partial sums, the model-count formula, the per-index vertical
counts as three Netto residue-class products) evaluate in pure integer
arithmetic with O(1) big-integer operations per index; run_census
enumerates every model word, aggregates the per-word diagram counts, and
checks that the closed forms reproduce the enumerated totals before
reporting anything, raising InvariantError (also under python -O) when
they do not.  Averages are exact fractions; nothing in this
module (or the package) touches floating point, including the decimal
renderings, which are computed by integer division.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import diagram, rational
from .words import InvariantError, enumeration_tasks, expand_task

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
    knot_classes: tuple
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


def _census_task(args):
    c, d, first, per_word = args
    count = vertical = viable = sequential = genus_total = 0
    per_index = [0] * max(c - 2, 0)
    rows = []
    analyses = []
    for r in expand_task(c, d, first):
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
    return count, vertical, viable, sequential, genus_total, per_index, rows, analyses


# below this many model words, spawning processes costs more than the census
_POOL_MIN_WORDS = 1 << 14


def _resolve_threads(c, n_tasks):
    """Worker processes for a census: one below _POOL_MIN_WORDS model
    words, else one per usable CPU (so taskset and cpusets limit it),
    never more than tasks.  Any count gives the same report."""
    if model_count(c) < _POOL_MIN_WORDS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_tasks)


def run_census(c, per_word=False):
    """Enumerate, analyze and aggregate all model words of crossing number
    c, checking every closed form against the enumerated totals along the
    way.
    """
    if c < 3:
        raise ValueError(f"need c >= 3, got {c}")
    tasks = [(c, d, first, per_word) for d, first in enumeration_tasks(c)]
    workers = _resolve_threads(c, len(tasks))
    if workers == 1:
        results = map(_census_task, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_census_task, tasks,
                                    chunksize=max(1, len(tasks) // (4 * workers))))
        finally:
            pool.shutdown()

    count = vertical = viable = sequential = genus_total = 0
    per_index = [0] * max(c - 2, 0)
    rows = []
    analyses = []
    for t_count, t_vert, t_viab, t_seq, t_gen, t_idx, t_rows, t_analyses in results:
        count += t_count
        vertical += t_vert
        viable += t_viab
        sequential += t_seq
        genus_total += t_gen
        per_index = [a + b for a, b in zip(per_index, t_idx)]
        rows.extend(t_rows)
        analyses.extend(t_analyses)

    where = f"c={c}"
    if count != model_count(c):
        raise InvariantError("model word count", where, model_count(c), count)
    contributions = tuple(index_contribution(c, i) for i in range(2, c))
    closed_vertical = sum(contributions)
    if vertical != closed_vertical:
        raise InvariantError("vertical total", where, closed_vertical, vertical)
    if tuple(per_index) != contributions:
        raise InvariantError("per-index vertical counts", where, contributions,
                             tuple(per_index))
    if contributions != contributions[::-1]:
        raise InvariantError("index symmetry", where, contributions[::-1], contributions)

    avg_s = 2 + Fraction(viable, count)
    avg_s_upper = 2 + Fraction(vertical, count)
    avg_genus = Fraction(1 + c, 2) - avg_s / 2
    bound = _bound_from_vertical_total(c, closed_vertical)
    # the averaged genus formula must agree with summing per-word genus
    if avg_genus != Fraction(genus_total, count):
        raise InvariantError("average genus", where, Fraction(genus_total, count),
                             avg_genus)
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
        avg_s_upper=avg_s_upper,
        avg_genus=avg_genus,
        avg_genus_lower_closed_form=bound,
        closed_form_vertical_total=closed_vertical,
        per_index_contributions=contributions,
        knot_classes=tuple(rational.group_rows(rows)),
        analyses=tuple(analyses) if per_word else None,
    )
