"""Alternating plat diagrams from model words, by the combinatorial shortcut.

Each run of a model word becomes one crossing of an alternating 3-strand
plat diagram: a (sign, run length) pair maps to a braid generator

    (+,1) -> s1    (+,2) -> s2^-1    (-,1) -> s2^-1    (-,2) -> s1

where s1 sits at the lower height (strands 1-2) and s2^-1 at the upper
height (strands 2-3).  Model words start with +, so run i (0-based) of
length e gives s1 exactly when i + e is odd.  Crossing i inherits the
start position of its run inside the letter word, and that position
mod 3 alone decides how the orientation smooths the crossing:

    single run:  horizontal iff start = 1 (mod 3)
    double run:  horizontal iff start = 2 (mod 3)

so a run of length e smooths horizontally iff start = e (mod 3).  One
left-to-right pass over the runs yields every generator and smoothing.
A vertically-smoothed crossing is viable when the next vertical crossing
sits at the same height, or when it is the last vertical crossing; a
right-to-left sweep that carries the nearest vertical crossing to the
right sets the viable and sequential flags.  The Seifert circle count of
the diagram is then exactly 2 + #viable.

analyze folds the pass's plain lists straight into a WordAnalysis;
full_diagram returns them as the per-crossing record, a tuple of one
CrossingInfo per crossing.  All of this is pure run arithmetic; the
planar module draws the diagram from the generator list alone,
re-derives the smoothings and the circle count by traversal, and the
check battery compares those with what analyze reports.
"""

from dataclasses import dataclass
from itertools import accumulate, groupby

from . import rational
from .words import InvariantError, RunWord, from_runs, is_palindromic_type

SIGMA1 = "s1"
SIGMA2_INV = "s2^-1"
V = "V"
H = "H"

# run i (0-based) of length e in a model word: s1 iff i + e is odd
_GENERATOR = (SIGMA2_INV, SIGMA1)


class ParityError(InvariantError):
    """1 - s + c came out odd or negative: no knot diagram has that circle
    count and crossing number, so the code that counted them is wrong."""


@dataclass(frozen=True)
class CrossingInfo:
    index: int          # 1-based, left to right
    generator: str      # SIGMA1 or SIGMA2_INV
    run_sign: str
    run_length: int
    start_position: int  # 1-based position of the run's first letter
    smoothing: str
    viable: bool
    sequential: bool


def _fold(generators):
    return [(g, len(list(run))) for g, run in groupby(generators)]


def _braid_word(folded):
    return " ".join(
        (SIGMA1 if k == 1 else f"s1^{k}") if g == SIGMA1 else f"s2^-{k}"
        for g, k in folded)


def generators(r):
    """The braid generator of each crossing of a model word, left to right."""
    return [_GENERATOR[(i + e) & 1] for i, e in enumerate(r.runs)]


def _crossing_lists(r):
    """The per-word kernel: parallel lists (generators, smoothings,
    viable, sequential) with one entry per crossing.

    Viable: the next vertical crossing (in index order) has the same
    generator, or there is none.  Sequential: the immediately following
    crossing is vertical with the same generator, which forces viability
    of this one but is strictly stronger.
    """
    if not r.is_model:
        raise ValueError(f"not a model word: {r}")
    gens = generators(r)
    smoothings = []
    start = 1
    for e in r.runs:
        smoothings.append(H if start % 3 == e else V)
        start += e
    c = len(gens)
    viable = [False] * c
    sequential = [False] * c
    next_gen, next_i = None, c  # nearest vertical crossing to the right
    for i in range(c - 1, -1, -1):
        if smoothings[i] == V:
            g = gens[i]
            viable[i] = next_gen is None or next_gen == g
            sequential[i] = next_i == i + 1 and next_gen == g
            next_gen, next_i = g, i
    return gens, smoothings, viable, sequential


def genus(s, c):
    """Genus of an alternating knot from circle count and crossing number."""
    n = 1 - s + c
    if n < 0 or n % 2:
        raise ParityError("genus parity", f"s={s}, c={c}",
                          "a nonnegative even 1 - s + c", n)
    return n // 2


def full_diagram(r):
    """The per-crossing record of a model word: one CrossingInfo per run,
    left to right, with its generator, start position, smoothing and
    viability flags.

    >>> [(x.generator, x.smoothing) for x in full_diagram(RunWord("+", (1, 2, 1)))]
    [('s1', 'H'), ('s1', 'H'), ('s1', 'H')]
    """
    gens, smoothings, viable, sequential = _crossing_lists(r)
    starts = accumulate(r.runs, initial=1)
    return tuple(
        CrossingInfo(i + 1, gens[i], r.sign(i), e, start,
                     smoothings[i], viable[i], sequential[i])
        for i, (e, start) in enumerate(zip(r.runs, starts)))


@dataclass(frozen=True)
class WordAnalysis(rational.Record):
    word: str
    runs: RunWord
    alternating: str
    smoothings: str
    vertical: int
    viable: int
    sequential: int
    s: int
    s_lower: int
    s_upper: int
    genus: int
    p: int
    q: int
    q_star: int  # the knot class (p, q_star), left out of the output
    name: str
    palindromic: bool

    CSV_COLUMNS = (
        "word", "runs", "alternating", "smoothings", "vertical", "viable",
        "sequential", "s", "s_lower", "s_upper", "genus", "p", "q", "name",
        "palindromic",
    )

    @property
    def knot_row(self):
        """((p, q_star), word, q, genus, palindromic), the row rational.group_rows takes."""
        return (self.p, self.q_star), self.word, self.q, self.genus, self.palindromic


def analyze(r):
    """Full per-word record: diagram counts, genus, fraction, knot name."""
    gens, smoothings, viable, sequential = _crossing_lists(r)
    vertical = smoothings.count(V)
    n_viable = sum(viable)
    n_sequential = sum(sequential)
    folded = _fold(gens)
    try:
        frac = rational.continued_fraction([k for _, k in folded])
    except ValueError as e:  # every model word has a knot fraction
        raise InvariantError("knot fraction", f"word {from_runs(r)}",
                             "p odd, 0 < q < p, coprime", e) from e
    cc = rational.canonical_class(frac)
    return WordAnalysis(
        word=from_runs(r),
        runs=r,
        alternating=_braid_word(folded),
        smoothings="".join(smoothings),
        vertical=vertical,
        viable=n_viable,
        sequential=n_sequential,
        s=2 + n_viable,
        s_lower=2 + n_sequential,
        s_upper=2 + vertical,
        genus=genus(2 + n_viable, len(gens)),
        p=frac.p,
        q=frac.q,
        q_star=cc.q_star,
        name=rational.KNOT_NAMES.get(cc),
        palindromic=is_palindromic_type(r),
    )
