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

so a run of length e smooths horizontally iff start = e (mod 3).  A
vertically-smoothed crossing is viable when the next vertical crossing
sits at the same height, or when it is the last vertical crossing; it is
sequential when that next vertical crossing is also the very next
crossing.  The Seifert circle count of the diagram is then exactly
2 + #viable.

analyze reads each word's runs once.  Its pass (_scan) goes left to
right over the runs and their generators, yields the smoothing string,
the vertical count and the folded exponents, and settles viability as
census.scan_totals does: each new vertical crossing settles the pending
one, viable if the two generators match and sequential if they are also
adjacent; the crossing still pending at the end is viable.  full_diagram,
the check route, sets the flags by a right-to-left sweep that carries
the nearest vertical crossing to the right, and returns one CrossingInfo
per crossing.  Both take their generators from generators(r), the one
place the generator rule is written.  The planar module draws the
diagram from that list alone, re-derives the smoothings and the circle
count by traversal, and the check battery compares them with analyze.
"""

from dataclasses import dataclass
from itertools import accumulate

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


def _braid_word(first, exponents):
    """The folded word written out, e.g. "s1^3 s2^-1 s1 s2^-1".  Adjacent
    folds differ, so with two generators they alternate from first."""
    s1_at = 0 if first == SIGMA1 else 1
    return " ".join([
        (SIGMA1 if k == 1 else f"s1^{k}") if j & 1 == s1_at else f"s2^-{k}"
        for j, k in enumerate(exponents)])


def generators(r):
    """The braid generator of each crossing of a model word, left to right."""
    return [_GENERATOR[(i + e) & 1] for i, e in enumerate(r.runs)]


def _scan(r, gens):
    """analyze's kernel, the one left-to-right pass over the runs and
    their generators described in the module docstring: the smoothing
    string, the vertical, viable and sequential counts, and the exponents
    of the folded generators (the continued fraction entries)."""
    smoothings = []
    exponents = []
    vertical = viable = sequential = 0
    pending = None    # generator of the last vertical crossing so far
    adjacent = False  # the pending crossing is the previous one
    start = 1
    prev, k = gens[0], 0
    for e, g in zip(r.runs, gens):
        if g == prev:
            k += 1
        else:
            exponents.append(k)
            prev, k = g, 1
        if start % 3 == e:
            smoothings.append(H)
            adjacent = False
        else:
            smoothings.append(V)
            vertical += 1
            if pending == g:
                viable += 1
                if adjacent:
                    sequential += 1
            pending, adjacent = g, True
        start += e
    exponents.append(k)
    if pending is not None:
        viable += 1
    return "".join(smoothings), vertical, viable, sequential, exponents


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
    viability flags.  This is the check route for analyze: a
    right-to-left sweep sets the flags.

    Viable: the next vertical crossing (in index order) has the same
    generator, or there is none.  Sequential: the immediately following
    crossing is vertical with the same generator, which forces viability
    of this one but is strictly stronger.

    >>> [(x.generator, x.smoothing) for x in full_diagram(RunWord("+", (1, 2, 1)))]
    [('s1', 'H'), ('s1', 'H'), ('s1', 'H')]
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
    """Full per-word record: diagram counts, genus, fraction, knot name.

    >>> a = analyze(RunWord("+", (1, 2, 1, 1, 1, 1)))  # +--+-+-
    >>> a.alternating, a.smoothings, a.s, a.genus, a.name
    ('s1^3 s2^-1 s1 s2^-1', 'HHHVVH', 3, 2, '6_2')
    """
    if not r.is_model:
        raise ValueError(f"not a model word: {r}")
    gens = generators(r)
    smoothings, vertical, viable, sequential, exponents = _scan(r, gens)
    word = from_runs(r)
    try:
        frac = rational.continued_fraction(exponents)
    except ValueError as e:  # every model word has a knot fraction
        raise InvariantError("knot fraction", f"word {word}",
                             "p odd, 0 < q < p, coprime", e) from e
    cc = rational.canonical_class(frac)
    s = 2 + viable
    return WordAnalysis(
        word, r, _braid_word(gens[0], exponents), smoothings, vertical, viable,
        sequential, s, 2 + sequential, 2 + vertical, genus(s, len(gens)),
        frac.p, frac.q, cc.q_star, rational.KNOT_NAMES.get(cc), is_palindromic_type(r))
