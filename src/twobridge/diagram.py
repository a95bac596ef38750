"""Alternating plat diagrams from model words, by the combinatorial shortcut.

Each run of a model word becomes one crossing of an alternating 3-strand
plat diagram: a (sign, run length) pair maps to a braid generator

    (+,1) -> s1    (+,2) -> s2^-1    (-,1) -> s2^-1    (-,2) -> s1

where s1 sits at the lower height (strands 1-2) and s2^-1 at the upper
height (strands 2-3).  Model words start with +, so run i (0-based) of
length e gives s1 exactly when i + e is odd.  GENERATOR[i & 1][e] holds
this rule as data; _scan, census.scan_totals and generators(r) read it.

The counting rule is one run automaton, written once in _step and held
as data in STEP.  A run of length e smooths its crossing horizontally
iff the run's start position in the letter word is e mod 3.  A vertical
crossing is viable when the next vertical crossing sits at the same
height or there is none, and sequential when that next one is the very
next crossing; the Seifert circle count is then exactly 2 + #viable.  So
the state of a prefix, one of the 18 STATES (12 reachable from START), is

    (start mod 3, generator of the last vertical crossing or None,
     whether that crossing is the previous one)

A horizontal crossing leaves the pending one waiting, no longer
adjacent; a vertical one settles it and becomes pending itself.
STEP[state][e][g] gives the next state's index, the smoothing and the
flags settled by a run of length e with generator g, and
ENDS_VIABLE[state] counts the crossing still pending at the end.
analyze walks STEP once per word (_scan), reading each run's generator
and folding the braid word's exponents as it goes; census.scan_totals
sums it over all words of one crossing number.  full_diagram, the check
route, reads no table: a right-to-left sweep that carries the nearest
vertical crossing to the right sets its flags.  The planar oracle
draws the diagram from generators(r) alone and traces its smoothings
and Seifert circles.
"""

from itertools import accumulate, cycle, product
from operator import getitem
from typing import NamedTuple

from . import rational
from .words import InvariantError, RunWord, from_runs, is_palindromic_type, mirror

SIGMA1 = "s1"
SIGMA2_INV = "s2^-1"
V = "V"
H = "H"

# the generator of run i of length e (index 0 unused): GENERATOR[i & 1][e]
GENERATOR = ((None, SIGMA1, SIGMA2_INV), (None, SIGMA2_INV, SIGMA1))


class ParityError(InvariantError):
    """1 - s + c came out odd or negative: no knot diagram has that circle
    count and crossing number, so the code that counted them is wrong."""


class CrossingInfo(NamedTuple):
    index: int          # 1-based, left to right
    generator: str      # SIGMA1 or SIGMA2_INV
    run_sign: str
    run_length: int
    start_position: int  # 1-based position of the run's first letter
    smoothing: str
    viable: bool
    sequential: bool


class _Powers(dict):
    """Exponent k -> the text of one generator's k-th power, formatted the
    first time k is read."""

    __slots__ = ("prefix",)

    def __init__(self, generator, prefix):
        super().__init__({1: generator})
        self.prefix = prefix

    def __missing__(self, k):
        text = self[k] = f"{self.prefix}{k}"
        return text


_POWERS = _Powers(SIGMA1, "s1^"), _Powers(SIGMA2_INV, "s2^-")


def _braid_word(first, exponents):
    """The folded word written out, e.g. "s1^3 s2^-1 s1 s2^-1".  Adjacent
    folds differ, so with two generators they alternate from first; each
    power's text comes from _POWERS, which formats it the first time its
    exponent is read."""
    return " ".join(map(getitem, cycle(_POWERS if first == SIGMA1 else _POWERS[::-1]),
                        exponents))


def generators(r):
    """The braid generator of each crossing of a model word, left to right."""
    return list(map(getitem, cycle(GENERATOR), r.runs))


def _step(state, e, g):
    """The run automaton's step on a run of length e with generator g: the
    next state, the smoothing, and the flags settled for the pending crossing."""
    start, pending, adjacent = state
    after = (start + e) % 3
    if start == e:  # horizontal: the pending crossing waits
        return (after, pending, False), H, 0, 0
    viable = int(pending == g)  # vertical: settle the pending crossing, take its place
    return (after, g, True), V, viable, viable if adjacent else 0


# start mod 3 in the order 1, 2, 0: the state before the first run comes first
STATES = tuple(product((1, 2, 0), (None, SIGMA1, SIGMA2_INV), (False, True)))
START = 0
ENDS_VIABLE = tuple(int(pending is not None) for _, pending, _ in STATES)


def _table(step):
    """The transition table of a step function: per state index and run
    length e (index 0 unused), a dict from generator to (next state index,
    smoothing, viable, sequential).

    >>> [(STATES[nxt], *rest) for nxt, *rest in (STEP[START][1][SIGMA1], STEP[START][2][SIGMA1])]
    [((2, None, False), 'H', 0, 0), ((0, 's1', True), 'V', 0, 0)]
    """
    index = {state: i for i, state in enumerate(STATES)}
    table = [(None, {}, {}) for _ in STATES]
    for (i, state), e, g in product(enumerate(STATES), (1, 2), (SIGMA1, SIGMA2_INV)):
        nxt, *flags = step(state, e, g)
        table[i][e][g] = (index[nxt], *flags)
    return tuple(table)


STEP = _table(_step)


def _scan(r):
    """analyze's kernel: one walk of STEP over the runs and their generators
    from GENERATOR, folding the generators beside it.  Returns the first
    generator, the smoothing string, the vertical, viable and sequential
    counts, and the folded exponents."""
    smoothings = []
    exponents = []
    viable = sequential = 0
    state = START
    first = prev = GENERATOR[0][r.runs[0]]
    k = 0
    for e, generator in zip(r.runs, cycle(GENERATOR)):
        g = generator[e]
        if g == prev:
            k += 1
        else:
            exponents.append(k)
            prev, k = g, 1
        state, smoothing, settled, settled_sequential = STEP[state][e][g]
        smoothings.append(smoothing)
        viable += settled
        sequential += settled_sequential
    exponents.append(k)
    smoothings = "".join(smoothings)
    return (first, smoothings, smoothings.count(V), viable + ENDS_VIABLE[state], sequential,
            exponents)


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
    starts = list(accumulate(r.runs, initial=1))
    smoothings = [H if start % 3 == e else V for e, start in zip(r.runs, starts)]
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
    run_sign = (r.first_sign, mirror(r.first_sign))
    return tuple(
        CrossingInfo(i + 1, gens[i], run_sign[i & 1], e, starts[i],
                     smoothings[i], viable[i], sequential[i])
        for i, e in enumerate(r.runs))


class WordAnalysis(NamedTuple):
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
    csv_row = rational.csv_row
    to_json = rational.to_json


def analyze(r):
    """Full per-word record: diagram counts, genus, fraction, knot name.

    >>> a = analyze(RunWord("+", (1, 2, 1, 1, 1, 1)))  # +--+-+-
    >>> a.alternating, a.smoothings, a.s, a.genus, a.name
    ('s1^3 s2^-1 s1 s2^-1', 'HHHVVH', 3, 2, '6_2')
    """
    if not r.is_model:
        raise ValueError(f"not a model word: {r}")
    first, smoothings, vertical, viable, sequential, exponents = _scan(r)
    word = from_runs(r)
    try:
        frac, cc = rational.classify(exponents)
    except ValueError as e:  # every model word has a knot fraction
        raise InvariantError("knot fraction", f"word {word}",
                             "p odd, 0 < q < p, coprime", e) from e
    s = 2 + viable
    # positional, past the generated __new__, as classify builds its records
    return tuple.__new__(WordAnalysis, (
        word, r, _braid_word(first, exponents), smoothings, vertical, viable,
        sequential, s, 2 + sequential, 2 + vertical, genus(s, len(r.runs)),
        frac.p, frac.q, cc.q_star, rational.KNOT_NAMES.get(cc), is_palindromic_type(r)))
