"""Billiard table words and their reduction to run form.

A billiard table word is a string over the alphabet {+, -}.  Closing the
3-strand billiard trajectory it describes gives a knot exactly when the
word length is not 2 mod 3; the knots arising this way are the 2-bridge
knots.  Three moves shorten a word without changing the closure:

    internal  delete three consecutive identical letters anywhere
    start     delete a leading  "++-" or "--+"
    end       delete a trailing "-++" or "+--"

Each move removes exactly three letters, so length mod 3 is invariant.
A fixpoint of length >= 3 always consists of maximal runs of length 1 or
2 whose first and last runs are single letters; such words live here in
run-length form (RunWord).  The canonical representatives everything
downstream consumes ("model words") additionally have first sign +,
length congruent to 1 mod 3, and at least 3 runs.  Every 2-bridge knot
with crossing number c is realized by exactly two model words with c
runs, or one when the run vector is its own reversal.
"""

import itertools
import random
import warnings
from collections import namedtuple
from operator import getitem
from typing import NamedTuple

PLUS = "+"
MINUS = "-"
_ALPHABET = {PLUS, MINUS}
_MIRROR = str.maketrans("+-", "-+")
# _LETTERS[first_sign][i & 1][e]: the letters of run i of length e (index 0 unused)
_LETTERS = {s: ((None, s, s + s), (None, o, o + o)) for s, o in ((PLUS, MINUS), (MINUS, PLUS))}
_TOGGLED = bytes.maketrans(b"\1\2", b"\2\1")  # run lengths 1 <-> 2, as bytes
_RUN_LENGTHS = bytes.maketrans(b"+-PM", b"\1\1\2\2")  # run length per to_runs mark

# classification kinds returned by normalize_to_model
MODEL = "model"
UNKNOT = "unknot"
LINK = "link"


class UsageError(ValueError):
    """The input is malformed or out of range, not the program wrong: the
    CLI exits 2 on it and exits 1 on any other ValueError."""


class WordSyntaxError(UsageError):
    """Text is not a billiard table word."""


class NotReducedForm(ValueError):
    """Word is not in reduced run form (runs of 1 or 2, single-letter ends)."""


class InvariantError(Exception):
    """Two routes to one quantity disagree, or a value left the range the
    theory proves for it: the program is wrong, not its input.  It names
    the invariant, where it failed (a c or a word) and both values.
    """

    def __init__(self, name, where, expected, actual):
        super().__init__(name, where, expected, actual)
        self.name = name
        self.where = where
        self.expected = expected
        self.actual = actual

    def __str__(self):
        return f"{self.name} at {self.where}: expected {self.expected}, got {self.actual}"


def only_signs(word):
    """True when word holds only + and -, read at C speed: its bytes with
    both letters deleted are empty ("?" stands for a non-ASCII character).
    Callers scan a failing word again, one character at a time, to name
    the bad character and its position.

    >>> only_signs("+--+"), only_signs("+-x"), only_signs("+\u2212")
    (True, False, False)
    """
    return not word.encode("ascii", "replace").translate(None, b"+-")


def parse_word(text):
    """Parse text into a word over {+, -}; whitespace is ignored.

    >>> parse_word(" +- -+ ")
    '+--+'
    """
    word = "".join(text.split())
    if only_signs(word):
        return word
    # something else is in there (str.split and str.isspace agree on
    # whitespace): find it and report its position
    for pos, ch in enumerate(text):
        if ch not in _ALPHABET and not ch.isspace():
            raise WordSyntaxError(f"invalid character {ch!r} at position {pos}")


def mirror(word):
    """Swap + and - throughout.

    >>> mirror("+--+")
    '-++-'
    """
    return word.translate(_MIRROR)


_START = ("++-", "--+")
_END = ("-++", "+--")


def reduce(word):
    """Apply reduction moves until none applies, in time linear in the word.

    The result is the fixpoint of one fixed strategy: the leftmost
    internal move while there is one, else the start move, else the end
    move.  Other orders can end elsewhere ("++--" is "+" after its end
    move, "-" after its start move); the tests find the fixpoint unique
    up to mirror image for every word of length <= 12.

    Internal moves alone are free reduction in <+, - | +^3, -^3>, which
    is confluent: deleting triples in any order reaches the triple-free
    word the strategy reaches first.  Two str.replace passes delete the
    triples the word already holds, about half a random word's letters;
    a stack of letters, the top run's letter and length in two locals,
    deletes the rest in one more pass (repeating the replace passes
    instead needs one round per nesting level).  Deleting a prefix or
    suffix creates no triple, so only start and end moves remain; they
    are peeled in the strategy's order, start first, re-checked after
    every peel.

    >>> reduce("+++")
    ''
    >>> reduce("++-+")
    '+'
    >>> reduce("+--+-+-")
    '+--+-+-'
    >>> reduce("++--")
    '-'
    """
    stack = ["", ""]  # two empty letters at the bottom: the top run always exists
    push = stack.append
    top, n = "", 0
    for ch in word.replace("+++", "").replace("---", ""):
        if ch != top:
            push(ch)
            top, n = ch, 1
        elif n == 1:
            push(ch)
            n = 2
        else:
            del stack[-2:]
            top = stack[-1]
            n = 2 if stack[-2] == top else 1
    w = "".join(stack)
    i, j = 0, len(w)
    while j - i >= 3:
        if w[i:i + 3] in _START:
            i += 3
        elif w[j - 3:j] in _END:
            j -= 3
        else:
            break
    return w[i:j]


class RunWord(namedtuple("RunWord", "first_sign runs")):
    """Run-length form of a reduced word: first run's sign plus run lengths.

    Signs alternate, so runs[i] carries first_sign flipped i times.  The
    number of runs equals the crossing number of the alternating diagram
    the word produces, which is why it is called c throughout.
    """

    __slots__ = ()

    def __new__(cls, first_sign, runs):
        runs = tuple(runs)
        if first_sign not in _ALPHABET:
            raise NotReducedForm(f"first sign must be + or -: {first_sign!r}")
        if not runs:
            raise NotReducedForm("empty run vector")
        if runs.count(1) + runs.count(2) != len(runs):
            raise NotReducedForm(f"run lengths must be 1 or 2: {runs}")
        if runs[0] != 1 or runs[-1] != 1:
            raise NotReducedForm(f"first and last runs must be single letters: {runs}")
        return tuple.__new__(cls, (first_sign, runs))

    @property
    def c(self):
        return len(self.runs)

    @property
    def length(self):
        return sum(self.runs)

    @property
    def is_model(self):
        return self.first_sign == PLUS and len(self.runs) >= 3 and sum(self.runs) % 3 == 1

    def to_json(self):
        return {"first_sign": self.first_sign, "runs": list(self.runs)}


def to_runs(word):
    """Run-length encode a reduced word: with runs of 1 or 2, marking each
    double by one letter leaves one letter per run, and a byte table reads
    the lengths off; a longer run is split out at the sign changes, so
    that RunWord's error names its length.

    >>> to_runs("+--+-+-")
    RunWord(first_sign='+', runs=(1, 2, 1, 1, 1, 1))
    """
    if not word:
        raise NotReducedForm("empty word has no run form")
    if not only_signs(word):  # a space would split a run, any other letter join one
        rest = word.lstrip("+-")
        raise NotReducedForm(f"{rest[0]!r} at position {len(word) - len(rest)} is not + or -")
    if "+++" in word or "---" in word:
        runs = map(len, word.replace("+-", "+ -").replace("-+", "- +").split())
    else:
        runs = word.replace("++", "P").replace("--", "M").encode().translate(_RUN_LENGTHS)
    return RunWord(word[0], runs)


def from_runs(r):
    """Expand runs back into letters; inverse of to_runs.

    >>> from_runs(RunWord("+", (1, 2, 1)))
    '+--+'
    """
    return "".join(map(getitem, itertools.cycle(_LETTERS[r.first_sign]), r.runs))


def toggle_interior(r):
    """Swap interior run lengths 1 <-> 2; the ends stay single letters.

    The word and its toggle have lengths summing to 3c - 2, so lengths 0
    and 1 mod 3 swap.  Both describe the same knot.
    """
    if r.c < 2:
        return r
    return RunWord(r.first_sign, (1, *bytes(r.runs[1:-1]).translate(_TOGGLED), 1))


def is_palindromic_type(r):
    """True when the run vector is its own reversal.

    These are exactly the words the enumeration sees once instead of
    twice: reversing the underlying letters (plus a mirror when c is
    even, since reversal then flips the first sign) gives back the same
    model word.
    """
    return r.runs == r.runs[::-1]


# The largest crossing number whose model words are ever listed one by
# one: model_count(26) = 5,592,405 words, and each step up doubles that.
# enumeration_tasks (so enumerate_model_words and run_census) refuses a
# larger c with UsageError, which the CLI reports as a usage error.
# crosscheck.run_all stops lower, at CHECK_CEILING; closed_form_totals lists none.
ENUMERATION_CEILING = 26


def double_counts(c):
    """Interior double counts d with c + d = 1 mod 3 and 0 <= d <= c - 2."""
    return range((1 - c) % 3, c - 1, 3)


def enumerate_model_words(c):
    """Yield every model word with c runs in a fixed deterministic order:
    grouped by increasing number of doubles, double positions in
    lexicographic order.

    >>> [from_runs(r) for r in enumerate_model_words(3)]
    ['+--+']
    """
    for d in enumeration_tasks(c):
        yield from expand_task(c, d)


def enumeration_tasks(c):
    """The d level: the interior double counts of c, which expand_task,
    the word level, expands in order into enumerate_model_words(c).  The
    levels stay two names because bench/run.py traces both functions and
    counts words from expand_task."""
    if c < 3:
        raise UsageError(f"model words need at least 3 runs, got c={c}")
    if c > ENUMERATION_CEILING:
        raise UsageError(f"c={c} is above the enumeration ceiling {ENUMERATION_CEILING}")
    return double_counts(c)


def expand_task(c, d):
    """Yield the model words with c runs and d interior doubles, double
    positions in lexicographic order (d = 0 yields the one empty choice).

    Each word is built directly, past RunWord's checks, which its
    construction proves: first sign +, single end runs, interior runs of
    1 or 2, and length c + d = 1 mod 3 (double_counts).  The tests compare
    every word with c <= 18 with one from RunWord's checked constructor."""
    new = tuple.__new__
    for doubles in itertools.combinations(range(1, c - 1), d):
        runs = [1] * c
        for j in doubles:
            runs[j] = 2
        yield new(RunWord, (PLUS, tuple(runs)))


class Normalized(NamedTuple):
    """Outcome of normalize_to_model; kind is MODEL, UNKNOT or LINK."""

    kind: str
    run_word: RunWord = None


def normalize_to_model(word):
    """Classify a word and, when it closes to a nontrivial knot, produce
    its model representative.

    Reduction preserves the closure.  Reduced length <= 1 closes to the
    unknot; reduced length 2 mod 3 closes to a 2-component link, which
    this model does not cover.  Anything else is brought to first sign +
    (mirror) and length 1 mod 3 (toggle_interior); both steps preserve
    the knot up to mirror image.

    >>> normalize_to_model("+++").kind
    'unknot'
    >>> normalize_to_model("-++-+-+").run_word
    RunWord(first_sign='+', runs=(1, 2, 1, 1, 1, 1))
    >>> normalize_to_model("+-").kind
    'link'
    """
    w = reduce(parse_word(word))
    if len(w) <= 1:
        return Normalized(UNKNOT)
    if len(w) % 3 == 2:
        return Normalized(LINK)
    try:
        r = to_runs(mirror(w) if w[0] == MINUS else w)
        if r.length % 3 == 0:
            r = toggle_interior(r)
    except NotReducedForm as e:  # reduce returned a word outside run form
        raise InvariantError("reduced run form", f"reduced word {w}",
                             "runs of 1 or 2, single-letter ends", e) from e
    if not r.is_model:
        raise InvariantError("model form", f"reduced word {w}",
                             "first sign +, c >= 3, length 1 mod 3", from_runs(r))
    return Normalized(MODEL, r)


def sample(n, count, seed):
    """Deterministic uniform sampling of count words from {+,-}^n.

    Lengths 2 mod 3 close to 2-component links, so no knot statistics
    can come out of them; a warning flags that case.
    """
    if n < 1:
        raise UsageError("word length must be >= 1")
    if count < 0:
        raise UsageError("count must be >= 0")
    if n % 3 == 2:
        warnings.warn(f"length {n} is 2 mod 3: every sampled closure is a 2-component link")
    rng = random.Random(seed)
    return (draw_letters(rng, n) for _ in range(count))


# top byte of one 32-bit draw: rng.choice("+-") rejects it when bit 7 is
# set and draws again, else bit 6 picks the letter
_TOP_BYTE_LETTER = bytes(b"+-"[t >> 6 & 1] for t in range(256))
_TOP_BYTE_REJECTED = bytes(range(0x80, 0x100))
# getrandbits takes its bit count as a C int, below 2^31, and the first
# call for n letters asks for 32 * n bits
_MAX_LETTERS = 2 ** 26


def draw_letters(rng, n):
    """The n letters that n calls of rng.choice("+-") return, leaving rng
    in the same state, from a few getrandbits calls.

    choice draws 32-bit words until the top two bits fall below 2 and
    returns the letter at bit 30.  getrandbits(32*k) draws k such words,
    least significant first, so each word's top byte is every fourth
    byte of the little-endian result.  A word yields at most one letter,
    so asking for as many words as letters are missing never draws past
    the last letter.

    >>> import random
    >>> draw_letters(random.Random(2), 8)
    '+++-+--+'
    """
    if n >= _MAX_LETTERS:
        raise UsageError(f"word length must be below {_MAX_LETTERS}, got {n}")
    parts = []
    while n:
        top = rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
        letters = top.translate(_TOP_BYTE_LETTER, _TOP_BYTE_REJECTED)
        parts.append(letters)
        n -= len(letters)
    return b"".join(parts).decode("ascii")
