"""2-bridge fractions: knot classification behind the word enumeration.

The alternating word s1^a1 s2^-a2 s1^a3 ... determines the rational
number p/q = a1 + 1/(a2 + 1/(... + 1/ak)), and p/q determines the knot:
two fractions give the same unoriented knot up to mirror image exactly
when they share p and their q values agree modulo p up to inversion
and negation.  Canonicalizing q over that symmetry group classifies
every word exactly, independently of any diagram combinatorics, and p
doubles as the knot determinant, which the planar module recomputes
from Goeritz matrices as a cross-check.

classify reads p/q and its class off one product M(a1)...M(ak) =
[[p, p'], [q, q']], M(a) = [[a, 1], [1, 0]]: p q' - p' q = (-1)^k proves
gcd(p, q) = 1, so classify takes no gcd (a direct KnotFraction(p, q)
does), and gives q^-1 = (-1)^(k+1) p' mod p without an inverse.

The module also owns how a value is written out: exact rationals as
"num/den (decimal)" for people, and csv_cell/json_value for every CSV
cell and JSON value the package emits.  Every record is a named tuple;
an output record takes csv_row and to_json from here, which derive its
CSV row and JSON object from its one field list, CSV_COLUMNS.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .words import InvariantError, RunWord

DECIMAL_PLACES = 6  # every decimal_string has this many places

# table names of the 2-bridge knots through 7 crossings, keyed by canonical
# class (p, q*) as canonical_class returns it (q* minimized over p-q, q^-1 mod p)
KNOT_NAMES = {
    (3, 1): "3_1",
    (5, 2): "4_1",
    (5, 1): "5_1",
    (7, 2): "5_2",
    (9, 2): "6_1",
    (11, 3): "6_2",
    (13, 5): "6_3",
    (7, 1): "7_1",
    (11, 2): "7_2",
    (13, 3): "7_3",
    (15, 4): "7_4",
    (17, 5): "7_5",
    (19, 7): "7_6",
    (21, 8): "7_7",
}


def _check_knot(p, q):
    """KnotFraction's checks but coprimality, which classify's determinant proves."""
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got {p}/{q}")
    if p % 2 == 0:
        # even determinant means a 2-component link, not a knot
        raise ValueError(f"p must be odd, got {p}/{q}")


class KnotFraction(namedtuple("KnotFraction", "p q")):
    """Reduced fraction p/q of a 2-bridge knot: p odd, 0 < q < p, coprime."""

    __slots__ = ()

    def __new__(cls, p, q):
        _check_knot(p, q)
        if gcd(p, q) != 1:
            raise ValueError(f"p, q must be coprime, got {p}/{q}")
        return tuple.__new__(cls, (p, q))


_BLOCK = 256  # exponents folded one at a time; longer lists are halved


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _product(exponents):
    """M(a1)...M(ak) as (p, p', q, q').  Halving makes operands of like
    size meet, so the big products run in Karatsuba time."""
    if len(exponents) > _BLOCK:
        mid = len(exponents) // 2
        return _mul(_product(exponents[:mid]), _product(exponents[mid:]))
    p, p1, q, q1 = 1, 0, 0, 1
    for a in exponents:
        p, p1 = a * p + p1, p
        q, q1 = a * q + q1, q
    return p, p1, q, q1


def classify(exponents):
    """Knot fraction and canonical class (p, q*) of [a1, ..., ak] from one
    product; a determinant other than (-1)^k raises ValueError, also under -O.

    >>> classify([3, 1, 1, 1])
    (KnotFraction(p=11, q=3), (11, 3))
    """
    if not exponents or min(exponents) < 1:
        raise ValueError(f"exponents must be positive integers: {exponents}")
    p, p1, q, q1 = _product(exponents)
    sign, det = (-1) ** len(exponents), p * q1 - p1 * q
    if det != sign:
        raise ValueError(f"p q' - p' q must be (-1)^k = {sign}, got {det}")
    _check_knot(p, q)
    # q^-1 = -sign p' mod p, and 0 < p' < p; the class minimizes over the sign
    return tuple.__new__(KnotFraction, (p, q)), (p, min(q, p - q, p1, p - p1))


def continued_fraction(exponents):
    """Evaluate [a1, ..., ak] = a1 + 1/(a2 + 1/(... + 1/ak)) exactly.

    >>> continued_fraction([7])
    KnotFraction(p=7, q=1)
    >>> continued_fraction([3, 1, 1, 1])
    KnotFraction(p=11, q=3)
    >>> continued_fraction([1, 1, 1, 1, 1, 1, 1])
    KnotFraction(p=21, q=13)
    """
    return classify(exponents)[0]


def canonical_class(f):
    """The class (p, q*), q* the smallest of {q, p-q, q^-1 mod p, p - q^-1 mod p}.

    Inverting q changes which bridge is traced first, negating it mirrors
    the knot; minimizing over both gives one label per unoriented knot up
    to mirror image.  Idempotent: feeding (p, q_star) back in returns the
    same class.

    >>> canonical_class(KnotFraction(9, 7))
    (9, 2)
    >>> canonical_class(KnotFraction(21, 13))
    (21, 8)
    """
    p, q = f.p, f.q
    qinv = pow(q, -1, p)
    return p, min(q, p - q, qinv, p - qinv)


def knot_label(record):
    """A word analysis's or knot class's table name, else "p/q_star"."""
    return record.name or f"{record.p}/{record.q_star}"


def decimal_string(x):
    """Fixed-point rendering of an exact rational (an int or a Fraction),
    no floats involved: round(x * 10**DECIMAL_PLACES) by one integer
    division, a half rounding to even as Fraction.__round__ does."""
    den = x.denominator
    n, rest = divmod(x.numerator * 10 ** DECIMAL_PLACES, den)
    if 2 * rest > den or 2 * rest == den and n & 1:
        n += 1
    whole, fraction = divmod(abs(n), 10 ** DECIMAL_PLACES)
    return f"{'-' if n < 0 else ''}{whole}.{fraction:0{DECIMAL_PLACES}d}"


def rational_json(x):
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator, "decimal": decimal_string(x)}


def format_rational(x):
    """Human form "num/den (decimal)"; the exact part is authoritative."""
    x = Fraction(x)
    exact = f"{x.numerator}/{x.denominator}" if x.denominator != 1 else f"{x.numerator}"
    return f"{exact} ({decimal_string(x)})"


def csv_cell(x):
    """One CSV cell: missing values empty, fractions always as num/den,
    run vectors and tuples space-separated.

    >>> [csv_cell(v) for v in (None, True, Fraction(2), RunWord("+", (1, 2, 1)))]
    ['', 'true', '2/1', '1 2 1']
    """
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, RunWord):
        x = x.runs
    if isinstance(x, tuple):
        return " ".join(csv_cell(v) for v in x)
    return str(x)


def json_value(x):
    """One JSON value: fractions as {num, den, decimal}, run words and
    records by their to_json, other tuples, lists and dicts item by item.

    >>> json_value((Fraction(2), None, RunWord("+", (1, 2, 1))))
    [{'num': 2, 'den': 1, 'decimal': '2.000000'}, None, {'first_sign': '+', 'runs': [1, 2, 1]}]
    """
    if isinstance(x, Fraction):
        return rational_json(x)
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, (tuple, list)):
        return [json_value(v) for v in x]
    if isinstance(x, dict):
        return {k: json_value(v) for k, v in x.items()}
    return x


# An output record's methods: CSV_COLUMNS names the attributes that make
# up both the CSV row and the JSON object, in order.

def csv_row(record):
    return [csv_cell(getattr(record, name)) for name in record.CSV_COLUMNS]


def to_json(record):
    return {name: json_value(getattr(record, name)) for name in record.CSV_COLUMNS}


class KnotClass(NamedTuple):
    """One knot type with all model words of a given c that realize it."""

    p: int
    q: int          # fraction of the first word seen, a representative
    q_star: int
    name: str
    multiplicity: int
    words: tuple
    genus: int

    CSV_COLUMNS = ("p", "q", "q_star", "name", "multiplicity", "words")
    csv_row = csv_row
    to_json = to_json


def group_rows(rows):
    """Group per-word rows ((p, q_star), word, q, genus, palindromic) by class.

    Classes come back in order of first appearance.  Every class holds
    one or two words: two in general, one exactly when the single word
    is its own reversal (palindromic type), and the words of a pair
    always agree in genus; all of that is checked, not assumed, and a
    violation raises InvariantError.
    """
    new = tuple.__new__
    classes = {}
    for row in rows:
        classes.setdefault(row[0], []).append(row)

    out = []
    for (p, q_star), members in classes.items():
        _, words, qs, genera, palindromic = zip(*members)
        mult = len(members)
        # the error text names the class's words, joined only on failure
        if mult not in (1, 2):
            raise InvariantError("class multiplicity", f"words {' '.join(words)}", "1 or 2", mult)
        if len(set(genera)) != 1:
            raise InvariantError("one genus per class", f"words {' '.join(words)}", "one genus",
                                 sorted(set(genera)))
        # a single word is its own reversal (palindromic); a pair is not
        if palindromic != (mult == 1,) * mult:
            raise InvariantError("palindromic exactly when single", f"words {' '.join(words)}",
                                 [mult == 1] * mult, list(palindromic))
        # KnotClass field order, past the generated __new__ as classify does
        out.append(new(KnotClass, (p, qs[0], q_star, KNOT_NAMES.get((p, q_star)), mult, words,
                                   genera[0])))
    return out
