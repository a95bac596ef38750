"""2-bridge fractions: knot classification behind the word enumeration.

The alternating word s1^a1 s2^-a2 s1^a3 ... determines the rational
number p/q = a1 + 1/(a2 + 1/(... + 1/ak)), and p/q determines the knot:
two fractions give the same unoriented knot up to mirror image exactly
when they share p and their q values agree modulo p up to inversion
and negation.  Canonicalizing q over that symmetry group classifies
every word exactly, independently of any diagram combinatorics, and p
doubles as the knot determinant, which the planar module recomputes
from Goeritz matrices as a cross-check.

The module also owns how a value is written out: exact rationals as
"num/den (decimal)" for people, and csv_cell/json_value for every CSV
cell and JSON value the package emits.  A Record derives its CSV row
and JSON object from its one field list, CSV_COLUMNS.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .words import RunWord

# canonical (p, q*) for all 2-bridge knots through 7 crossings; q* already
# minimized over q -> p-q and q -> q^-1 mod p
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


@dataclass(frozen=True)
class KnotFraction:
    """Reduced fraction p/q of a 2-bridge knot: p odd, 0 < q < p, coprime."""

    p: int
    q: int

    def __post_init__(self):
        if not 0 < self.q < self.p:
            raise ValueError(f"need 0 < q < p, got {self.p}/{self.q}")
        if self.p % 2 == 0:
            # even determinant means a 2-component link, not a knot
            raise ValueError(f"p must be odd, got {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"p, q must be coprime, got {self.p}/{self.q}")


class CanonicalClass(NamedTuple):
    p: int
    q_star: int


def continued_fraction(exponents):
    """Evaluate [a1, ..., ak] = a1 + 1/(a2 + 1/(... + 1/ak)) exactly.

    >>> continued_fraction([7])
    KnotFraction(p=7, q=1)
    >>> continued_fraction([3, 1, 1, 1])
    KnotFraction(p=11, q=3)
    >>> continued_fraction([1, 1, 1, 1, 1, 1, 1])
    KnotFraction(p=21, q=13)
    """
    if not exponents or any(a < 1 for a in exponents):
        raise ValueError(f"exponents must be positive integers: {exponents}")
    num, den = exponents[-1], 1
    for a in reversed(exponents[:-1]):
        num, den = a * num + den, num
    return KnotFraction(num, den)


def canonical_class(f):
    """Smallest q among {q, p-q, q^-1 mod p, p - q^-1 mod p}.

    Inverting q changes which bridge is traced first, negating it mirrors
    the knot; minimizing over both gives one label per unoriented knot up
    to mirror image.  Idempotent: feeding (p, q_star) back in returns the
    same class.

    >>> canonical_class(KnotFraction(9, 7))
    CanonicalClass(p=9, q_star=2)
    >>> canonical_class(KnotFraction(21, 13))
    CanonicalClass(p=21, q_star=8)
    """
    p, q = f.p, f.q
    qinv = pow(q, -1, p)
    return CanonicalClass(p, min(q, p - q, qinv, p - qinv))


def knot_name(cc):
    """Table name like "6_2" for knots through 7 crossings, else None."""
    return KNOT_NAMES.get((cc.p, cc.q_star))


def decimal_string(x, places=6):
    """Fixed-point rendering of an exact rational, no floats involved."""
    q = round(Fraction(x), places)
    n = int(q * 10 ** places)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10 ** places}.{n % 10 ** places:0{places}d}"


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
    """One JSON value: fractions as {num, den, decimal}, tuples as lists,
    run words and records by their to_json.

    >>> json_value((Fraction(2), None, RunWord("+", (1, 2, 1))))
    [{'num': 2, 'den': 1, 'decimal': '2.000000'}, None, {'first_sign': '+', 'runs': [1, 2, 1]}]
    """
    if isinstance(x, Fraction):
        return rational_json(x)
    if isinstance(x, tuple):
        return [json_value(v) for v in x]
    if hasattr(x, "to_json"):
        return x.to_json()
    return x


class Record:
    """Base for output records: CSV_COLUMNS names the attributes that
    make up both the CSV row and the JSON object, in order."""

    CSV_COLUMNS = ()

    def csv_row(self):
        return [csv_cell(getattr(self, name)) for name in self.CSV_COLUMNS]

    def to_json(self):
        return {name: json_value(getattr(self, name)) for name in self.CSV_COLUMNS}


@dataclass(frozen=True)
class KnotClass(Record):
    """One knot type with all model words of a given c that realize it."""

    p: int
    q: int          # fraction of the first word seen, a representative
    q_star: int
    name: str
    multiplicity: int
    words: tuple
    genus: int

    CSV_COLUMNS = ("p", "q", "q_star", "name", "multiplicity", "words")


def group_rows(rows):
    """Group per-word rows (word, p, q, genus, palindromic) by knot type.

    Classes come back in order of first appearance.  Every class holds
    one or two words: two in general, one exactly when the single word
    is its own reversal (palindromic type), and the words of a pair
    always agree in genus; all of that is asserted, not assumed.
    """
    classes = {}
    for word, p, q, genus, palindromic in rows:
        cc = canonical_class(KnotFraction(p, q))
        entry = classes.setdefault(cc, {"words": [], "qs": [], "genus": set(),
                                        "palindromic": []})
        entry["words"].append(word)
        entry["qs"].append(q)
        entry["genus"].add(genus)
        entry["palindromic"].append(palindromic)

    out = []
    n_palindromic = 0
    for cc, entry in classes.items():
        mult = len(entry["words"])
        assert mult in (1, 2), (cc, entry["words"])
        assert len(entry["genus"]) == 1, (cc, entry["genus"])
        if mult == 1:
            assert entry["palindromic"] == [True], (cc, entry["words"])
            n_palindromic += 1
        else:
            assert not any(entry["palindromic"]), (cc, entry["words"])
        out.append(KnotClass(
            p=cc.p,
            q=entry["qs"][0],
            q_star=cc.q_star,
            name=knot_name(cc),
            multiplicity=mult,
            words=tuple(entry["words"]),
            genus=entry["genus"].pop(),
        ))
    total_words = sum(k.multiplicity for k in out)
    assert len(out) * 2 == total_words + n_palindromic
    return out
