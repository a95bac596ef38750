"""Frozen expected values shared by the unit and acceptance tests.

Each table row: (word, runs, alternating, smoothings, viable, sequential,
s, genus, p, q, name, palindromic).  Vertical positions are recoverable
from the smoothing string; non-viable verticals are vertical - viable.
Rows are listed in the reference print order, which for c=7 differs
from the package's enumeration order (tests compare row content, and
enumeration order is pinned separately).
"""

from fractions import Fraction

ROWS_C6 = [
    ("+--+-+-", (1, 2, 1, 1, 1, 1), "s1^3 s2^-1 s1 s2^-1", "HHHVVH",
     {5}, set(), 3, 2, 11, 3, "6_2", False),
    ("+-++-+-", (1, 1, 2, 1, 1, 1), "s1 s2^-3 s1 s2^-1", "HVVVVH",
     {2, 3, 5}, {2, 3}, 5, 1, 9, 7, "6_1", False),
    ("+-+--+-", (1, 1, 1, 2, 1, 1), "s1 s2^-1 s1^3 s2^-1", "HVVVVH",
     {3, 4, 5}, {3, 4}, 5, 1, 9, 5, "6_1", False),
    ("+-+-++-", (1, 1, 1, 1, 2, 1), "s1 s2^-1 s1 s2^-3", "HVVHHH",
     {3}, set(), 3, 2, 11, 7, "6_2", False),
    ("+--++--++-", (1, 2, 2, 2, 2, 1), "s1^2 s2^-1 s1 s2^-2", "HHVVHH",
     {4}, set(), 3, 2, 13, 5, "6_3", True),
]

ROWS_C7 = [
    ("+-+-+-+", (1, 1, 1, 1, 1, 1, 1), "s1 s2^-1 s1 s2^-1 s1 s2^-1 s1",
     "HVVHVVH", {3, 6}, set(), 4, 2, 21, 13, "7_7", True),
    ("+-+--++--+", (1, 1, 1, 2, 2, 2, 1), "s1 s2^-1 s1^2 s2^-1 s1^2",
     "HVVVVHH", {3, 5}, {3}, 4, 2, 19, 11, "7_6", False),
    ("+-++-++--+", (1, 1, 2, 1, 2, 2, 1), "s1 s2^-4 s1^2",
     "HVVVVHH", {2, 3, 4, 5}, {2, 3, 4}, 6, 1, 11, 9, "7_2", False),
    ("+-++--+--+", (1, 1, 2, 2, 1, 2, 1), "s1 s2^-2 s1^4",
     "HVVHHHH", {2, 3}, {2}, 4, 2, 13, 9, "7_3", False),
    ("+-++--++-+", (1, 1, 2, 2, 2, 1, 1), "s1 s2^-2 s1 s2^-2 s1",
     "HVVHVVH", {2, 3, 5, 6}, {2, 5}, 6, 1, 15, 11, "7_4", True),
    ("+--+-++--+", (1, 2, 1, 1, 2, 2, 1), "s1^3 s2^-2 s1^2",
     "HHHVVHH", {4, 5}, {4}, 4, 2, 17, 5, "7_5", False),
    ("+--+--+--+", (1, 2, 1, 2, 1, 2, 1), "s1^7",
     "HHHHHHH", set(), set(), 2, 3, 7, 1, "7_1", True),
    ("+--+--++-+", (1, 2, 1, 2, 2, 1, 1), "s1^4 s2^-2 s1",
     "HHHHVVH", {5, 6}, {5}, 4, 2, 13, 3, "7_3", False),
    ("+--++-+--+", (1, 2, 2, 1, 1, 2, 1), "s1^2 s2^-2 s1^3",
     "HHVVHHH", {3, 4}, {3}, 4, 2, 17, 7, "7_5", False),
    ("+--++-++-+", (1, 2, 2, 1, 2, 1, 1), "s1^2 s2^-4 s1",
     "HHVVVVH", {3, 4, 5, 6}, {3, 4, 5}, 6, 1, 11, 5, "7_2", False),
    ("+--++--+-+", (1, 2, 2, 2, 1, 1, 1), "s1^2 s2^-1 s1^2 s2^-1 s1",
     "HHVVVVH", {4, 6}, {4}, 4, 2, 19, 7, "7_6", False),
]

ROWS_SMALL = [
    ("+--+", (1, 2, 1), "s1^3", "HHH", set(), set(), 2, 1, 3, 1, "3_1", True),
    ("+-+-", (1, 1, 1, 1), "s1 s2^-1 s1 s2^-1", "HVVH",
     {3}, set(), 3, 1, 5, 3, "4_1", True),
    ("+--++-+", (1, 2, 2, 1, 1), "s1^2 s2^-2 s1", "HHVVH",
     {3, 4}, {3}, 4, 1, 7, 3, "5_2", False),
    ("+--+--+", (1, 2, 1, 2, 1), "s1^5", "HHHHH",
     set(), set(), 2, 2, 5, 1, "5_1", True),
    ("+-++--+", (1, 1, 2, 2, 1), "s1 s2^-2 s1^2", "HVVHH",
     {2, 3}, {2}, 4, 1, 7, 5, "5_2", False),
]

# spec enumeration order: grouped by increasing number of doubles, then
# double positions in lexicographic order
ENUMERATION_ORDER_C6 = ["+--+-+-", "+-++-+-", "+-+--+-", "+-+-++-", "+--++--++-"]

CENSUS_C6 = dict(
    word_count=5, vertical_total=14, viable_total=9, sequential_total=4,
    avg_s=Fraction(19, 5), avg_s_upper=Fraction(24, 5),
    avg_genus=Fraction(8, 5), bound=Fraction(11, 10),
    contributions=(3, 4, 4, 3), star=-1,
)

CENSUS_C7 = dict(
    word_count=11, vertical_total=32, viable_total=26, sequential_total=14,
    avg_s=Fraction(48, 11), avg_s_upper=Fraction(54, 11),
    avg_genus=Fraction(20, 11), bound=Fraction(17, 11),
    contributions=(5, 8, 6, 8, 5), star=1,
)

# model word counts for c = 3..12
MODEL_COUNTS = [1, 1, 3, 5, 11, 21, 43, 85, 171, 341]

# 2cos(m pi/3) for m mod 6, the correction term of the Netto sums: the
# tests' own table, apart from the one crosscheck.check_netto reads
TWO_COS = (2, 1, -1, -2, -1, 1)

# knot class name -> multiplicity per crossing number
CLASSES_C6 = {"6_1": 2, "6_2": 2, "6_3": 1}
CLASSES_C7 = {"7_1": 1, "7_2": 2, "7_3": 2, "7_4": 1, "7_5": 2, "7_6": 2, "7_7": 1}


def vertical_set(smoothings):
    return {i for i, x in enumerate(smoothings, start=1) if x == "V"}


def two_cos_pi_thirds(m):
    return TWO_COS[m % 6]
