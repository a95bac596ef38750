"""Honest planar diagrams: the slow, independent route to every quantity.

The fast modules never draw anything; they read counts straight off run
arithmetic.  This module builds actual planar diagrams for the same
knots, as 3-strand strips with explicit closure arcs, and recomputes
everything by graph traversal: component count, orientations, Seifert
circles by smoothing, and the knot determinant via a checkerboard
Goeritz matrix.  Nothing here consults the shortcut formulas, so
agreement between the two routes genuinely checks both.

Strip layout: crossings sit left to right, spanning heights 0..2 (three
strands).  A crossing at heights (lo, lo+1) has four corners, nw and ne
at height lo+1, sw and se at height lo.  The two strands through a
crossing run along the diagonals sw-ne and nw-se; the over flag records
which diagonal passes over ("/" for sw-ne, "\\" for nw-se).  Along each
height line, every crossing's east corner joins the next crossing's west
corner.  Closure: a cap joins heights 1 and 2 at the left and the long
strand enters at left height 0; on the right a cap joins heights 1-2
when the crossing count is odd (long strand exits at height 0) and
heights 0-1 when it is even (exit at height 2); one long arc closes exit
back to entry.

Ports: corner k of crossing ci is the integer port 4*ci + k, with the
corners numbered clockwise as drawn, nw=0, ne=1, se=2, sw=3.  A diagram
is one tuple, other[port], the port at the far end of the edge leaving
port, plus the start port where the long strand first enters a crossing.
The strand through port p leaves the crossing at its diagonal partner
p ^ 2, and the corner clockwise from p is (p & ~3) | ((p + 1) & 3).  The
quadrant between corner p and its clockwise neighbour is quadrant p, so
N, E, S, W are 0, 1, 2, 3.  A face is an orbit of the map
p -> clockwise(other[p]) on ports: leave p, arrive at a = other[p], turn
clockwise around a's crossing and leave again; the face holds every
quadrant a it turns through.  Quadrants a and clockwise(a) lie on the two
sides of the edge at corner clockwise(a), so in a checkerboard colouring
their faces differ; the face pass traces and colours the faces together,
and checks that colour on both sides of every edge at both its ends.

The Goeritz matrix has a row per white face, the colour face 0 lacks;
each crossing between two white faces adds its sign to both diagonals
and subtracts it from their shared entry, so the rows sum to zero and
deleting any one row and column leaves |det|.  The oracle deletes the
hub, the first white face traced, which meets crossings all along the
strip; the other white faces follow one another along it, so every other
crossing joins two consecutive rows and the minor is tridiagonal: its
determinant is a continuant, one multiply-add per row.

The trefoil as the billiard word +-+: crossing 0 (ports 0-3) and
crossing 2 (ports 8-11) sit at heights 0-1, crossing 1 (ports 4-7) at
heights 1-2, and the long strand enters at crossing 0's sw corner.

>>> pd = billiard_pd("+-+")
>>> pd.other, pd.start
((4, 7, 11, 10, 0, 9, 8, 1, 6, 5, 3, 2), 3)
>>> goeritz_determinant(pd)
3
"""

from functools import lru_cache
from typing import NamedTuple

from .diagram import H, SIGMA1, V
from .words import InvariantError, only_signs


class MultiComponent(InvariantError):
    """Traversal found more than one closed component where a knot was
    expected: actual is the component count."""


class Crossing(NamedTuple):
    lower: int   # height of the lower strand, 0 or 1
    over: str    # "/" if the sw-ne diagonal is over, "\\" if nw-se is


class PlanarDiagram(NamedTuple):
    """4-valent plane graph of one closed strip: other[p] is the port the
    edge leaving port p ends at, start the long strand's first port."""
    crossings: tuple
    other: tuple
    start: int

    @property
    def n(self):
        return len(self.crossings)


def _where(crossings):
    return "strip " + " ".join(f"{cr.lower}{cr.over}" for cr in crossings)


def _build_strip(crossings):
    n = len(crossings)
    if n < 1:
        raise ValueError("a strip needs at least one crossing")
    crossings = tuple(crossings)
    other = [-1] * (4 * n)
    # line ends: left ends of heights 0..2, then right ends; each holds
    # the port next to it on its line, None while the line is empty
    end = [None] * 6
    for ci, cr in enumerate(crossings):
        lo = cr.lower
        if lo not in (0, 1):
            raise ValueError(f"crossing {ci}: lower height must be 0 or 1, got {lo}")
        # the west corners, sw on the lower line and nw on the upper, join
        # the east corners the lines' previous crossings left open, and
        # this crossing's east corners, se and ne, are left open in turn
        sw, nw = 4 * ci + 3, 4 * ci
        east = end[3 + lo]
        if east is None:
            end[lo] = sw
        else:
            other[east], other[sw] = sw, east
        east = end[4 + lo]
        if east is None:
            end[lo + 1] = nw
        else:
            other[east], other[nw] = nw, east
        end[3 + lo], end[4 + lo] = sw - 1, nw + 1

    if n % 2 == 1:  # right cap on heights 1-2, long arc from right height 0
        pairs = ((1, 2), (4, 5), (3, 0))
    else:           # right cap on heights 0-1, long arc from right height 2
        pairs = ((1, 2), (3, 4), (5, 0))
    cap = [0] * 6
    for a, b in pairs:
        cap[a], cap[b] = b, a
    on_strands = set()

    def beyond(b):
        # the port reached from line end b across its closure arc; an
        # empty line leads on to its other end, so a strand crosses at
        # most three closure arcs
        for _ in range(3):
            on_strands.update((b, cap[b]))
            b = cap[b]
            if end[b] is not None:
                return end[b]
            b = (b + 3) % 6
        raise InvariantError("boundary walk reaches a port", _where(crossings),
                             "at most 3 closure arcs", "more")

    for b, p in enumerate(end):
        if p is not None and other[p] < 0:
            q = beyond(b)
            other[p], other[q] = q, p
    if -1 in other:
        raise InvariantError("every port on one edge", _where(crossings),
                             "no unlinked port", other.index(-1))
    if len(on_strands) != 6:
        raise InvariantError("strip left portless cycles behind", _where(crossings),
                             "6 boundary nodes on strands", len(on_strands))
    # enter at left height 0 along the strip, not along the long arc
    return PlanarDiagram(crossings, tuple(other), beyond(3) if end[0] is None else end[0])


_S1 = Crossing(lower=0, over="/")
_S2_INV = Crossing(lower=1, over="\\")
# a billiard letter's crossing at an odd (1-based) position, then at an even one
_BILLIARD = {"+": (_S1, Crossing(lower=1, over="/")),
             "-": (Crossing(lower=0, over="\\"), _S2_INV)}


# check reaches lengths 1..40 and no CLI command builds a billiard
# diagram; past 64 lengths the least recently used one is dropped
_CACHED_LENGTHS = 64


@lru_cache(maxsize=_CACHED_LENGTHS)
def _billiard_strip(n):
    # the diagram of the all-+ word, whose wiring (other, start) every
    # billiard word of length n shares: the lower heights alternate 0, 1,
    # ... whatever the letters, and over takes no part in the build
    return _build_strip([_BILLIARD["+"][i % 2] for i in range(n)])


def billiard_pd(word, allow_link=False):
    """Planar diagram of a billiard word: crossing i (1-based) sits at
    heights (0,1) for odd i and (1,2) for even i; letter + puts the
    rising diagonal on top, letter - the falling one.

    Lengths 2 mod 3 close into 2-component links and are rejected unless
    allow_link is set (the orientation pass then reports the count).
    The strip is built once per length while it stays in the cache.
    """
    n = len(word)
    if n % 3 == 2 and not allow_link:
        raise ValueError(f"length {n} is 2 mod 3: closure is a 2-component link")
    if not only_signs(word):
        rest = word.lstrip("+-")
        raise ValueError(f"invalid letter {rest[0]!r} at position {len(word) - len(rest)}")
    crossings = [_BILLIARD[ch][i % 2] for i, ch in enumerate(word)]
    template = _billiard_strip(n)
    return PlanarDiagram(tuple(crossings), template.other, template.start)


def alternating_pd(generators):
    """Planar diagram of an alternating plat from its generator list
    (diagram.generators): s1 at heights (0,1), rising diagonal over
    (positive); s2^-1 at (1,2), falling diagonal over (negative).

    >>> goeritz_determinant(alternating_pd(["s1", "s1", "s1"]))  # +--+
    3
    """
    return _build_strip([_S1 if g == SIGMA1 else _S2_INV for g in generators])


class OrientedDiagram(NamedTuple):
    """A PlanarDiagram plus the direction of one full traversal:
    state[p] is 1 where the strand enters a crossing, 2 where it leaves."""
    pd: PlanarDiagram
    state: bytes


def _trace(pd, p, state):
    # walk one component from port p, taken as entering its crossing
    other = pd.other
    start = p
    while True:
        state[p] = 1
        state[p ^ 2] = 2
        p = other[p ^ 2]
        if p == start:
            return
        if state[p]:
            raise InvariantError("strand traversal closes up", _where(pd.crossings),
                                 f"back at port {start}", f"port {p} again")


def orient(pd):
    """Direct the diagram by traversing from the long strand's entry.

    Raises MultiComponent when the traversal does not cover everything.
    """
    state = bytearray(len(pd.other))
    _trace(pd, pd.start, state)
    k = 1
    p = state.find(0)
    while p >= 0:
        _trace(pd, p, state)
        k += 1
        p = state.find(0, p)
    if k > 1:
        raise MultiComponent("one component", _where(pd.crossings), 1, k)
    return OrientedDiagram(pd, bytes(state))


def classify_orientations(od):
    """V/H at every crossing: V when the two strands run in opposite
    horizontal directions (equivalently both up or both down), H when
    they agree.  A strand runs east when it enters at a west corner, so
    H means nw (on nw-se) and sw (on sw-ne) are both entries or both
    exits.
    """
    s = od.state
    return [H if s[p] == s[p + 3] else V for p in range(0, len(s), 4)]


def trace_seifert_circles(od):
    """Smooth every crossing respecting orientation and count the loops.

    H joins nw-ne and sw-se (port p to p ^ 1), V joins nw-sw and ne-se
    (p to p ^ 3); every port then lies on one edge and one smoothing arc,
    so the loops are the cycles that alternate the two.
    """
    other = od.pd.other
    flip = [1 if sm == H else 3 for sm in classify_orientations(od)]
    seen = bytearray(len(other))
    loops = 0
    for p in range(len(other)):
        if seen[p]:
            continue
        loops += 1
        while not seen[p]:
            q = other[p]
            seen[p] = seen[q] = 1
            p = q ^ flip[q >> 2]
    return loops


def _faces(pd):
    """Trace and colour the faces in one pass: face[a] is the face of
    quadrant a and color[f] the colour, 0 or 1, of face f.  Face 0 has
    colour 0 and holds the start port's quadrant, left of the long
    strand's entry dart.
    """
    other = pd.other
    entry = other[pd.start]
    if other[entry] != pd.start:
        raise InvariantError("entry dart ends at the start port", _where(pd.crossings),
                             pd.start, other[entry])
    face = [-1] * len(other)
    color = []
    queue = [(pd.start, 0)]  # (quadrant, the colour its face must have)
    while queue:
        a, c = queue.pop()
        f = face[a]
        if f < 0:
            first, f = a, len(color)
            color.append(c)
            while face[a] < 0:
                face[a] = f
                q = (a & ~3) | ((a + 1) & 3)
                queue.append((q, 1 - c))
                a = other[q]
            if a != first:
                raise InvariantError("each quadrant in one face", _where(pd.crossings),
                                     f"quadrant {a} unvisited", f"in face {face[a]}")
        elif color[f] != c:
            raise InvariantError("checkerboard colouring", _where(pd.crossings),
                                 f"quadrant {a} in a face of colour {c}",
                                 f"face {f} of colour {color[f]}")
    if -1 in face:
        raise InvariantError("connected face graph", _where(pd.crossings),
                             "every quadrant in a face", f"quadrant {face.index(-1)} in none")
    if len(color) != pd.n + 2:
        raise InvariantError("face count n + 2", _where(pd.crossings), pd.n + 2, len(color))
    return face, color


def _goeritz_layout(pd):
    """The Goeritz matrix of pd but for the signs, which alone read the
    over flags: the white face count (white avoids the face left of the
    long strand's entry) and, per crossing between two white faces,
    (crossing, their rows in order, +1 if its N and S quadrants are
    shaded else -1).  Row 0 is the first white face traced, the hub; the
    others are numbered as the crossings first meet them, west before
    east or north before south.  _faces has checked the colours: N and S
    share one, E and W the other."""
    face, color = _faces(pd)
    white = 1 - color[0]
    row = {color.index(white): 0}
    cells = []
    for ci in range(pd.n):
        f_n, f_e, f_s, f_w = face[4 * ci:4 * ci + 4]
        shaded_ns = color[f_n] != white
        fa, fb = (f_w, f_e) if shaded_ns else (f_n, f_s)
        ia, ib = row.setdefault(fa, len(row)), row.setdefault(fb, len(row))
        if ia != ib:
            cells.append((ci, min(ia, ib), max(ia, ib), 1 if shaded_ns else -1))
    return len(row), tuple(cells)


def _signed_det(k, cells, crossings):
    # eta = +1 where the rising diagonal is over just when N and S are
    # shaded; either color class and either sign convention give one |det|.
    # Without the hub's row and column the matrix is tridiagonal, diagonal
    # d and off-diagonal e (the hub's d[0] and e[0] drop out): |det| is the
    # continuant D_i = d_i D_(i-1) - e_(i-1)^2 D_(i-2), D_0 = 1, D_-1 = 0
    d, e = [0] * k, [0] * k
    for ci, ia, ib, shade in cells:
        if ia and ib != ia + 1:
            raise InvariantError("tridiagonal Goeritz minor", _where(crossings),
                                 f"rows {ia} and {ia + 1}", f"rows {ia} and {ib}")
        eta = shade if crossings[ci].over == "/" else -shade
        d[ia] += eta
        d[ib] += eta
        e[ia] -= eta
    det, prev = 1, 0
    for i in range(1, k):
        det, prev = d[i] * det - e[i - 1] ** 2 * prev, det
    return abs(det)


def goeritz_determinant(pd):
    """Knot determinant as |det| of a Goeritz matrix of pd's own faces."""
    return _signed_det(*_goeritz_layout(pd), pd.crossings)


@lru_cache(maxsize=_CACHED_LENGTHS)
def _billiard_layout(n):
    # every billiard word of length n shares its faces, as it does its wiring
    return _goeritz_layout(_billiard_strip(n))


def billiard_determinant(word):
    """goeritz_determinant(billiard_pd(word)), faces traced once per length."""
    pd = billiard_pd(word)
    return _signed_det(*_billiard_layout(pd.n), pd.crossings)
