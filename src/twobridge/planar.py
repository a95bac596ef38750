"""Honest planar diagrams: the slow, independent route to every quantity.

The fast modules never draw anything; they read counts straight off run
arithmetic.  This module builds actual planar diagrams for the same
knots, as 3-strand strips with explicit closure arcs, and recomputes
everything by graph traversal: component count, orientations, Seifert
circles by smoothing, and the knot determinant via a checkerboard
Goeritz matrix.  Nothing here consults the shortcut formulas, so
agreement between the two routes genuinely checks both.

Strip layout: crossings sit left to right, spanning heights 0..2 (three
strands).  A crossing at heights (lo, lo+1) has four ports named by
compass corners: nw, ne at height lo+1 and sw, se at height lo.  The two
strands through a crossing run along the diagonals sw-ne and nw-se; the
over flag records which diagonal passes over ("/" for sw-ne, "\\" for
nw-se).  Horizontal connectors join ports along each height line around
the crossings.  Closure: a cap joins heights 1 and 2 at the left and the
long strand enters at left height 0; on the right a cap joins heights
1-2 when the crossing count is odd (long strand exits at height 0) and
heights 0-1 when it is even (exit at height 2); one long arc closes exit
back to entry.
"""

from dataclasses import dataclass

from .diagram import H, SIGMA1, V

_CORNERS = ("nw", "ne", "se", "sw")           # clockwise as drawn
_CW = {"nw": "ne", "ne": "se", "se": "sw", "sw": "nw"}
_QUADRANT = {("nw", "ne"): "N", ("ne", "se"): "E",
             ("se", "sw"): "S", ("sw", "nw"): "W"}
_DIAG = {"sw": "ne", "ne": "sw", "nw": "se", "se": "nw"}
_DIAG_NAME = {"sw": "sw-ne", "ne": "sw-ne", "nw": "nw-se", "se": "nw-se"}
_EAST = {"ne", "se"}


class MultiComponent(ValueError):
    """Traversal found k > 1 closed components where a knot was expected."""

    def __init__(self, k):
        super().__init__(f"diagram closes into {k} components, not a knot")
        self.k = k


@dataclass(frozen=True)
class Crossing:
    lower: int   # height of the lower strand, 0 or 1
    over: str    # "/" if the sw-ne diagonal is over, "\\" if nw-se is


def _is_port(node):
    return isinstance(node[0], int)


class PlanarDiagram:
    """4-valent plane graph of one closed strip.

    edges[i] = (port_a, port_b, path): path is the full node sequence the
    edge runs through, boundary connectors included.  start_port is the
    first crossing port the long strand meets entering at left height 0;
    entry_dart is the directed long-arc edge pointing at it.
    """

    def __init__(self, crossings, edges, start_port, entry_edge):
        self.crossings = tuple(crossings)
        self.edges = tuple(edges)
        self.start_port = start_port
        self.entry_edge = entry_edge
        self.port_end = {}
        for ei, (a, b, _) in enumerate(self.edges):
            self.port_end[a] = (ei, 0)
            self.port_end[b] = (ei, 1)

    @property
    def n(self):
        return len(self.crossings)

    def other_end(self, port):
        ei, end = self.port_end[port]
        a, b, _ = self.edges[ei]
        return b if end == 0 else a

    def ports(self):
        return [(ci, corner) for ci in range(self.n) for corner in _CORNERS]


def _build_strip(crossings):
    n = len(crossings)
    if n < 1:
        raise ValueError("a strip needs at least one crossing")

    segments = []
    for h in range(3):
        stops = []
        for ci, cr in enumerate(crossings):
            if cr.lower == h:
                stops.append(((ci, "sw"), (ci, "se")))
            elif cr.lower + 1 == h:
                stops.append(((ci, "nw"), (ci, "ne")))
        prev = ("L", h)
        for west, east in stops:
            segments.append((prev, west))
            prev = east
        segments.append((prev, ("R", h)))

    segments.append((("L", 1), ("L", 2)))
    if n % 2 == 1:
        segments.append((("R", 1), ("R", 2)))
        exit_h = 0
    else:
        segments.append((("R", 0), ("R", 1)))
        exit_h = 2
    segments.append((("R", exit_h), ("L", 0)))

    adj = {}
    for si, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append((si, b))
        adj.setdefault(b, []).append((si, a))
    for node, nbrs in adj.items():
        assert len(nbrs) == (1 if _is_port(node) else 2), (node, nbrs)

    def walk(seg, node):
        # follow the strand through degree-2 boundary nodes until a port
        path = []
        segs = [seg]
        while not _is_port(node):
            path.append(node)
            seg, node = next((s, m) for s, m in adj[node] if s != seg)
            segs.append(seg)
        return path, node, segs

    edges = []
    seen_ports = {}
    used = set()
    for ci in range(n):
        for corner in _CORNERS:
            p = (ci, corner)
            if p in seen_ports:
                continue
            si, node = adj[p][0]
            mid, q, segs = walk(si, node)
            edges.append((p, q, (p, *mid, q)))
            seen_ports[p] = seen_ports[q] = len(edges) - 1
            used.update(segs)
    assert len(used) == len(segments), "strip left portless cycles behind"

    # enter at left height 0 along the strip, not along the long arc,
    # which is always the last segment built
    long_si = len(segments) - 1
    si, node = next((s, m) for s, m in adj[("L", 0)] if s != long_si)
    _, start_port, _ = walk(si, node)
    entry_edge = seen_ports[start_port]
    return PlanarDiagram(crossings, edges, start_port, entry_edge)


def billiard_pd(word, allow_link=False):
    """Planar diagram of a billiard word: crossing i (1-based) sits at
    heights (0,1) for odd i and (1,2) for even i; letter + puts the
    rising diagonal on top, letter - the falling one.

    Lengths 2 mod 3 close into 2-component links and are rejected unless
    allow_link is set (the orientation pass then reports the count).
    """
    n = len(word)
    if n < 1:
        raise ValueError("empty word has no diagram")
    if n % 3 == 2 and not allow_link:
        raise ValueError(f"length {n} is 2 mod 3: closure is a 2-component link")
    crossings = []
    for i, ch in enumerate(word):
        if ch not in "+-":
            raise ValueError(f"invalid letter {ch!r} at position {i}")
        crossings.append(Crossing(lower=i % 2, over="/" if ch == "+" else "\\"))
    return _build_strip(crossings)


def alternating_pd(records):
    """Planar diagram of an alternating plat from its per-crossing records
    (diagram.full_diagram), reading only each record's generator: s1
    crossings at heights (0,1) with the rising diagonal over (positive),
    s2^-1 at (1,2) with the falling diagonal over (negative).
    """
    crossings = []
    for x in records:
        if x.generator == SIGMA1:
            crossings.append(Crossing(lower=0, over="/"))
        else:
            crossings.append(Crossing(lower=1, over="\\"))
    return _build_strip(crossings)


class OrientedDiagram:
    """A PlanarDiagram plus the direction data of one full traversal."""

    def __init__(self, pd, diag_dirs):
        self.pd = pd
        self.diag_dirs = diag_dirs  # (crossing, diagonal name) -> +1 east / -1 west


def _trace(pd, first_in):
    ports = []
    diag_dirs = {}
    cur = first_in
    while True:
        ci, corner = cur
        out = (ci, _DIAG[corner])
        ports.append(cur)
        ports.append(out)
        diag_dirs[(ci, _DIAG_NAME[corner])] = 1 if out[1] in _EAST else -1
        cur = pd.other_end(out)
        if cur == first_in:
            return ports, diag_dirs


def orient(pd):
    """Direct the diagram by traversing from the long strand's entry.

    Raises MultiComponent when the traversal does not cover everything.
    """
    ports, diag_dirs = _trace(pd, pd.start_port)
    remaining = set(pd.ports()) - set(ports)
    if remaining:
        k = 1
        while remaining:
            extra, _ = _trace(pd, min(remaining))
            remaining -= set(extra)
            k += 1
        raise MultiComponent(k)
    return OrientedDiagram(pd, diag_dirs)


def classify_orientations(od):
    """V/H at every crossing: V when the two strands run in opposite
    horizontal directions (equivalently both up or both down), H when
    they agree.
    """
    out = []
    for ci in range(od.pd.n):
        same = od.diag_dirs[(ci, "sw-ne")] == od.diag_dirs[(ci, "nw-se")]
        out.append(H if same else V)
    return out


def trace_seifert_circles(od):
    """Smooth every crossing respecting orientation and count the loops."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a, b, _ in od.pd.edges:
        union(a, b)
    for ci, sm in enumerate(classify_orientations(od)):
        if sm == H:
            union((ci, "nw"), (ci, "ne"))
            union((ci, "sw"), (ci, "se"))
        else:
            union((ci, "nw"), (ci, "sw"))
            union((ci, "ne"), (ci, "se"))
    return len({find(p) for p in od.pd.ports()})


def _faces(pd):
    """Orbit the darts into faces; also map every crossing quadrant to its
    face.  Darts are (edge id, direction); direction 0 runs a -> b.
    """
    def head(dart):
        ei, d = dart
        a, b, _ = pd.edges[ei]
        return b if d == 0 else a

    def leaving(port):
        ei, end = pd.port_end[port]
        return (ei, 0) if end == 0 else (ei, 1)

    entry_dart = None
    ei = pd.entry_edge
    for d in (0, 1):
        if head((ei, d)) == pd.start_port:
            entry_dart = (ei, d)
    assert entry_dart is not None

    all_darts = [entry_dart]
    all_darts += [(e, d) for e in range(len(pd.edges)) for d in (0, 1)
                  if (e, d) != entry_dart]
    face_of_dart = {}
    quadrant_face = {}
    faces = 0
    for start in all_darts:
        if start in face_of_dart:
            continue
        fid = faces
        faces += 1
        dart = start
        while True:
            face_of_dart[dart] = fid
            ci, corner = head(dart)
            q = _CW[corner]
            key = (ci, _QUADRANT[(corner, q)])
            assert key not in quadrant_face
            quadrant_face[key] = fid
            dart = leaving((ci, q))
            if dart == start:
                break
    assert faces == pd.n + 2, (faces, pd.n)
    return faces, face_of_dart, quadrant_face, entry_dart


def _checkerboard(pd, faces, face_of_dart):
    """2-color the faces so adjacent faces across every edge differ."""
    color = {0: 0}
    queue = [0]
    neighbors = {f: set() for f in range(faces)}
    for ei in range(len(pd.edges)):
        f0 = face_of_dart[(ei, 0)]
        f1 = face_of_dart[(ei, 1)]
        assert f0 != f1, "edge bounded by one face; not a knot projection"
        neighbors[f0].add(f1)
        neighbors[f1].add(f0)
    while queue:
        f = queue.pop()
        for g in neighbors[f]:
            if g in color:
                assert color[g] != color[f], "faces are not checkerboard-colorable"
            else:
                color[g] = 1 - color[f]
                queue.append(g)
    assert len(color) == faces, "disconnected face graph"
    return color


def _int_det(m):
    # Bareiss fraction-free elimination: exact integer determinant
    a = [row[:] for row in m]
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def goeritz_determinant(pd):
    """Knot determinant as |det| of a Goeritz matrix.

    Faces are traced from the crossing rotations, checkerboard-colored,
    and the white class is the one avoiding the face left of the long
    strand's entry.  Each crossing contributes its sign to the pair of
    white faces at its opposite corners; either color class and either
    global sign convention give the same absolute determinant.
    """
    faces, face_of_dart, quadrant_face, entry_dart = _faces(pd)
    color = _checkerboard(pd, faces, face_of_dart)
    white = 1 - color[face_of_dart[entry_dart]]

    white_faces = sorted(f for f in range(faces) if color[f] == white)
    index = {f: i for i, f in enumerate(white_faces)}
    k = len(white_faces)
    g = [[0] * k for _ in range(k)]
    for ci, cr in enumerate(pd.crossings):
        f_n = quadrant_face[(ci, "N")]
        f_s = quadrant_face[(ci, "S")]
        f_e = quadrant_face[(ci, "E")]
        f_w = quadrant_face[(ci, "W")]
        assert color[f_n] == color[f_s] and color[f_e] == color[f_w]
        assert color[f_n] != color[f_e]
        shaded_ns = color[f_n] != white
        eta = 1 if (cr.over == "/") == shaded_ns else -1
        fa, fb = ((f_e, f_w) if shaded_ns else (f_n, f_s))
        if fa != fb:
            ia, ib = index[fa], index[fb]
            g[ia][ib] -= eta
            g[ib][ia] -= eta
    for i in range(k):
        g[i][i] = -sum(g[i][j] for j in range(k) if j != i)
    minor = [row[:-1] for row in g[:-1]]
    return abs(_int_det(minor))

