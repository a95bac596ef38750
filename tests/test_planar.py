"""Planar diagram oracle: strip construction, orientation, Seifert
tracing, Goeritz determinants.  Everything here is independent of the
smoothing shortcut, which is what makes the agreement tests meaningful."""

import functools
import hashlib
import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from twobridge import crosscheck, diagram, planar, words


def generators(word):
    return diagram.generators(words.normalize_to_model(word).run_word)


def model_words(c_lo, c_hi):
    for c in range(c_lo, c_hi + 1):
        yield from words.enumerate_model_words(c)


# ------------------------------------------------------------ strip build

def test_single_kink_is_unknot():
    pd = planar.billiard_pd("+")
    assert pd.n == 1
    od = planar.orient(pd)
    assert planar.classify_orientations(od) == ["H"]
    assert planar.trace_seifert_circles(od) == 2
    assert planar.goeritz_determinant(pd) == 1


def test_billiard_rejects_bad_words():
    with pytest.raises(ValueError):
        planar.billiard_pd("")
    with pytest.raises(ValueError):
        planar.billiard_pd("+a")
    with pytest.raises(ValueError):
        planar.billiard_pd("+-")  # closes to a link unless allowed


def test_link_closure_has_two_components():
    pd = planar.billiard_pd("+-", allow_link=True)
    with pytest.raises(planar.MultiComponent) as exc:
        planar.orient(pd)
    assert isinstance(exc.value, words.InvariantError)
    assert str(exc.value) == "one component at strip 0/ 1\\: expected 1, got 2"
    assert exc.value.actual == 2
    pd = planar.billiard_pd("+-+-+", allow_link=True)
    with pytest.raises(planar.MultiComponent):
        planar.orient(pd)


def test_ports_pair_up_into_edges():
    # other is a fixed-point-free involution on the 4n ports, and the long
    # strand enters at a crossing at heights 0-1 through its sw corner
    for n in range(1, 9):
        for t in itertools.product("+-", repeat=n):
            pd = planar.billiard_pd("".join(t), allow_link=True)
            assert sorted(pd.other) == list(range(4 * n))
            assert all(pd.other[q] == p != q for p, q in enumerate(pd.other))
            assert pd.start % 4 == 3 and pd.crossings[pd.start // 4].lower == 0


# n crossings all at heights 1-2: for odd n the right cap joins heights 1-2
# and the long arc meets the empty height-0 line at both ends, a closed
# loop through no crossing; python -O must not switch that check off
_ALL_UPPER = """
from twobridge import planar, words
for n in range(1, 12, 2):
    try:
        planar._build_strip([planar.Crossing(lower=1, over="\\\\")] * n)
    except words.InvariantError as e:
        print(e.name, e.expected, e.actual, sep=" / ")
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_all_upper_odd_strips_raise_named_error(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _ALL_UPPER],
                          capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    line = "strip left portless cycles behind / 6 boundary nodes on strands / 4"
    assert proc.stdout.splitlines() == [line] * 6


def test_all_upper_even_strips_build():
    # the empty height-0 line lies on the strand through both caps
    for n in range(2, 13, 2):
        pd = planar._build_strip([planar.Crossing(lower=1, over="\\")] * n)
        assert sorted(pd.other) == list(range(4 * n))


def test_every_strip_up_to_12_crossings_pinned():
    # the partner array and start port, or the named error, of all 8,190
    # strips; over does not take part in the build.  Pinned from the
    # builder that kept six virtual boundary nodes among the ports.
    rows = []
    for n in range(1, 13):
        for los in itertools.product((0, 1), repeat=n):
            try:
                pd = planar._build_strip([planar.Crossing(lower=lo, over="/") for lo in los])
            except words.InvariantError as e:
                rows.append((los, e.name, e.expected, e.actual))
            else:
                rows.append((los, list(pd.other), pd.start))
    assert len(rows) == 8190
    assert (hashlib.sha256(repr(rows).encode()).hexdigest()
            == "6074f93e3c4a22a2b2890ca342909afc14253e09ec7da34533e0c8758eee7e55")


def test_closures_are_knots_when_length_allows():
    for n in (1, 3, 4, 6, 7, 9, 10):
        for _ in range(5):
            w = "".join(random.Random(n * 100 + _).choice("+-") for _ in range(n))
            planar.orient(planar.billiard_pd(w))  # must not raise


# ------------------------------------------------------ billiard strip reuse

def test_billiard_pd_equals_a_fresh_build_of_its_crossings():
    # every word of 1..12 letters shares its length's cached wiring, yet
    # matches a strip built from its own crossings
    letter = {"+": (planar.Crossing(0, "/"), planar.Crossing(1, "/")),
              "-": (planar.Crossing(0, "\\"), planar.Crossing(1, "\\"))}
    count = 0
    for n in range(1, 13):
        for t in itertools.product("+-", repeat=n):
            pd = planar.billiard_pd("".join(t), allow_link=True)
            fresh = planar._build_strip([letter[ch][i % 2] for i, ch in enumerate(t)])
            assert pd == fresh and type(pd.other) is tuple, t
            count += 1
    assert count == 8190


def test_billiard_words_of_one_length_share_one_read_only_other():
    for n in (3, 64):
        first, again = planar.billiard_pd("+" * n), planar.billiard_pd("-" * n)
        assert again.other is first.other and again != first
        with pytest.raises(TypeError):
            first.other[0] = 99
        assert again == planar._build_strip(again.crossings)


def test_billiard_strip_cache_holds_64_lengths():
    # every length goes through the cache, which keeps the 64 most recent
    planar._billiard_strip.cache_clear()
    for n in range(1, 200):
        w = "+-" * (n // 2) + "-" * (n % 2)
        pd = planar.billiard_pd(w, allow_link=True)
        if n in (41, 64, 65, 199):
            assert pd == planar._build_strip(pd.crossings), n
    info = planar._billiard_strip.cache_info()
    assert info.maxsize == info.currsize == 64 and info.misses == 199


@pytest.fixture
def strip_builds(monkeypatch):
    """The crossing count of every _build_strip call, with both billiard
    caches cleared before and after so no strip or layout outlives the
    patch."""
    builds = []
    real = planar._build_strip

    def counting(crossings):
        builds.append(len(crossings))
        return real(crossings)

    clear_billiard_caches()
    monkeypatch.setattr(planar, "_build_strip", counting)
    yield builds
    clear_billiard_caches()


def clear_billiard_caches():
    for f in vars(planar).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def test_billiard_pd_builds_each_length_once(strip_builds):
    for t in itertools.product("+-", repeat=7):
        planar.billiard_pd("".join(t))
    planar.billiard_pd("+-+")
    planar.billiard_pd("-+-")
    assert strip_builds == [7, 3]


def test_billiard_pd_checks_its_word_before_the_cache(strip_builds):
    for word, message in [("", "a strip needs at least one crossing"),
                          ("+a+", "invalid letter 'a' at position 1"),
                          ("+-", "length 2 is 2 mod 3: closure is a 2-component link")]:
        with pytest.raises(ValueError, match=message):
            planar.billiard_pd(word)
    assert strip_builds == [0]


# ----------------------------------------------------- Goeritz layout reuse

def test_billiard_determinant_equals_goeritz_of_a_fresh_strip():
    # every knot word of 1..12 letters reads its length's cached faces,
    # yet gets the determinant of a strip built from its own crossings
    count = 0
    for n in range(1, 13):
        if n % 3 == 2:
            continue
        for t in itertools.product("+-", repeat=n):
            w = "".join(t)
            fresh = planar._build_strip(planar.billiard_pd(w).crossings)
            assert planar.billiard_determinant(w) == planar.goeritz_determinant(fresh), w
            count += 1
    assert count == 5850


def test_billiard_layout_cache_holds_64_lengths():
    clear_billiard_caches()
    for n in range(1, 101):
        if n % 3 == 2:
            continue
        w = "+-" * (n // 2) + "-" * (n % 2)
        det = planar.billiard_determinant(w)
        if n in (1, 64, 67, 100):
            fresh = planar._build_strip(planar.billiard_pd(w).crossings)
            assert det == planar.goeritz_determinant(fresh), n
    info = planar._billiard_layout.cache_info()
    assert info.maxsize == info.currsize == 64
    assert info.misses == 67  # the knot lengths up to 100


def test_orientation_patterns_orient_each_length_once(monkeypatch):
    # 1,350 drawn words, each built and compared, hold 27 wirings: the
    # lengths 1..40 that are not 2 mod 3
    oriented = []
    real = planar.orient

    def counting(pd):
        oriented.append(pd.n)
        return real(pd)

    clear_billiard_caches()
    monkeypatch.setattr(planar, "orient", counting)
    try:
        assert crosscheck.check_orientation_patterns() == 1350
    finally:
        clear_billiard_caches()
    assert oriented == [n for n in range(1, 41) if n % 3 != 2]


def test_orientation_patterns_classify_each_wiring_once(monkeypatch):
    # the classification reads the oriented wiring alone, so the 1,350
    # drawn words on 27 wirings make 27 classify_orientations calls
    classified = []
    real = planar.classify_orientations

    def counting(od):
        classified.append(od.pd.n)
        return real(od)

    clear_billiard_caches()
    monkeypatch.setattr(planar, "classify_orientations", counting)
    try:
        assert crosscheck.check_orientation_patterns() == 1350
    finally:
        clear_billiard_caches()
    assert classified == [n for n in range(1, 41) if n % 3 != 2]


def test_orientation_patterns_name_the_first_word_of_a_wrong_length(monkeypatch):
    # a wrong pattern at length 4 fails on that length's first drawn word
    real = planar.classify_orientations
    monkeypatch.setattr(planar, "classify_orientations",
                        lambda od: [diagram.V] * 4 if od.pd.n == 4 else real(od))
    rng = random.Random(2026)
    for n in (1, 3):  # the check draws 50 words of each length in turn
        words.draw_letters(rng, 50 * n)
    first = words.draw_letters(rng, 50 * 4)[:4]
    with pytest.raises(words.InvariantError) as e:
        crosscheck.check_orientation_patterns()
    assert str(e.value) == (f"billiard orientation pattern at word {first}: "
                            "expected HVVH, got VVVV")


def test_orientation_patterns_trace_every_word_off_the_shared_wiring(monkeypatch):
    # a word whose diagram holds a wiring of its own is traced afresh, so
    # 1,350 drawn words on 1,350 wirings make 1,350 orient calls
    oriented = []
    real_pd, real_orient = planar.billiard_pd, planar.orient

    def fresh(word):
        pd = real_pd(word)
        return pd._replace(other=tuple(list(pd.other)))

    def counting(pd):
        oriented.append(pd.n)
        return real_orient(pd)

    monkeypatch.setattr(planar, "billiard_pd", fresh)
    monkeypatch.setattr(planar, "orient", counting)
    assert crosscheck.check_orientation_patterns() == 1350
    assert len(oriented) == 1350


def test_orientation_patterns_name_the_drawn_words_strip(monkeypatch):
    # the strands are traced on the first drawn word's own diagram, so a
    # failure names its strip, here at length 4, and nothing retries
    traced = []
    real = planar._trace

    def closes_early(pd, p, state):
        traced.append(pd.n)
        if pd.n == 4:
            raise words.InvariantError("strand traversal closes up",
                                       planar._where(pd.crossings), "planted", "fault")
        return real(pd, p, state)

    monkeypatch.setattr(planar, "_trace", closes_early)
    with pytest.raises(words.InvariantError, match=r"at strip 0/ 1/ 0\\ 1/:"):
        crosscheck.check_orientation_patterns()
    assert traced == [1, 3, 4]


def test_billiard_determinant_checks_its_word(strip_builds):
    for word, message in [("", "a strip needs at least one crossing"),
                          ("+a+", "invalid letter 'a' at position 1"),
                          ("+-", "length 2 is 2 mod 3: closure is a 2-component link")]:
        with pytest.raises(ValueError, match=message):
            planar.billiard_determinant(word)
    assert strip_builds == [0]
    assert planar._billiard_layout.cache_info().currsize == 0


def test_run_all_traces_each_billiard_length_once(monkeypatch):
    # check 11 traces the faces of its 341 alternating diagrams and of the
    # 6 billiard lengths its words have, not of 341 billiard diagrams
    traced = []
    real = planar._faces

    def counting(pd):
        traced.append(pd.n)
        return real(pd)

    clear_billiard_caches()
    monkeypatch.setattr(planar, "_faces", counting)
    try:
        results, ok = crosscheck.run_all(11)
    finally:
        clear_billiard_caches()
    assert ok and results[3] == ("determinant equality", 341, None)
    lengths = {len(words.from_runs(r)) for c in range(3, 12)
               for r in words.enumerate_model_words(c)}
    assert len(lengths) == 6 and len(traced) == 341 + 6


# the face pass reads a wrong wiring of every diagram: crossing 0's nw and
# ne edges trade far ends (twisted) or nw's edge ends where ne's does
# (redirected).  Both the alternating and the cached billiard route must
# raise the pass's named error, under python -O too, and the cache must
# not keep the failed layout
_PLANTED_LAYOUT = """
import sys
from twobridge import cli, planar, words
fault = sys.argv[1]
real = planar._faces

def faces(pd):
    other = list(pd.other)
    a, b = other[0], other[1]
    if fault == "twisted":
        other[0], other[1], other[a], other[b] = b, a, 1, 0
    else:
        other[0] = b
    return real(pd._replace(other=tuple(other)))

planar._faces = faces
for w in ("+-+", "-+-"):
    try:
        planar.billiard_determinant(w)
    except words.InvariantError as e:
        print(e.name)
print(planar._billiard_layout.cache_info().currsize)
sys.exit(cli.main(["check", "6"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
@pytest.mark.parametrize("fault, name", [
    ("twisted", "checkerboard colouring"),
    ("redirected", "each quadrant in one face")], ids=["twisted", "redirected"])
def test_check_fails_on_planted_layout_fault(flags, fault, name):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_LAYOUT, fault],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 1 and proc.stderr == "FAILED\n"
    lines = proc.stdout.splitlines()
    assert lines[:3] == [name, name, "0"]
    failed = [line for line in lines if ": FAIL (" in line]
    assert len(failed) == 1 and failed[0].startswith(
        f"determinant equality: FAIL (InvariantError: {name} at strip 0/ 0/ 0/: ")
    assert len(lines) == 10


# the builder rewires every strip (crossing 0's nw and ne edges trade far
# ends), so the cached billiard route must still go through it and fail:
# the rewired strip closes into two components, a named InvariantError
_PLANTED_STRIP = """
import sys
from twobridge import cli, planar
real = planar._build_strip

def rewired(crossings):
    pd = real(crossings)
    other = list(pd.other)
    a, b = other[0], other[1]
    if a != 1:
        other[0], other[a], other[1], other[b] = b, 1, a, 0
    return pd._replace(other=tuple(other))

planar._build_strip = rewired
sys.exit(cli.main(["check", "6"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_check_fails_on_planted_strip_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_STRIP],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 1 and proc.stderr == "FAILED\n"
    assert ("billiard orientation patterns: FAIL (MultiComponent: one component at "
            "strip 0/ 1\\ 0\\: expected 1, got 2)") in proc.stdout.splitlines()


# every alternating strip's crossing 0 trades the far ends of its two west
# corners, so the strands through it, both running east, close into two
# components: the oracle names the failure, and the billiard route is intact
_PLANTED_SPLIT = """
import sys
from twobridge import cli, planar
real = planar.alternating_pd

def split(generators):
    pd = real(generators)
    other = list(pd.other)
    a, b = other[0], other[3]
    other[0], other[b], other[3], other[a] = b, 0, a, 3
    return pd._replace(other=tuple(other))

planar.alternating_pd = split
sys.exit(cli.main(["check", "6"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_check_names_a_two_component_alternating_strip(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_SPLIT],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 1 and proc.stderr == "FAILED\n"
    lines = proc.stdout.splitlines()
    assert ("oracle circle counts and orientations: FAIL (MultiComponent: one component "
            "at strip 0/ 0/ 0/: expected 1, got 2)") in lines
    assert "billiard orientation patterns: 1350 checks" in lines


# ------------------------------------------------------------ orientation

def test_expected_pattern_construction():
    assert crosscheck.expected_pattern(1) == ["H"]
    assert crosscheck.expected_pattern(3) == ["V", "H", "V"]
    assert crosscheck.expected_pattern(4) == ["H", "V", "V", "H"]
    assert crosscheck.expected_pattern(7) == ["H", "V", "V", "H", "V", "V", "H"]
    with pytest.raises(ValueError):
        crosscheck.expected_pattern(5)


@pytest.mark.parametrize("n", [1, 3, 4, 6, 7])
def test_billiard_orientation_pattern_is_sign_independent(n):
    # exhaust all sign choices at small n: the H/V pattern of the
    # billiard closure depends only on the length
    want = crosscheck.expected_pattern(n)
    for t in itertools.product("+-", repeat=n):
        od = planar.orient(planar.billiard_pd("".join(t)))
        assert planar.classify_orientations(od) == want


def test_orientation_matches_smoothing_rule_on_model_words():
    for r in model_words(3, 8):
        d = diagram.full_diagram(r)
        od = planar.orient(planar.alternating_pd([x.generator for x in d]))
        assert planar.classify_orientations(od) == [x.smoothing for x in d]


# --------------------------------------------------------- Seifert circles

def test_traced_circles_match_viability_count():
    for r in model_words(3, 9):
        d = diagram.full_diagram(r)
        od = planar.orient(planar.alternating_pd([x.generator for x in d]))
        s = planar.trace_seifert_circles(od)
        assert s == 2 + sum(x.viable for x in d)
        a = diagram.analyze(r)
        assert s == a.s and a.s_lower <= s <= a.s_upper


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=300, max_value=3000), st.integers(min_value=0))
def test_kernel_matches_oracle_on_long_words(n, seed):
    # random long words reduce to model words with c in the hundreds
    rng = random.Random(seed)
    norm = words.normalize_to_model("".join(rng.choice("+-") for _ in range(n)))
    assume(norm.kind == words.MODEL)
    r = norm.run_word
    a = diagram.analyze(r)
    od = planar.orient(planar.alternating_pd(diagram.generators(r)))
    assert a.smoothings == "".join(planar.classify_orientations(od))
    assert a.s == planar.trace_seifert_circles(od)


def test_billiard_circle_count_is_sign_independent():
    # H/V classes and the edge graph of the billiard closure depend only
    # on the length, so the traced circle count does too
    for n in (6, 7):
        counts = {
            planar.trace_seifert_circles(planar.orient(planar.billiard_pd("".join(t))))
            for t in itertools.product("+-", repeat=n)
        }
        assert len(counts) == 1, (n, counts)
        assert counts.pop() >= 2


# ------------------------------------------------------------ determinant

@pytest.mark.parametrize("word,p", [(r[0], r[8]) for r in golden.ROWS_SMALL])
def test_goeritz_determinant_known_small_knots(word, p):
    assert planar.goeritz_determinant(planar.alternating_pd(generators(word))) == p
    assert planar.goeritz_determinant(planar.billiard_pd(word)) == p


def test_goeritz_determinant_equals_fraction_numerator():
    for r in model_words(3, 9):
        a = diagram.analyze(r)
        det_alt = planar.goeritz_determinant(planar.alternating_pd(diagram.generators(r)))
        det_bil = planar.goeritz_determinant(planar.billiard_pd(a.word))
        assert det_alt == det_bil == a.p, a.word


def test_determinant_of_unknot_closures():
    assert planar.goeritz_determinant(planar.billiard_pd("+++")) == 1
    assert planar.goeritz_determinant(planar.billiard_pd("++-+")) == 1


def bareiss_det(a):
    # Bareiss fraction-free elimination in place on the square matrix a
    size = len(a)
    sign = prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, size) if a[r][k]), None)
            if r is None:
                return 0
            a[k], a[r] = a[r], a[k]
            sign = -sign
        ak, akk = a[k], a[k][k]
        for ai in a[k + 1:]:
            aik = ai[k]
            for j in range(k + 1, size):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return sign * a[-1][-1] if a else 1


def dense_goeritz_det(pd):
    """The check route: the full Goeritz matrix over the white faces,
    read straight off the traced faces in face order, with no hub and no
    numbering along the strip, and dense Bareiss on the minor without the
    last face."""
    face, color = planar._faces(pd)
    white = 1 - color[0]
    rows = {f: i for i, f in enumerate(f for f, c in enumerate(color) if c == white)}
    g = [[0] * len(rows) for _ in rows]
    for ci, cr in enumerate(pd.crossings):
        f_n, f_e, f_s, f_w = face[4 * ci:4 * ci + 4]
        shaded_ns = color[f_n] != white
        fa, fb = (f_e, f_w) if shaded_ns else (f_n, f_s)
        if fa != fb:
            fa, fb = rows[fa], rows[fb]
            eta = (1 if shaded_ns else -1) * (1 if cr.over == "/" else -1)
            g[fa][fb] -= eta
            g[fb][fa] -= eta
            g[fa][fa] += eta
            g[fb][fb] += eta
    return abs(bareiss_det([row[:-1] for row in g[:-1]]))


@functools.lru_cache(maxsize=None)
def built_strips():
    # the 8,184 strips of at most 12 crossings that _build_strip builds,
    # each with its lower heights
    strips = []
    for n in range(1, 13):
        for los in itertools.product((0, 1), repeat=n):
            try:
                strips.append((los, planar._build_strip([planar.Crossing(lo, "/") for lo in los])))
            except words.InvariantError:
                continue
    return strips


def test_bareiss_reference_reads_known_determinants():
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 2], [3, 1]]) == -6
    assert bareiss_det([[2, 1, 1], [1, 3, 2], [1, 0, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_continuant_equals_dense_bareiss_on_every_strip_up_to_12_crossings():
    rng = random.Random(39)
    strips = built_strips()
    assert len(strips) == 8184
    for los, pd in strips:
        pd = pd._replace(crossings=tuple(planar.Crossing(lo, rng.choice("/\\")) for lo in los))
        assert planar.goeritz_determinant(pd) == dense_goeritz_det(pd), pd.crossings


def test_continuant_equals_dense_bareiss_on_billiard_words_up_to_length_12():
    count = 0
    for n in range(1, 13):
        for w in map("".join, itertools.product("+-", repeat=n)):
            pd = planar.billiard_pd(w, allow_link=True)
            det = dense_goeritz_det(pd)
            assert planar.goeritz_determinant(pd) == det, w
            if n % 3 != 2:
                assert planar.billiard_determinant(w) == det, w
            count += 1
    assert count == 8190


def test_goeritz_layout_is_a_hub_and_a_path():
    # every white face gets a row, row 0 is the first white face traced,
    # and every cell off row 0 joins two consecutive rows
    for los, pd in built_strips():
        face, color = planar._faces(pd)
        white = 1 - color[0]
        hub = color.index(white)
        k, cells = planar._goeritz_layout(pd)
        assert k == color.count(white), los
        for ci, ia, ib, _ in cells:
            quadrants = {face[4 * ci + q] for q in range(4)}
            assert (ia == 0) == (hub in quadrants), (los, ci)
            assert ia == 0 or ib == ia + 1, (los, ci, ia, ib)


# cells that join rows 1 and 3 are no tridiagonal minor: the continuant
# must name the fault, under python -O too, and not return a number
_PLANTED_CELLS = """
from twobridge import planar, words
crossings = planar.alternating_pd(["s1"] * 5).crossings
try:
    print(planar._signed_det(4, ((0, 0, 1, 1), (1, 1, 3, 1)), crossings))
except words.InvariantError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_signed_det_names_a_cell_off_the_tridiagonal(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_CELLS],
                          capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == ("tridiagonal Goeritz minor at strip 0/ 0/ 0/ 0/ 0/: "
                           "expected rows 1 and 2, got rows 1 and 3\n")


def test_oracle_reaches_long_sampled_words():
    # 60 model words with c from 795 to 1,052: the continuant is linear in
    # the rows, where dense elimination on minors of hundreds of rows of
    # big integers would not fit in tier-1
    count = 0
    for seed in range(4):
        for w in words.sample(3001, 15, seed):
            norm = words.normalize_to_model(w)
            assert norm.kind == words.MODEL, w
            r = norm.run_word
            a = diagram.analyze(r)
            assert len(r.runs) > 750
            det = planar.goeritz_determinant(planar.alternating_pd(diagram.generators(r)))
            assert det == planar.billiard_determinant(a.word) == a.p, a.word
            count += 1
    assert count == 60


def test_faces_colour_the_two_sides_of_every_edge_apart():
    # the one face pass leaves nothing to re-check: on every strip of at
    # most 12 crossings that builds, the sides of each edge are two faces
    # of two colours, and each crossing has N = S, E = W and N != E
    built = 0
    for n in range(1, 13):
        for los in itertools.product((0, 1), repeat=n):
            try:
                pd = planar._build_strip([planar.Crossing(lower=lo, over="/") for lo in los])
            except words.InvariantError:
                continue
            built += 1
            face, color = planar._faces(pd)
            for p, q in enumerate(pd.other):
                assert face[p] != face[q] and color[face[p]] != color[face[q]], (los, p)
            for ci in range(n):
                c_n, c_e, c_s, c_w = (color[f] for f in face[4 * ci:4 * ci + 4])
                assert c_n == c_s and c_e == c_w and c_n != c_e, (los, ci)
    assert built == 8184


# one entry of a built strip's other redirected, so other is no involution
@pytest.mark.parametrize("gens, other, start", [
    (["s1", "s1", "s1", "s2^-1", "s2^-1"],
     [12, 8, 7, 10, 1, 8, 11, 2, 5, 15, 3, 6, 0, 16, 19, 9, 13, 18, 17, 14], 17),
    (["s2^-1"] * 4 + ["s1", "s2^-1"],
     [3, 4, 7, 0, 1, 8, 11, 2, 5, 12, 9, 6, 9, 20, 16, 10, 14, 23, 22, 21, 13, 19, 18, 17], 19),
], ids=["five-crossings", "six-crossings"])
def test_broken_wiring_gets_a_named_error(gens, other, start):
    pd = planar.alternating_pd(gens)._replace(other=tuple(other), start=start)
    with pytest.raises(words.InvariantError, match="^each quadrant in one face at strip "):
        planar.goeritz_determinant(pd)


def test_every_redirected_edge_gets_a_named_error():
    # other[p] = q for q != other[p] leaves two ports ending at q, so some
    # face orbit meets a quadrant twice or misses one: never a number,
    # never a bare KeyError
    rng = random.Random(7)
    broken = 0
    while broken < 2000:
        gens = [rng.choice((diagram.SIGMA1, diagram.SIGMA2_INV)) for _ in range(rng.randint(1, 11))]
        try:
            pd = planar.alternating_pd(gens)
        except words.InvariantError:
            continue  # a lone s2^-1 leaves a portless cycle
        other = list(pd.other)
        p = rng.randrange(len(other))
        other[p] = rng.choice([q for q in range(len(other)) if q != other[p]])
        with pytest.raises(words.InvariantError):
            planar.goeritz_determinant(pd._replace(other=tuple(other)))
        broken += 1


# ------------------------------------------------------ pinned outputs

def oracle_row(word, pd):
    try:
        od = planar.orient(pd)
    except planar.MultiComponent as e:
        return (word, "link", e.actual)
    return (word, "".join(planar.classify_orientations(od)),
            planar.trace_seifert_circles(od), planar.goeritz_determinant(pd))


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


# The digests were computed with the tuple-keyed strip graph that the
# integer-port diagrams replaced: the rewrite reports the same smoothings,
# circle counts, determinants and link component counts.

def test_oracle_pinned_on_billiard_words_up_to_length_12():
    rows = (oracle_row(w, planar.billiard_pd(w, allow_link=True))
            for n in range(1, 13)
            for w in map("".join, itertools.product("+-", repeat=n)))
    assert digest(rows) == "ec4edd3bb90ddaa8d09927a90a7f88c1ee1efabde2a798c6eecec81daaeb3081"


def test_oracle_pinned_on_model_words_up_to_c13():
    rows = (oracle_row(words.from_runs(r), planar.alternating_pd(diagram.generators(r)))
            for r in model_words(3, 13))
    assert digest(rows) == "d80ed95739470bc3b25208955b430ebe1a80ab44bfd4e20f8736aa86ad96f07f"
