"""Planar diagram oracle: strip construction, orientation, Seifert
tracing, Goeritz determinants.  Everything here is independent of the
smoothing shortcut, which is what makes the agreement tests meaningful."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from twobridge import crosscheck, diagram, planar, words


def full(word):
    return diagram.full_diagram(words.normalize_to_model(word).run_word)


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
    assert exc.value.k == 2
    pd = planar.billiard_pd("+-+-+", allow_link=True)
    with pytest.raises(planar.MultiComponent):
        planar.orient(pd)


def test_closures_are_knots_when_length_allows():
    for n in (1, 3, 4, 6, 7, 9, 10):
        for _ in range(5):
            w = "".join(random.Random(n * 100 + _).choice("+-") for _ in range(n))
            planar.orient(planar.billiard_pd(w))  # must not raise


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
        od = planar.orient(planar.alternating_pd(d))
        assert planar.classify_orientations(od) == [x.smoothing for x in d]


# --------------------------------------------------------- Seifert circles

def test_traced_circles_match_viability_count():
    for r in model_words(3, 9):
        d = diagram.full_diagram(r)
        od = planar.orient(planar.alternating_pd(d))
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
    od = planar.orient(planar.alternating_pd(diagram.full_diagram(r)))
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
    d = full(word)
    assert planar.goeritz_determinant(planar.alternating_pd(d)) == p
    assert planar.goeritz_determinant(planar.billiard_pd(word)) == p


def test_goeritz_determinant_equals_fraction_numerator():
    for r in model_words(3, 9):
        a = diagram.analyze(r)
        d = diagram.full_diagram(r)
        det_alt = planar.goeritz_determinant(planar.alternating_pd(d))
        det_bil = planar.goeritz_determinant(planar.billiard_pd(a.word))
        assert det_alt == det_bil == a.p, a.word


def test_determinant_of_unknot_closures():
    assert planar.goeritz_determinant(planar.billiard_pd("+++")) == 1
    assert planar.goeritz_determinant(planar.billiard_pd("++-+")) == 1
