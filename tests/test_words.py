"""Word parsing, reduction moves, run form, enumeration, normalization."""

import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from twobridge import census, words

SIGNS = "+-"


def all_words(max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(SIGNS, repeat=n):
            yield "".join(tup)


# ---------------------------------------------------------------- parsing

def test_parse_strips_whitespace():
    assert words.parse_word(" +- \t-+\n") == "+--+"
    assert words.parse_word("") == ""


def test_parse_rejects_bad_characters():
    with pytest.raises(words.WordSyntaxError, match="position 2"):
        words.parse_word("+-x+")
    with pytest.raises(words.WordSyntaxError):
        words.parse_word("01")


def parse_by_scan(text):
    # the per-character definition parse_word's fast path must agree with
    out = []
    for pos, ch in enumerate(text):
        if ch in SIGNS:
            out.append(ch)
        elif not ch.isspace():
            raise words.WordSyntaxError(f"invalid character {ch!r} at position {pos}")
    return "".join(out)


def test_parse_accepts_non_ascii_spaces():
    assert words.parse_word("+\u00a0-\u2003-\u3000+\x1c") == "+--+"


@pytest.mark.parametrize("text, message", [
    ("+- x", "invalid character 'x' at position 3"),
    ("  \t-", None),
    ("+\u00a0-y+", "invalid character 'y' at position 3"),
    ("+\u3000\u200b-", "invalid character '\\u200b' at position 2"),
    ("+-\u00e9", "invalid character '\u00e9' at position 2"),
])
def test_parse_error_positions_count_whitespace(text, message):
    if message is None:
        assert words.parse_word(text) == parse_by_scan(text)
        return
    with pytest.raises(words.WordSyntaxError) as exc:
        words.parse_word(text)
    assert str(exc.value) == message


@given(st.text(alphabet="+- \t\n\u00a0\u2003\u200bx", max_size=12))
def test_parse_matches_per_character_scan(text):
    try:
        want = parse_by_scan(text)
    except words.WordSyntaxError as e:
        with pytest.raises(words.WordSyntaxError) as exc:
            words.parse_word(text)
        assert str(exc.value) == str(e)
    else:
        assert words.parse_word(text) == want


def test_mirror_and_reverse():
    assert words.mirror("++-") == "--+"
    for w in ("", "+", "+--+-+-"):
        assert words.mirror(words.mirror(w)) == w
        assert words.mirror(w[::-1]) == words.mirror(w)[::-1]


# -------------------------------------------------------------- reduction

def test_reduce_golden():
    assert words.reduce("+++") == ""
    assert words.reduce("++-+") == "+"
    assert words.reduce("+--+-+-") == "+--+-+-"
    assert words.reduce("-++") == ""
    assert words.reduce("+--") == ""
    assert words.reduce("++-") == ""


def _one_move(w):
    # leftmost internal move first, then start-external, then end-external
    for i in range(len(w) - 2):
        if w[i] == w[i + 1] == w[i + 2]:
            return w[:i] + w[i + 3:]
    if w[:3] in ("++-", "--+"):
        return w[3:]
    if w[-3:] in ("-++", "+--"):
        return w[:-3]
    return None


def _leftmost_reduce(word):
    # the fixed strategy, one move at a time: the definition reduce must
    # match, quadratic since every move rescans the word
    while True:
        nxt = _one_move(word)
        if nxt is None:
            return word
        word = nxt


def test_reduce_equals_leftmost_strategy_up_to_length_14():
    checked = 0
    for w in all_words(14):
        assert words.reduce(w) == _leftmost_reduce(w), w
        checked += 1
    assert checked == 2 ** 15 - 1


# blocks that stack deep cancellations and long start/end peels
_BLOCKS = ("+", "-", "+++", "---", "++-", "--+", "-++", "+--")


@settings(max_examples=30, deadline=None)
@given(st.integers(100, 3000), st.sampled_from([SIGNS, _BLOCKS]), st.randoms())
def test_reduce_equals_leftmost_strategy_on_long_words(n, pieces, rng):
    w = "".join(rng.choice(pieces) for _ in range(n))[:n]
    assert words.reduce(w) == _leftmost_reduce(w)
    with mock.patch.object(words, "reduce", _leftmost_reduce):
        expected = words.normalize_to_model(w)
    assert words.normalize_to_model(w) == expected


def _stack_reduce(word):
    # reduce's stack-only form, before its triple-deletion passes: the
    # stack reads every letter of the word
    stack = ["", ""]
    top, n = "", 0
    for ch in word:
        if ch != top:
            stack.append(ch)
            top, n = ch, 1
        elif n == 1:
            stack.append(ch)
            n = 2
        else:
            del stack[-2:]
            top = stack[-1]
            n = 2 if stack[-2] == top else 1
    w = "".join(stack)
    i, j = 0, len(w)
    while j - i >= 3:
        if w[i:i + 3] in ("++-", "--+"):
            i += 3
        elif w[j - 3:j] in ("-++", "+--"):
            j -= 3
        else:
            break
    return w[i:j]


def test_reduce_equals_stack_only_form_on_benchmark_words():
    # the benchmark's 960 sampled 3,001-letter words
    sampled = [w for s in range(64) for w in words.sample(3001, 15, s)]
    assert len(sampled) == 960
    for w in sampled:
        assert words.reduce(w) == _stack_reduce(w), w


def test_reduce_is_linear_on_long_words():
    # The leftmost strategy rescans the untouched 100,000-letter prefix for
    # each of the 50,000 deleted triples, and the whole remaining word for
    # each of the second word's 100,000 start and end moves: minutes each.
    assert words.reduce("+-" * 50_000 + "+++" * 50_000) == "+-" * 50_000
    assert words.reduce("++-" * 50_000 + "+--+" + "+--" * 50_000) == "+--+"
    # each "--++" cancels against the "+-" that the one before it exposed:
    # the stack's pop path, 100,000 times
    assert words.reduce("+-" * 50_000 + "--++" * 50_000) == ""


def _any_move_results(w):
    # every single reduction move applicable to w, not just the fixed strategy
    out = []
    for i in range(len(w) - 2):
        if w[i] == w[i + 1] == w[i + 2]:
            out.append(w[:i] + w[i + 3:])
    if w[:3] in ("++-", "--+"):
        out.append(w[3:])
    if w[-3:] in ("-++", "+--"):
        out.append(w[:-3])
    return out


@functools.lru_cache(maxsize=None)
def _normal_forms(w):
    nxt = _any_move_results(w)
    if not nxt:
        return frozenset([w])
    forms = set()
    for m in nxt:
        forms |= _normal_forms(m)
    return frozenset(forms)


def test_reduction_order_independence_up_to_length_12():
    # The moves are not literally confluent: ++-- reduces to + by the end
    # move but to - by the start move.  Exhaustively at |w| <= 12 the
    # normal form is unique up to mirror (equal lengths), the fixed
    # strategy reaches one of them, and normalization cannot tell the
    # results apart, so everything downstream is move-order independent.
    assert _normal_forms("++--") == frozenset(["+", "-"])
    checked = 0
    for w in all_words(12):
        forms = _normal_forms(w)
        r = words.reduce(w)
        assert forms in (frozenset([r]), frozenset([r, words.mirror(r)])), (w, forms)
        assert len({len(f) for f in forms}) == 1
        assert len({words.normalize_to_model(f) for f in forms}) == 1
        checked += 1
    assert checked == 2 ** 13 - 1


@settings(max_examples=300)
@given(st.text(alphabet=SIGNS, max_size=60))
def test_reduce_properties(w):
    r = words.reduce(w)
    assert len(r) % 3 == len(w) % 3
    assert words.reduce(r) == r
    assert not _any_move_results(r)


def _runs_by_groupby(w):
    # the run-length definition to_runs splits by str methods
    return tuple(len(list(g)) for _, g in itertools.groupby(w))


def test_reduced_long_words_have_run_form():
    short = [w for w in all_words(11) if len(w) >= 3 and not _any_move_results(w)]
    # the reduced forms of the benchmark's 960 sampled 3,001-letter words
    sampled = [words.reduce(w) for s in range(64) for w in words.sample(3001, 15, s)]
    assert len(sampled) == 960 and all(sampled)
    for w in short + sampled:
        r = words.to_runs(w)
        assert all(e in (1, 2) for e in r.runs)
        assert r.runs[0] == 1 and r.runs[-1] == 1
        assert r == (w[0], _runs_by_groupby(w))
        assert words.from_runs(r) == w


def _run_form_outcome(make):
    # the RunWord that make() returns, or the message of its NotReducedForm
    try:
        return make()
    except words.NotReducedForm as e:
        return str(e)


def test_to_runs_matches_groupby_definition_up_to_length_12():
    errors = set()
    for w in all_words(12):
        if w:
            expected = _run_form_outcome(lambda: words.RunWord(w[0], _runs_by_groupby(w)))
            assert _run_form_outcome(lambda: words.to_runs(w)) == expected, w
            if isinstance(expected, str):
                errors.add(expected.split(":")[0])
    # both ways out of run form came up: a run of 3 or more, a double end run
    assert errors == {"run lengths must be 1 or 2", "first and last runs must be single letters"}


def test_run_passes_match_comprehension_forms():
    for c in range(3, 15):
        for r in words.enumerate_model_words(c):
            for m in (r, words.RunWord(words.MINUS, r.runs)):
                signs = (m.first_sign, words.mirror(m.first_sign))
                assert words.from_runs(m) == "".join(
                    [signs[i & 1] * n for i, n in enumerate(m.runs)])
                assert words.toggle_interior(m) == (
                    m.first_sign, (1,) + tuple(3 - e for e in m.runs[1:-1]) + (1,))


# --------------------------------------------------------------- run form

def test_to_runs_golden():
    assert words.to_runs("+--+-+-").runs == (1, 2, 1, 1, 1, 1)
    assert words.to_runs("+--+-+-").first_sign == "+"
    with pytest.raises(words.NotReducedForm):
        words.to_runs("")
    with pytest.raises(words.NotReducedForm):
        words.to_runs("+++-")  # run of length 3
    with pytest.raises(words.NotReducedForm):
        words.to_runs("++-")  # first run not a single letter
    # letters outside {+, -}: a space would split a run, others join one
    with pytest.raises(words.NotReducedForm, match="'x' at position 1 is not"):
        words.to_runs("+x-")
    with pytest.raises(words.NotReducedForm, match="' ' at position 1 is not"):
        words.to_runs("+ -")
    with pytest.raises(words.NotReducedForm, match="'\\*' at position 3 is not"):
        words.to_runs("+--*+-")


def test_run_word_validation():
    with pytest.raises(words.NotReducedForm):
        words.RunWord("+", (1, 3, 1))
    with pytest.raises(words.NotReducedForm):
        words.RunWord("+", (2, 1, 1))
    with pytest.raises(words.NotReducedForm):
        words.RunWord("*", (1, 1, 1))
    r = words.RunWord("+", (1, 2, 1, 1, 1, 1))
    assert r.c == 6 and r.length == 7 and r.runs.count(2) == 1
    assert r.is_model


def test_from_runs_alternates_signs():
    assert words.from_runs(words.RunWord("+", (1, 2, 1))) == "+--+"
    assert words.from_runs(words.RunWord("-", (1, 1, 1))) == "-+-"


def test_toggle_interior():
    r = words.RunWord("+", (1, 1, 2, 1, 1))
    t = words.toggle_interior(r)
    assert t.runs == (1, 2, 1, 2, 1)
    assert words.toggle_interior(t) == r
    for c in range(3, 13):
        for m in words.enumerate_model_words(c):
            t = words.toggle_interior(m)
            assert m.length + t.length == 3 * c - 2


def test_palindromic_type_matches_reversal():
    # the reverse of a model word normalizes to the run vector reversed,
    # so palindromic type words are exactly the reversal fixed points
    for c in range(3, 11):
        for r in words.enumerate_model_words(c):
            back = words.normalize_to_model(words.from_runs(r)[::-1])
            assert back.kind == words.MODEL
            assert back.run_word.runs == r.runs[::-1]
            assert words.is_palindromic_type(r) == (back.run_word == r)


# ------------------------------------------------------------ enumeration

def test_double_counts():
    for c in range(3, 31):
        ds = list(words.double_counts(c))
        assert ds, c
        for d in ds:
            assert 0 <= d <= c - 2
            assert (c + d) % 3 == 1


def test_enumeration_counts_and_distinctness():
    # golden hand counts up to c = 12, census.model_count above that
    for c in range(3, 19):
        expected = golden.MODEL_COUNTS[c - 3] if c <= 12 else census.model_count(c)
        seen = list(words.enumerate_model_words(c))
        assert len(seen) == expected
        assert len(set(seen)) == expected
        for r in seen:
            assert r.c == c and r.is_model and r.length % 3 == 1


def test_enumeration_order_c6():
    got = [words.from_runs(r) for r in words.enumerate_model_words(6)]
    assert got == golden.ENUMERATION_ORDER_C6


def test_enumeration_groups_by_doubles_then_position():
    for c in range(3, 19):
        rows = [(r.runs.count(2), tuple(i for i, e in enumerate(r.runs) if e == 2))
                for r in words.enumerate_model_words(c)]
        assert rows == sorted(rows)


def test_enumeration_rejects_small_c():
    with pytest.raises(ValueError):
        list(words.enumerate_model_words(2))


def test_tasks_partition_enumeration():
    # the tasks are the double counts d; each expands to the words with d
    # doubles, and the expansions in task order are the enumeration
    for c in range(3, 12):
        whole = list(words.enumerate_model_words(c))
        assert list(words.enumeration_tasks(c)) == list(words.double_counts(c))
        by_task = []
        for d in words.enumeration_tasks(c):
            got = list(words.expand_task(c, d))
            assert got == [r for r in whole if r.runs.count(2) == d]
            by_task += got
        assert by_task == whole


# ---------------------------------------------------------- normalization

def test_normalize_golden():
    assert words.normalize_to_model("+++").kind == words.UNKNOT
    assert words.normalize_to_model("").kind == words.UNKNOT
    assert words.normalize_to_model("+").kind == words.UNKNOT
    assert words.normalize_to_model("+-").kind == words.LINK
    got = words.normalize_to_model("-++-+-+")
    assert got.kind == words.MODEL
    assert got.run_word == words.RunWord("+", (1, 2, 1, 1, 1, 1))
    # reduced length 0 mod 3 goes through the interior toggle
    got = words.normalize_to_model("+-+")
    assert got.run_word == words.RunWord("+", (1, 2, 1))


def test_normalize_model_words_are_fixed_points():
    for c in range(3, 10):
        for r in words.enumerate_model_words(c):
            assert words.normalize_to_model(words.from_runs(r)).run_word == r


@settings(max_examples=400)
@given(st.text(alphabet=SIGNS, max_size=45))
def test_normalize_is_total_and_kind_tracks_length(w):
    n = words.normalize_to_model(w)
    ell = len(words.reduce(w))
    if ell <= 1:
        assert n.kind == words.UNKNOT and n.run_word is None
    elif ell % 3 == 2:
        assert n.kind == words.LINK and n.run_word is None
    else:
        assert n.kind == words.MODEL
        assert n.run_word.is_model


# -------------------------------------------------------------- sampling

def test_sample_is_deterministic():
    a = list(words.sample(10, 20, seed=7))
    b = list(words.sample(10, 20, seed=7))
    assert a == b
    assert all(len(w) == 10 and set(w) <= set(SIGNS) for w in a)
    assert a != list(words.sample(10, 20, seed=8))


@pytest.mark.parametrize("n, seeds", [
    (0, 20), (1, 200), (2, 200), (3, 200), (7, 200), (100, 200), (3001, 20),
])
def test_draw_letters_matches_choice_letters_and_state(n, seeds):
    # one rng.choice("+-") per letter is the definition; the batched draw
    # must give the same letters and leave the generator where it would
    for seed in range(seeds):
        want, got = random.Random(seed), random.Random(seed)
        assert words.draw_letters(got, n) == "".join(want.choice(SIGNS) for _ in range(n))
        assert got.getstate() == want.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 40])
def test_one_draw_sliced_into_words_matches_sequential_draws(n):
    # the orientation check draws a length's 50 words at once: the same
    # words, and the generator left where 50 draws of n letters leave it
    for seed in range(300):
        want, got = random.Random(seed), random.Random(seed)
        sequential = [words.draw_letters(want, n) for _ in range(50)]
        letters = words.draw_letters(got, 50 * n)
        assert [letters[i:i + n] for i in range(0, 50 * n, n)] == sequential
        assert got.getstate() == want.getstate()


def test_sample_warns_on_link_lengths():
    with pytest.warns(UserWarning):
        list(words.sample(5, 1, seed=0))


def test_sample_kind_frequencies_match_exhaustive_count():
    # length 4: compare sampled unknot frequency to the exact census of
    # all 16 words, within 3 sigma of the binomial
    kinds = [words.normalize_to_model("".join(t)).kind
             for t in itertools.product(SIGNS, repeat=4)]
    p = kinds.count(words.UNKNOT) / len(kinds)
    n = 600
    hits = sum(words.normalize_to_model(w).kind == words.UNKNOT
               for w in words.sample(4, n, seed=123))
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(hits - n * p) <= 3 * sigma


def test_sample_validates_arguments():
    with pytest.raises(ValueError):
        list(words.sample(0, 1, seed=1))
    with pytest.raises(ValueError):
        list(words.sample(3, -1, seed=1))
