"""Per-crossing records, smoothing classification, Seifert circle count."""

import hashlib
import itertools
import json

import pytest

import golden
import table_faults
from twobridge import diagram, rational, words

ALL_ROWS = golden.ROWS_SMALL + golden.ROWS_C6 + golden.ROWS_C7


def run_word(word):
    return words.normalize_to_model(word).run_word


def model_words(c_lo, c_hi):
    for c in range(c_lo, c_hi + 1):
        yield from words.enumerate_model_words(c)


def benchmark_words():
    """The 960 model words of the sample workload, sample 3001 15 s for s < 64."""
    runs = [n.run_word for s in range(64)
            for n in map(words.normalize_to_model, words.sample(3001, 15, s))
            if n.kind == words.MODEL]
    assert len(runs) == 960
    return runs


def vertical_indices(d):
    return [x.index for x in d if x.smoothing == diagram.V]


def viable_indices(d):
    return [x.index for x in d if x.viable]


def sequential_indices(d):
    return [x.index for x in d if x.sequential]


def folded(d):
    """Adjacent equal generators folded into (generator, count) pairs."""
    return [(g, len(list(run))) for g, run in itertools.groupby(x.generator for x in d)]


def exponents(d):
    """The counts of the folded word: the continued fraction entries."""
    return [k for _, k in folded(d)]


def braid_word(d):
    """The folded word written out, e.g. "s1^3 s2^-1 s1 s2^-1"."""
    return " ".join((f"s1^{k}" if k > 1 else "s1") if g == diagram.SIGMA1 else f"s2^-{k}"
                    for g, k in folded(d))


# ---------------------------------------------------------- generator map

def test_generator_mapping_golden():
    d = diagram.full_diagram(run_word("+--+"))
    assert [x.generator for x in d] == [diagram.SIGMA1] * 3
    assert braid_word(d) == "s1^3"
    d = diagram.full_diagram(run_word("+-+-"))
    assert [x.generator for x in d] == [
        diagram.SIGMA1, diagram.SIGMA2_INV, diagram.SIGMA1, diagram.SIGMA2_INV]


@pytest.mark.parametrize("word,runs,alt", [(r[0], r[1], r[2]) for r in ALL_ROWS])
def test_alternating_words_golden(word, runs, alt):
    d = diagram.full_diagram(run_word(word))
    assert tuple(x.run_length for x in d) == runs
    assert braid_word(d) == alt


def test_generators_match_comprehension_form():
    for r in model_words(3, 14):
        assert diagram.generators(r) == [
            diagram.GENERATOR[i & 1][e] for i, e in enumerate(r.runs)]


def braid_word_by_comprehension(first, exps):
    # _braid_word's form before its power memo: one f-string per exponent
    s1_at = 0 if first == diagram.SIGMA1 else 1
    return " ".join([
        (diagram.SIGMA1 if k == 1 else f"s1^{k}") if j & 1 == s1_at else f"s2^-{k}"
        for j, k in enumerate(exps)])


def test_braid_word_matches_comprehension_form(monkeypatch):
    benchmark = benchmark_words()
    # runs 1, 2, 1, 2, ..., 1: every crossing is s1, one fold of exponent 101
    torus = words.RunWord(words.PLUS, (1, 2) * 50 + (1,))
    assert torus.is_model and diagram.analyze(torus).alternating == "s1^101"
    for r in itertools.chain(model_words(3, 14), benchmark, [torus]):
        first, *_, exps = diagram._scan(r)
        assert first == diagram.generators(r)[0]
        assert diagram._braid_word(first, exps) == braid_word_by_comprehension(first, exps)
    # a model word starts with s1; the memo serves either first generator
    for first in (diagram.SIGMA2_INV, diagram.SIGMA1):
        for exps in ([1], [2, 1, 1], [150, 1, 3, 1000]):
            assert diagram._braid_word(first, exps) == braid_word_by_comprehension(first, exps)
    # on a fresh memo, each power's text is formatted the first time its
    # exponent is read, whatever the order and however large
    monkeypatch.setattr(diagram, "_POWERS", (diagram._Powers(diagram.SIGMA1, "s1^"),
                                             diagram._Powers(diagram.SIGMA2_INV, "s2^-")))
    for first in (diagram.SIGMA1, diagram.SIGMA2_INV):
        for exps in ([7, 3, 150, 3, 1, 101, 7], [1000, 2, 1000, 999, 4], [5]):
            assert diagram._braid_word(first, exps) == braid_word_by_comprehension(first, exps)
    s1, s2 = diagram._POWERS
    assert sorted(s1) == sorted(s2) == [1, 2, 3, 4, 5, 7, 101, 150, 999, 1000]
    assert all(s1[k] == f"s1^{k}" and s2[k] == f"s2^-{k}" for k in s1 if k > 1)


def test_end_generators_track_crossing_parity():
    # run 1 is a single +, run c is a single whose sign alternates with c
    for r in model_words(3, 10):
        d = diagram.full_diagram(r)
        assert d[0].generator == diagram.SIGMA1
        last = diagram.SIGMA1 if r.c % 2 == 1 else diagram.SIGMA2_INV
        assert d[-1].generator == last


def test_start_positions_are_cumulative():
    d = diagram.full_diagram(run_word("+--++--++-"))  # runs (1,2,2,2,2,1)
    assert [x.start_position for x in d] == [1, 2, 4, 6, 8, 10]


def test_analyze_rejects_non_model():
    for r in (words.RunWord("-", (1, 2, 1)),  # first sign -
              words.RunWord("+", (1, 1, 1)),  # length 0 mod 3
              words.RunWord("+", (1,))):      # fewer than 3 runs
        with pytest.raises(ValueError):
            diagram.analyze(r)
        with pytest.raises(ValueError):
            diagram.full_diagram(r)


# ------------------------------------------------------------- smoothings

@pytest.mark.parametrize("word,smooth", [(r[0], r[3]) for r in ALL_ROWS])
def test_smoothing_strings_golden(word, smooth):
    d = diagram.full_diagram(run_word(word))
    assert "".join(x.smoothing for x in d) == smooth


def test_end_crossings_never_vertical():
    for r in model_words(3, 10):
        d = diagram.full_diagram(r)
        assert d[0].smoothing == diagram.H and d[-1].smoothing == diagram.H


def test_zero_vertical_words_are_torus_words():
    # no vertical smoothings exactly when the alternating word is s1^c
    for r in model_words(3, 11):
        a = diagram.analyze(r)
        torus = a.alternating == f"s1^{r.c}"
        assert (a.vertical == 0) == torus
        if torus:
            assert r.c % 2 == 1
            assert words.from_runs(r) == "+" + "--+" * (r.c // 2)


# -------------------------------------------------------------- viability

@pytest.mark.parametrize(
    "word,viable,sequential", [(r[0], r[4], r[5]) for r in ALL_ROWS])
def test_viable_and_sequential_sets_golden(word, viable, sequential):
    d = diagram.full_diagram(run_word(word))
    assert set(viable_indices(d)) == viable
    assert set(sequential_indices(d)) == sequential
    smoothings = "".join(x.smoothing for x in d)
    assert golden.vertical_set(smoothings) == set(vertical_indices(d))


def test_viability_count_ordering():
    for r in model_words(3, 11):
        d = diagram.full_diagram(r)
        seq = set(sequential_indices(d))
        via = set(viable_indices(d))
        vert = set(vertical_indices(d))
        assert seq <= via <= vert
        if vert:
            assert max(via) == max(vert)  # the last vertical is always viable


def test_crossing_fields_match_definitions():
    # generator from the (sign, run length) table; H iff the run starts at
    # 1 (single) or 2 (double) mod 3; viable: the next vertical crossing
    # has the same generator, or there is none; sequential: the very next
    # crossing is that one
    table = {("+", 1): diagram.SIGMA1, ("+", 2): diagram.SIGMA2_INV,
             ("-", 1): diagram.SIGMA2_INV, ("-", 2): diagram.SIGMA1}
    for r in model_words(3, 11):
        d = diagram.full_diagram(r)
        verts = [x for x in d if x.smoothing == diagram.V]
        nxt = dict(zip((x.index for x in verts), verts[1:]))
        for x in d:
            assert x.generator == table[(x.run_sign, x.run_length)]
            h_residue = 1 if x.run_length == 1 else 2
            assert (x.smoothing == diagram.H) == (x.start_position % 3 == h_residue)
            if x.smoothing != diagram.V:
                assert not x.viable and not x.sequential
                continue
            n = nxt.get(x.index)
            assert x.viable == (n is None or n.generator == x.generator)
            assert x.sequential == (
                n is not None and n.index == x.index + 1 and n.generator == x.generator)


@pytest.mark.parametrize("word,s,g", [(r[0], r[6], r[7]) for r in ALL_ROWS])
def test_seifert_count_and_genus_golden(word, s, g):
    d = diagram.full_diagram(run_word(word))
    assert 2 + len(viable_indices(d)) == s
    assert 2 + len(sequential_indices(d)) <= s <= 2 + len(vertical_indices(d))
    assert diagram.genus(s, len(d)) == g


def test_genus_parity_errors():
    assert diagram.genus(2, 3) == 1
    assert diagram.genus(4, 3) == 0
    with pytest.raises(diagram.ParityError):
        diagram.genus(2, 4)  # 1 - s + c odd
    with pytest.raises(diagram.ParityError):
        diagram.genus(7, 3)  # 1 - s + c negative


def test_genus_range_and_parity_invariants():
    for r in model_words(3, 11):
        s = diagram.analyze(r).s
        assert (s + r.c) % 2 == 1
        g = diagram.genus(s, r.c)
        assert 0 <= g <= (r.c - 1) // 2


# ---------------------------------------------------------------- analyze

@pytest.mark.parametrize("row", ALL_ROWS, ids=[r[0] for r in ALL_ROWS])
def test_analyze_golden(row):
    word, runs, alt, smooth, viable, seq, s, g, p, q, name, pal = row
    a = diagram.analyze(run_word(word))
    assert a.word == word
    assert a.runs.runs == runs
    assert a.alternating == alt
    assert a.smoothings == smooth
    assert a.vertical == smooth.count("V")
    assert a.viable == len(viable)
    assert a.sequential == len(seq)
    assert (a.s, a.s_lower, a.s_upper) == (s, 2 + len(seq), 2 + smooth.count("V"))
    assert a.genus == g
    assert (a.p, a.q) == (p, q)
    assert a.name == name
    assert a.palindromic == pal


@pytest.mark.parametrize("words_of, count, digest", [
    (lambda: model_words(3, 14), 2730,
     "3d3b899c5bad39a42febda91e6d5c866f406a3bca8d59f7eaf743cb3d64c348a"),
    (benchmark_words, 960, "9c4f9d44f458d6d120a9bb17db0fa0459d9c558898d5e71b7378a0eac91e7286"),
], ids=["c-3-to-14", "benchmark"])
def test_analyze_records_are_pinned(words_of, count, digest):
    # every field of every record: a faster kernel must leave them all as they are
    records = [tuple(diagram.analyze(r)) for r in words_of()]
    assert len(records) == count
    assert hashlib.sha256(repr(records).encode()).hexdigest() == digest


def assert_analyze_agrees_with_full_diagram(r):
    a = diagram.analyze(r)
    d = diagram.full_diagram(r)
    s = 2 + len(viable_indices(d))
    assert diagram.generators(r) == [x.generator for x in d]
    assert a.word == words.from_runs(r)
    assert a.alternating == braid_word(d)
    assert a.smoothings == "".join(x.smoothing for x in d)
    assert (a.vertical, a.viable, a.sequential) == (
        len(vertical_indices(d)), len(viable_indices(d)), len(sequential_indices(d)))
    assert (a.s, a.s_lower, a.s_upper) == (
        s, 2 + len(sequential_indices(d)), 2 + len(vertical_indices(d)))
    assert a.genus == diagram.genus(s, len(d))
    f = rational.continued_fraction(exponents(d))
    assert (a.p, a.q) == (f.p, f.q)
    return a, d


def test_analyze_agrees_with_full_diagram():
    # analyze's forward pass against full_diagram's backward sweep
    for r in model_words(3, 14):
        assert_analyze_agrees_with_full_diagram(r)


@pytest.mark.parametrize("seed", range(4))
def test_analyze_agrees_with_full_diagram_on_long_words(seed):
    long_words = [n.run_word for n in map(words.normalize_to_model, words.sample(3001, 15, seed))
                  if n.kind == words.MODEL]
    assert long_words
    for r in long_words:
        assert r.c > 500
        assert_analyze_agrees_with_full_diagram(r)


@pytest.mark.parametrize("fault", table_faults.FAULTS)
def test_planted_table_fault_disagrees_with_full_diagram(monkeypatch, fault):
    # full_diagram reads no table, so it is a check route for each fault
    table_faults.plant(fault, monkeypatch.setattr)
    failing = []
    for r in model_words(3, 8):
        try:
            assert_analyze_agrees_with_full_diagram(r)
        except (AssertionError, words.InvariantError):
            failing.append(r)
    assert failing


def test_analyze_without_vertical_crossings():
    a, _ = assert_analyze_agrees_with_full_diagram(run_word("+--+--+"))
    assert (a.smoothings, a.vertical, a.viable, a.sequential, a.s) == ("HHHHH", 0, 0, 0, 2)


def test_analyze_counts_a_last_vertical_crossing_at_c_minus_1():
    # the crossing still pending at the end of the pass is viable
    a, d = assert_analyze_agrees_with_full_diagram(run_word("+--+-+-"))
    assert a.smoothings == "HHHVVH"
    assert vertical_indices(d)[-1] == len(d) - 1 and d[-2].viable
    assert (a.vertical, a.viable, a.sequential, a.s) == (2, 1, 0, 3)


def test_analysis_serialization_round_trip():
    a = diagram.analyze(run_word("+--+-+-"))
    row = a.csv_row()
    assert len(row) == len(diagram.WordAnalysis.CSV_COLUMNS)
    assert row[0] == "+--+-+-"
    blob = json.dumps(a.to_json())
    back = json.loads(blob)
    assert back["word"] == "+--+-+-"
    assert back["s"] == 3 and back["genus"] == 2 and back["name"] == "6_2"


def test_exponents_fold_adjacent_generators():
    assert exponents(diagram.full_diagram(run_word("+--+-+-"))) == [3, 1, 1, 1]
    assert exponents(diagram.full_diagram(run_word("+--+--+--+"))) == [7]
