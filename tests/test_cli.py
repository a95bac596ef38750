"""Command line behavior: subcommand output, formats, exit codes,
byte-for-byte determinism."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import golden
import table_faults
from twobridge import census, cli, crosscheck, diagram, rational, words


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def index_calls(monkeypatch):
    """The (c, i) of every census.index_contribution call, in call order."""
    calls = []
    real = census.index_contribution

    def counting(c, i):
        calls.append((c, i))
        return real(c, i)

    monkeypatch.setattr(census, "index_contribution", counting)
    return calls


# ---------------------------------------------------------------- analyze

def test_analyze_human(capsys):
    code, out, err = run(["analyze", "+--+-+-"], capsys)
    assert code == 0 and err == ""
    assert "alternating: s1^3 s2^-1 s1 s2^-1" in out
    assert "seifert circles: 3" in out
    assert "genus: 2" in out
    assert "knot: 6_2" in out


def test_analyze_unknot_and_link(capsys):
    code, out, _ = run(["analyze", "+++"], capsys)
    assert code == 0 and out == "unknot\n"
    code, out, _ = run(["analyze", "+-"], capsys)
    assert code == 0 and out == "2-component link: out of scope\n"


def test_analyze_json(capsys):
    code, out, _ = run(["analyze", "+--+-+-", "--format", "json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["word"] == "+--+-+-"
    assert blob["s"] == 3 and blob["genus"] == 2
    assert blob["p"] == 11 and blob["q"] == 3
    code, out, _ = run(["analyze", "+++", "--format", "json"], capsys)
    assert json.loads(out) == {"kind": "unknot"}


def test_analyze_csv(capsys):
    code, out, _ = run(["analyze", "+-+-", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "word"
    assert rows[1][0] == "+-+-"
    assert len(rows) == 2


def test_analyze_csv_non_model_word_is_parsed(capsys):
    code, out, _ = run(["analyze", " + -\u00a0", "--format", "csv"], capsys)
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["word", "kind"], ["+-", "link"]]


def test_analyze_rejects_garbage(capsys):
    code, out, err = run(["analyze", "+-x"], capsys)
    assert code == 2
    assert out == ""
    assert "invalid character" in err


def test_analyze_long_word_reduces_in_linear_time():
    # 120,004 letters (one argument stays below the 128 KiB Linux limit):
    # 10,000 start moves, 10,000 internal moves and 10,000 end moves away
    # from the trefoil
    word = "++-" * 10_000 + "+++" * 10_000 + "+--+" + "+--" * 10_000
    proc = subprocess.run([sys.executable, "-m", "twobridge.cli", "analyze", word],
                          capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "word: +--+"
    assert "knot: 3_1" in lines


# toggle_interior does nothing, so a reduced length 0 mod 3 leaves a word
# that is not a model word; python -O must not switch that check off
_PLANTED_NORMALIZE = """
import sys
from twobridge import cli, words
words.toggle_interior = lambda r: r
sys.exit(cli.main(["analyze", "--", "-+-"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_analyze_fails_on_planted_normalization_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_NORMALIZE],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: model form at reduced word -+-: expected "
                           "first sign +, c >= 3, length 1 mod 3, got +-+\n")


# reduce leaves its input as it is, so to_runs meets a run of three; a
# program fault (exit 1), not a usage error, also under python -O
_PLANTED_REDUCE = """
import sys
from twobridge import cli, words
words.reduce = lambda word: word
sys.exit(cli.main(["analyze", "+++-"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_analyze_unreduced_run_form_exits_1(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_REDUCE],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: reduced run form at reduced word +++-: expected "
                           "runs of 1 or 2, single-letter ends, got run lengths "
                           "must be 1 or 2: (3, 1)\n")


# analyze's kernel marks one crossing too many viable, so 1 - s + c is odd;
# that is a program fault (exit 1), not a usage error, also under python -O
_PLANTED_PARITY = """
import sys
from twobridge import cli, diagram
real = diagram._scan

def one_more_viable(r):
    first, smoothings, vertical, viable, sequential, exponents = real(r)
    return first, smoothings, vertical, viable + 1, sequential, exponents

diagram._scan = one_more_viable
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_analyze_parity_fault_exits_1(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_PARITY, "analyze", "+-+-"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: genus parity at s=4, c=4: expected a "
                           "nonnegative even 1 - s + c, got 1\n")


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_check_prints_the_parity_fault_of_every_check_that_reads_words(flags):
    # the first word, +--+ (s=3, c=3), fails each check that reads the word
    # stream; the fault is a plain InvariantError, named as such
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_PARITY, "check", "6"],
                          capture_output=True, text=True, check=False)
    fail = ("FAIL (InvariantError: genus parity at s=3, c=3: expected a nonnegative "
            "even 1 - s + c, got 1)")
    assert proc.returncode == 1 and proc.stderr == "FAILED\n"
    assert proc.stdout.splitlines() == [
        "netto identities: 93 checks",
        f"census closed forms: {fail}",
        f"oracle circle counts and orientations: {fail}",
        f"determinant equality: {fail}",
        "billiard orientation patterns: 1350 checks",
        f"knot class multiplicities: {fail}",
        "link detection: 1 checks",
    ]


def test_value_error_other_than_usage_is_a_program_fault(monkeypatch, capsys):
    # analyze's kernel returns nothing to unpack: the ValueError comes from
    # the program, not from its input, so it exits 1 and names its type
    monkeypatch.setattr(diagram, "_scan", lambda r: ())
    code, out, err = run(["analyze", "+-+-"], capsys)
    assert code == 1 and out == ""
    assert err == "error: ValueError: not enough values to unpack (expected 6, got 0)\n"


@pytest.mark.parametrize("argv, message", [
    (["analyze", "+-x"], "invalid character 'x' at position 2"),
    (["bound", "abc"], "range must be N or A..B, got 'abc'"),
    (["bound", "7..5"], "need 3 <= A <= B, got '7..5'"),
    (["census", "2"], "need c >= 3, got 2"),
    (["census", "2", "--per-word"], "need c >= 3, got 2"),
    (["classes", "2"], "need c >= 3, got 2"),
    (["enumerate", "2"], "model words need at least 3 runs, got c=2"),
    (["sample", "0", "1", "1"], "word length must be >= 1"),
    (["sample", "1", "-1", "1"], "count must be >= 0"),
    (["check", "2"], "need c_max >= 3, got 2"),
], ids=" ".join)
def test_usage_errors_exit_2_with_one_line(argv, message, capsys):
    assert run(argv, capsys) == (2, "", f"error: {message}\n")


# classify adds one to the last exponent, so p comes out even;
# KnotFraction's ValueError is a program fault here (exit 1), not a usage
# error, also under python -O
_PLANTED_FRACTION = """
import sys
from twobridge import cli, rational
real = rational.classify
rational.classify = lambda exponents: real([*exponents[:-1], exponents[-1] + 1])
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
@pytest.mark.parametrize("argv, word, fraction", [
    (["analyze", "+--+-+-"], "+--+-+-", "18/5"),
    (["census", "7", "--format", "json"], "+-+-+-+", "34/21"),
], ids=["analyze", "census-json"])
def test_knot_fraction_fault_exits_1(flags, argv, word, fraction):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_FRACTION, *argv],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: knot fraction at word {word}: expected p odd, "
                           f"0 < q < p, coprime, got p must be odd, got {fraction}\n")


# the product of two halves comes out with its columns swapped, so the
# continuant determinant p q' - p' q changes sign; the 3,001-letter word's
# exponents are halved once, and the error names the determinant, not p and q
_PLANTED_PRODUCT = """
import sys
from twobridge import cli, rational
real = rational._mul
rational._mul = lambda x, y: (lambda a, b, c, d: (b, a, d, c))(*real(x, y))
sys.exit(cli.main(["sample", "3001", "1", "1"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_continuant_product_fault_exits_1(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_PRODUCT],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: knot fraction at word +")
    assert proc.stderr.endswith(": expected p odd, 0 < q < p, coprime, got "
                                "p q' - p' q must be (-1)^k = 1, got -1\n")


# ----------------------------------------------------------------- census

def test_census_human_pinned_values(capsys):
    code, out, _ = run(["census", "6"], capsys)
    assert code == 0
    assert "avg seifert circles: 19/5 (3.800000)" in out
    assert "avg genus: 8/5 (1.600000)" in out
    assert "avg genus lower bound: 11/10 (1.100000)" in out
    assert "vertical contributions by index (2..5): 3 4 4 3" in out


def test_census_per_word_csv_row_count(capsys):
    code, out, _ = run(["census", "7", "--per-word", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 12  # header + 11 words
    assert {r[0] for r in rows[1:]} == {row[0] for row in golden.ROWS_C7}


def test_census_json_shape(capsys):
    code, out, _ = run(["census", "6", "--format", "json"], capsys)
    blob = json.loads(out)
    assert blob["word_count"] == 5
    assert blob["avg_genus"] == {"num": 8, "den": 5, "decimal": "1.600000"}
    assert "words" not in blob


def test_census_rejects_bad_c(capsys):
    code, _, err = run(["census", "2"], capsys)
    assert code == 2 and "c >= 3" in err


def test_census_invariant_failure_is_one_line_exit_1(capsys, monkeypatch):
    real = diagram.analyze

    def one_more_viable(r):
        a = real(r)
        return a._replace(viable=a.viable + 1)

    monkeypatch.setattr(diagram, "analyze", one_more_viable)
    # the json form enumerates; human and csv read the closed forms, not analyze
    code, out, err = run(["census", "6", "--format", "json"], capsys)
    assert code == 1 and out == ""
    assert err == "error: average genus at c=6: expected 8/5, got 11/10\n"


def test_invariant_failure_with_huge_values_is_one_line(capsys, monkeypatch):
    # an exact value above the interpreter's int/str digit limit
    huge = "1" + "0" * 5000

    def planted(c):
        raise words.InvariantError("planted", f"c={c}", 10 ** 5000, 0)

    monkeypatch.setattr(census, "closed_form_totals", planted)
    code, out, err = run(["census", "7"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: planted at c=7: expected {huge}, got 0\n"


def test_census_aggregates_need_no_enumeration(capsys):
    code, out, _ = run(["census", "1000"], capsys)
    assert code == 0
    assert f"words: {census.model_count(1000)} (star -1)" in out.splitlines()
    assert out.endswith(f"knot classes: {census.knot_class_count(1000)}\n")
    code, out, _ = run(["census", "1000", "--format", "csv"], capsys)
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert int(row[header.index("word_count")]) == census.model_count(1000)


_ABOVE_CEILING = str(words.ENUMERATION_CEILING + 1)


@pytest.mark.parametrize("argv", [
    ["census", _ABOVE_CEILING, "--per-word"],
    ["census", _ABOVE_CEILING, "--format", "json"],
    ["classes", _ABOVE_CEILING],
    ["enumerate", _ABOVE_CEILING],
    ["enumerate", _ABOVE_CEILING, "--format", "csv"],
    ["enumerate", _ABOVE_CEILING, "--format", "json"],
], ids=["per-word", "json", "classes", "enumerate", "enumerate-csv", "enumerate-json"])
def test_enumerating_paths_refuse_above_ceiling(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"above the enumeration ceiling {words.ENUMERATION_CEILING}" in err


def test_check_refuses_above_its_ceiling_before_any_work(monkeypatch, capsys):
    def no_work(*args):
        raise RuntimeError("no census or enumeration")

    for module in (census, crosscheck, words):
        monkeypatch.setattr(module, "enumerate_model_words", no_work)
    monkeypatch.setattr(census, "run_census", no_work)
    code, out, err = run(["check", str(crosscheck.CHECK_CEILING + 1)], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: c_max={crosscheck.CHECK_CEILING + 1} is above the check "
                   f"ceiling {crosscheck.CHECK_CEILING}\n")
    # the ceiling itself is accepted: the checks start, and fail on the stubs
    code, out, err = run(["check", str(crosscheck.CHECK_CEILING)], capsys)
    assert code == 1 and "RuntimeError: no census or enumeration" in out


def test_bound_refuses_above_its_ceiling_before_any_closed_form(monkeypatch, capsys):
    def no_work(c):
        raise RuntimeError("no closed form")

    monkeypatch.setattr(census, "closed_form_totals", no_work)
    above = cli.BOUND_CEILING + 1
    for arg, refused in [(str(above), above), (f"3..{above}", above),
                         ("10000000000", 10 ** 10)]:
        code, out, err = run(["bound", arg], capsys)
        assert code == 2 and out == ""
        assert err == f"error: c={refused} is above the bound ceiling {cli.BOUND_CEILING}\n"
    # the ceiling itself is accepted: the closed forms start, and fail on the stub
    with pytest.raises(RuntimeError, match="no closed form"):
        cli.main(["bound", f"{cli.BOUND_CEILING}..{cli.BOUND_CEILING}"])


def test_output_ceiling_refuses_before_any_closed_form(monkeypatch, capsys):
    def no_work(c):
        raise RuntimeError("no closed form")

    monkeypatch.setattr(census, "closed_form_totals", no_work)
    ceiling = cli.OUTPUT_CEILING
    # human census C writes c (c - 2) bits, bound 3..B (3 + B)(B - 2) and
    # (3 + 16)(16 - 2) more for the exact column up to the default ceiling 16
    exact = 19 * 14
    c = next(c for c in itertools.count(3) if c * (c - 2) > ceiling)
    b = next(b for b in itertools.count(3) if (3 + b) * (b - 2) + exact > ceiling)
    for argv, bits in [(["census", str(c)], c * (c - 2)),
                       (["bound", f"3..{b}"], (3 + b) * (b - 2) + exact),
                       (["census", "300000"], 300000 * 299998),
                       (["bound", "3..1000000"], 1000003 * 999998 + exact)]:
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == (f"error: {' '.join(argv)} would write about {bits} bits, "
                       f"above the output ceiling {ceiling}\n")
    # the values below the first refused ones, and the largest runs README
    # names, are accepted: the closed forms start, and fail on the stub
    for argv in (["census", str(c - 1)], ["bound", f"3..{b - 1}"], ["census", "40000"],
                 ["bound", "3..20000"], ["bound", "1000000"]):
        with pytest.raises(RuntimeError, match="no closed form"):
            cli.main(argv)
    # the ceiling itself is accepted: census 8 writes 8 * 6 bits
    monkeypatch.setattr(cli, "OUTPUT_CEILING", 8 * 6)
    with pytest.raises(RuntimeError, match="no closed form"):
        cli.main(["census", "8"])
    assert run(["census", "9"], capsys)[:2] == (2, "")


def test_output_ceiling_counts_the_exact_column(monkeypatch, capsys):
    def no_work(c):
        raise RuntimeError("no closed form")

    monkeypatch.setattr(census, "closed_form_totals", no_work)
    # bound A..B writes two c-bit integers a row, and two more a row up to
    # M = min(B, --exact-ceiling): (A + B)(B - A + 1) + (A + M)(M - A + 1) bits
    # the lower-bound column alone fits, so the refusal names the flag
    code, out, err = run(["bound", "3..31623", "--exact-ceiling", "31623"], capsys)
    bits = 2 * 31626 * 31621
    assert bits > cli.OUTPUT_CEILING
    assert code == 2 and out == ""
    assert err == (f"error: bound 3..31623 --exact-ceiling 31623 would write about {bits} "
                   f"bits, above the output ceiling {cli.OUTPUT_CEILING}\n")
    # one row less is accepted: the closed forms start, and fail on the stub
    assert 2 * 31625 * 31620 <= cli.OUTPUT_CEILING
    with pytest.raises(RuntimeError, match="no closed form"):
        cli.main(["bound", "3..31622", "--exact-ceiling", "31622"])
    # an exact ceiling below A adds nothing, however low
    with pytest.raises(RuntimeError, match="no closed form"):
        cli.main(["bound", "3..44720", "--exact-ceiling", "-100000"])
    # the lower-bound column alone is over, so the refusal names the range alone
    bits = 44724 * 44719
    assert bits > cli.OUTPUT_CEILING
    assert run(["bound", "3..44721", "--exact-ceiling", "2"], capsys) == (
        2, "", f"error: bound 3..44721 would write about {bits} bits, "
               f"above the output ceiling {cli.OUTPUT_CEILING}\n")


def test_csv_census_refuses_above_the_bound_ceiling(monkeypatch, capsys):
    def no_work(c):
        raise RuntimeError("no closed form")

    monkeypatch.setattr(census, "closed_form_totals", no_work)
    above = cli.BOUND_CEILING + 1
    code, out, err = run(["census", str(above), "--format", "csv"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: c={above} is above the bound ceiling {cli.BOUND_CEILING}\n"
    # the ceiling itself is accepted, though its human form is refused
    with pytest.raises(RuntimeError, match="no closed form"):
        cli.main(["census", str(cli.BOUND_CEILING), "--format", "csv"])
    assert run(["census", str(cli.BOUND_CEILING)], capsys)[:2] == (2, "")


def test_enumeration_ceiling_is_inclusive():
    assert census.model_count(words.ENUMERATION_CEILING) == 5_592_405
    assert words.enumeration_tasks(words.ENUMERATION_CEILING)


# closed_form_totals reports one viable crossing too many; python -O must
# not switch the checks off on the path that does not enumerate, where the
# genus parity check is the one that can see it
_PLANTED_PARITY_FAULT = """
import sys
from twobridge import census, cli
real = census.closed_form_totals
census.closed_form_totals = lambda c: real(c)._replace(viable_total=real(c).viable_total + 1)
sys.exit(cli.main(["census", "8"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_census_fails_on_planted_parity_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_PARITY_FAULT],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: genus parity at c=8: expected a whole genus "
                           "total, got 87/2\n")


# the same fault under bound argv[1]: each row's report passes check_report
# before it is written, so the first row's parity fault leaves stdout empty
_PLANTED_BOUND_PARITY_FAULT = """
import sys
from twobridge import census, cli
real = census.closed_form_totals
census.closed_form_totals = lambda c: real(c)._replace(viable_total=real(c).viable_total + 1)
sys.exit(cli.main(["bound", sys.argv[1]]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
@pytest.mark.parametrize("bound_range, c, genus_total", [("8", 8, "87/2"), ("6..9", 6, "15/2")],
                         ids=["single", "range"])
def test_bound_fails_on_planted_parity_fault(flags, bound_range, c, genus_total):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_BOUND_PARITY_FAULT,
                           bound_range], capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: genus parity at c={c}: expected a whole genus "
                           f"total, got {genus_total}\n")


@pytest.mark.parametrize("argv, calls", [
    (["census", "15"], 1),
    (["census", "15", "--format", "csv"], 1),
    (["census", "15", "--format", "json"], 1),
    (["census", "9", "--per-word"], 1),
    (["classes", "12"], 1),
    (["bound", "3..16"], 14),
    (["check", "11"], 9),  # one census for each c = 3..11
], ids=["human", "csv", "json", "per-word", "classes", "bound", "check"])
def test_closed_forms_are_evaluated_once_per_report(argv, calls, capsys, monkeypatch):
    # check_report reads only the report; run_census alone compares a
    # report with the closed forms, so no report evaluates them twice
    cs = []
    real = census.closed_form_totals
    monkeypatch.setattr(census, "closed_form_totals", lambda c: cs.append(c) or real(c))
    code, _, _ = run(argv, capsys)
    assert code == 0 and len(cs) == calls


# closed_form_totals shifts the viable total by the even amount argv[1],
# which keeps the genus total whole, so the genus bounds check is the one
# that sees it: at c=8 the bounds hold for 0 <= viable <= 82 and 59 is right
_PLANTED_BOUNDS_FAULT = """
import sys
from twobridge import census, cli
real = census.closed_form_totals
shift = int(sys.argv[1])
census.closed_form_totals = lambda c: real(c)._replace(viable_total=real(c).viable_total + shift)
sys.exit(cli.main(["census", "8"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
@pytest.mark.parametrize("shift, avg_genus", [(24, "32/21"), (-60, "74/21")],
                         ids=["above_vertical", "below_zero"])
def test_census_fails_on_planted_bounds_fault(flags, shift, avg_genus):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_BOUNDS_FAULT, str(shift)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: genus bounds at c=8: expected 65/42..7/2, "
                           f"got {avg_genus}\n")


# a fault planted in diagram's run automaton, which analyze and the scan
# both read, so only the enumerating route can see it; argv is the tests
# directory and the fault's name
_PLANTED_TABLE = """
import sys
sys.path.insert(0, sys.argv[1])
import table_faults
from twobridge import cli
table_faults.plant(sys.argv[2])
sys.exit(cli.main(["census", "15", "--format", "json"]))
"""


@pytest.mark.parametrize("fault", table_faults.ALL_FAULTS)
def test_census_fails_on_planted_table_fault(fault):
    procs = [subprocess.run([sys.executable, *flags, "-c", _PLANTED_TABLE,
                             str(Path(__file__).parent), fault],
                            capture_output=True, text=True, check=False)
             for flags in (["-O"], [])]
    optimized, plain = [(p.returncode, p.stdout, p.stderr) for p in procs]
    assert optimized == plain
    code, out, err = plain
    error = table_faults.ALL_FAULTS[fault][0]
    assert code == 1 and out == "" and err.startswith(f"error: {error}: ")


# closed_form_totals reports two viable crossings too many: genus parity
# cannot see it, the comparison with the enumerated totals can
_PLANTED_CLOSED_FORM = """
import sys
from twobridge import census, cli
real = census.closed_form_totals
census.closed_form_totals = lambda c: real(c)._replace(viable_total=real(c).viable_total + 2)
sys.exit(cli.main(["census", "15", "--format", "json"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_census_fails_on_planted_closed_form_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_CLOSED_FORM],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    closed = census.closed_form_totals(15)
    assert proc.stderr == (f"error: closed-form totals at c=15: expected "
                           f"{closed._replace(viable_total=closed.viable_total + 2)}, "
                           f"got {closed}\n")


# index_contribution counts one vertical crossing too many at index 5 only
_PLANTED_INDEX = """
import sys
from twobridge import census, cli
real = census.index_contribution
census.index_contribution = lambda c, i: real(c, i) + (i == 5)
sys.exit(cli.main(["census", "20"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_census_fails_on_planted_index_contribution_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_INDEX],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    vertical = census.closed_form_totals(20).vertical_total
    assert proc.stderr == (f"error: vertical total by index at c=20: expected "
                           f"{vertical}, got {vertical + 1}\n")


# analyze reports V at the first or last crossing of every word, where the
# theory never puts one, yet keeps its own vertical count; the per-index
# tally must see the stray V in place, not drop or shift it
_PLANTED_END_V = """
import sys
from twobridge import cli, diagram
real = diagram.analyze
first = sys.argv[1] == "first"

def planted(r):
    s = real(r).smoothings
    return real(r)._replace(smoothings="V" + s[1:] if first else s[:-1] + "V")

diagram.analyze = planted
sys.exit(cli.main(["census", "6", "--format", "json"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
@pytest.mark.parametrize("end, tally", [("first", "(5, 3, 4, 4, 3, 0)"),
                                        ("last", "(0, 3, 4, 4, 3, 5)")])
def test_census_fails_on_planted_end_crossing_v(flags, end, tally):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_END_V, end],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: per-index vertical counts at c=6: expected "
                           f"(0, 3, 4, 4, 3, 0), got {tally}\n")


@pytest.mark.parametrize("argv, indices", [
    (["census", "40", "--format", "csv"], []),
    (["census", "40"], [(40, i) for i in range(2, 40)]),
    (["census", "12", "--format", "json"], [(12, i) for i in range(2, 12)] * 2),
], ids=["csv", "human", "json"])
def test_census_computes_index_contributions_only_where_printed(argv, indices, capsys,
                                                                index_calls):
    # the CSV row holds no per-index counts; human output computes each
    # once, and JSON twice, in run_census's check and when printed
    code, _, _ = run(argv, capsys)
    assert code == 0 and index_calls == indices


def test_census_writes_the_per_index_line_one_count_at_a_time():
    # the line runs to about 7.5 million characters at c=5000; only the
    # counts themselves (c^2 bits in all) are held
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = cli.main(["census", "5000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 6_000_000


def test_census_csv_output_pinned(capsys):
    # stdout sha256 pinned when every report still summed its index
    # contributions (c=3000) and when the totals still came from the scan
    for c, digest in (
            ("3000", "a0675dd9ebfa5592a118b3bbb96444173686b51c26119f061344784469b43c92"),
            ("20000", "7326f5a6d3a7636857db22f021a316d92c298b5387da34a1e1fa9d28006bf117")):
        code, out, _ = run(["census", c, "--format", "csv"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, c


def test_census_reads_only_the_closed_forms(capsys, monkeypatch):
    # human and CSV totals come from closed_form_totals; the scan is left
    # to the enumerating route and the tests
    scans = []
    real = census.scan_totals
    monkeypatch.setattr(census, "scan_totals", lambda c: scans.append(c) or real(c))
    for c in ("8", "1000"):
        for fmt in ("human", "csv"):
            code, out, _ = run(["census", c, "--format", fmt], capsys)
            assert code == 0 and out
    assert scans == []


def test_check_fails_on_planted_scan_fault(capsys, monkeypatch):
    real = census.scan_totals
    monkeypatch.setattr(census, "scan_totals",
                        lambda c: real(c)._replace(viable_total=real(c).viable_total + 1))
    code, out, err = run(["check", "6"], capsys)
    assert code == 1 and err == "FAILED\n"
    failed = [line for line in out.splitlines() if "FAIL" in line]
    assert [line.split(":")[0] for line in failed] == [
        "census closed forms", "knot class multiplicities"]
    assert all("InvariantError: scan totals at c=3" in line for line in failed)


# ------------------------------------------------------------------ bound

def test_bound_range_human(capsys):
    code, out, _ = run(["bound", "6..7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("c=6  avg genus lower bound: 11/10 (1.100000)"
                       "  avg genus: 8/5 (1.600000)")
    assert lines[1] == ("c=7  avg genus lower bound: 17/11 (1.545455)"
                       "  avg genus: 20/11 (1.818182)")


def test_bound_skips_census_above_ceiling(capsys):
    code, out, _ = run(["bound", "6..7", "--exact-ceiling", "6",
                        "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["6", "11/10", "8/5"]
    assert rows[2] == ["7", "17/11", ""]


def test_bound_single_value_json(capsys):
    code, out, _ = run(["bound", "7", "--format", "json"], capsys)
    blob = json.loads(out)
    assert blob == [{"c": 7,
                     "avg_genus_lower": {"num": 17, "den": 11,
                                         "decimal": "1.545455"},
                     "avg_genus": {"num": 20, "den": 11,
                                   "decimal": "1.818182"}}]


def test_bound_reads_only_the_closed_forms(capsys, monkeypatch, index_calls):
    # below the exact ceiling one closed-form report holds both columns: no
    # row runs the scan, and neither column reads the per-index counts
    scans = []
    real = census.scan_totals
    monkeypatch.setattr(census, "scan_totals", lambda c: scans.append(c) or real(c))
    code, out, _ = run(["bound", "3..16"], capsys)
    assert code == 0 and len(out.splitlines()) == 14
    assert scans == [] and index_calls == []


def test_bound_exact_column_matches_the_scan(capsys):
    # the scan is the check route of both printed columns
    code, out, _ = run(["bound", "3..300", "--exact-ceiling", "300", "--format", "csv"],
                       capsys)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["c", "avg_genus_lower", "avg_genus"]
    expected = []
    for c in range(3, 301):
        rep = census.scan_totals(c)
        expected.append([str(c), rational.csv_cell(rep.avg_genus_lower),
                         rational.csv_cell(rep.avg_genus)])
    assert rows == expected


def test_bound_above_the_exact_ceiling_sums_no_index_contribution(capsys, index_calls):
    # the bound reads the vertical total's closed form, not its O(c) check route
    code, out, _ = run(["bound", "17..2000"], capsys)
    assert code == 0 and len(out.splitlines()) == 1984
    assert index_calls == []


# stdout sha256 of long and huge bound runs, pinned when the bound still
# summed the index contributions of each c; the JSON run, the only output
# that sends the c-bit bounds through rational_json, was pinned while each
# average was still a chain of Fraction operations
BOUND_DIGESTS = {
    "3..2000": "ba65fb11a5ca8a8ffcdf2bac19a89b4742b78513a7d7cfc789d64742faa0447f",
    "15000": "4096a863c24b10a2ea8bc1f8df17a991677fb7558254e392edbc3bc5c36cd62a",
    "3..3000 --format json": "afe6434d6c3e7230a9c256ccef301abd9203bae2536d5afbf96a77b8cca71e9b",
}


@pytest.mark.parametrize("bound_range", sorted(BOUND_DIGESTS))
def test_bound_output_pinned(bound_range, capsys):
    code, out, _ = run(["bound", *bound_range.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUND_DIGESTS[bound_range]


def test_bound_rejects_malformed_range(capsys):
    # a bound of 5,000 digits: int() of user input keeps Python's guard
    for bad in ("abc", "7..5", "2..4", "", "9" * 5000):
        code, _, err = run(["bound", bad], capsys)
        assert code == 2, bad
        assert err


# an exact line longer than the interpreter's int/str digit limit,
# which main lifts while it writes output and restores before returning
_BIG_BOUND = """
import sys
from twobridge import cli
sys.set_int_max_str_digits(640)
code = cli.main(["bound", "2200"])
print(sys.get_int_max_str_digits())
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int/str digit limit")
def test_bound_prints_values_above_the_digit_limit():
    proc = subprocess.run([sys.executable, "-c", _BIG_BOUND],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    b = census.lower_bound_avg_genus(2200)
    assert len(str(b.denominator)) > 640
    assert proc.stdout == (f"c=2200  avg genus lower bound: "
                           f"{rational.format_rational(b)}\n640\n")


def test_output_without_a_digit_limit_is_the_same(monkeypatch, capsys):
    # Python 3.10.0 to 3.10.6 have no int/str digit limit to lift
    real = census.closed_form_totals

    def runs():
        out = [run(["census", "8"], capsys), run(["bound", "17..20", "--format", "json"], capsys)]
        with monkeypatch.context() as m:  # an InvariantError exit: a genus parity fault
            m.setattr(census, "closed_form_totals",
                      lambda c: real(c)._replace(viable_total=real(c).viable_total + 1))
            return [*out, run(["census", "8"], capsys)]

    with_limit = runs()
    assert with_limit[2] == (1, "", "error: genus parity at c=8: expected a whole genus "
                                    "total, got 87/2\n")
    for name in ("set_int_max_str_digits", "get_int_max_str_digits"):
        monkeypatch.delattr(sys, name, raising=False)
    assert runs() == with_limit


# -------------------------------------------------------------- enumerate

def test_enumerate_order_and_formats(capsys):
    code, out, _ = run(["enumerate", "6"], capsys)
    assert code == 0
    assert out.splitlines() == golden.ENUMERATION_ORDER_C6
    code, out, _ = run(["enumerate", "3", "--format", "json"], capsys)
    assert json.loads(out) == [{"first_sign": "+", "runs": [1, 2, 1]}]
    code, out, _ = run(["enumerate", "3", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["+--+", "+", "1 2 1"]


class _Discard:
    """A stdout that keeps nothing of what it receives."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_enumerate_json_is_written_one_word_at_a_time():
    # the 5,461 words are converted and written one by one, not as one value
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = cli.main(["enumerate", "16", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1_000_000


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("argv", [["bound", "3..3000"], ["sample", "3001", "100", "1"]],
                         ids=["bound", "sample"])
def test_bound_and_sample_write_one_row_at_a_time(argv, fmt):
    # each row is computed when the writer draws it; none is held
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = cli.main([*argv, "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1_000_000


# ---------------------------------------------------------------- classes

@pytest.mark.parametrize("argv", [["census", "10", "--per-word"], ["classes", "10"]],
                         ids=["census-per-word", "classes"])
def test_each_word_is_classified_once(argv, capsys, monkeypatch):
    # analyze decides a word's class; grouping and labels read it
    calls = []
    real = rational.classify

    def counting(exponents):
        calls.append(exponents)
        return real(exponents)

    monkeypatch.setattr(rational, "classify", counting)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert len(calls) == census.model_count(10) == 85


def test_classes_output(capsys):
    code, out, _ = run(["classes", "6"], capsys)
    assert code == 0
    assert sum(1 for line in out.splitlines()) == 3
    assert any(line.startswith("6_3:") for line in out.splitlines())
    code, out, _ = run(["classes", "6", "--format", "json"], capsys)
    blob = json.loads(out)
    assert {k["name"]: k["multiplicity"] for k in blob} == golden.CLASSES_C6


# ----------------------------------------------------------------- sample

def test_sample_deterministic_and_classified(capsys):
    _, first, _ = run(["sample", "10", "5", "42"], capsys)
    _, second, _ = run(["sample", "10", "5", "42"], capsys)
    assert first == second
    assert len(first.splitlines()) == 5
    for line in first.splitlines():
        assert " -> " in line


def test_sample_csv_includes_kind_column(capsys):
    _, out, _ = run(["sample", "7", "4", "3", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["sampled", "kind"]
    assert len(rows) == 5
    for r in rows[1:]:
        assert r[1] in ("model", "unknot", "link")


# stdout sha256 of three 3,001-letter words, each of which loses hundreds
# of triples on the way to its model word; pinned from the leftmost-move
# reduction that reduce replaced
SAMPLE_3001_DIGESTS = {
    "human": "de5c76fce42b2f7abd348c6bc5564543241e85071d9efb66759d0223e4bbfd60",
    "json": "a90bdeb0562781ebb6b5cbe0515ee86817a35592f0118ed927152f6bbc5ca7a7",
    "csv": "3c76f627b0508bdfbc7696a97cacd07bd077859fbc587ab4a3be62ee984c69d0",
}


@pytest.mark.parametrize("fmt", sorted(SAMPLE_3001_DIGESTS))
def test_sample_long_words_output_pinned(fmt, capsys):
    code, out, err = run(["sample", "--format", fmt, "3001", "3", "7"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_3001_DIGESTS[fmt]


# stdout sha256 of one 10^6-letter word (c = 308,559), pinned when its
# fraction was a right fold and its class pow(q, -1, p), each quadratic
SAMPLE_LONG_DIGEST = "b1d4ab978a650e3b1e0de46b07d1d27e34f161ac0867cd53b8fb8dae8f72b3d7"


def test_sample_million_letter_word_output_pinned(capsys):
    code, out, err = run(["sample", "1000000", "1", "1"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_LONG_DIGEST


# a sample of no words: human output is empty, JSON "[]", CSV the header alone
SAMPLE_EMPTY_DIGESTS = {
    "human": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "csv": "0ec425a9182c0286b4c28b677dbb2853a48f68274d1607563156bd00c4b7c829",
}


@pytest.mark.parametrize("fmt", sorted(SAMPLE_EMPTY_DIGESTS))
def test_sample_of_no_words_output_pinned(fmt, capsys):
    code, out, err = run(["sample", "--format", fmt, "10", "0", "1"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_EMPTY_DIGESTS[fmt]


@pytest.mark.parametrize("n", ["67108864", "99999999999999"])
def test_sample_refuses_words_of_2_to_the_26_letters(n, capsys):
    code, out, err = run(["sample", n, "1", "1"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: word length must be below 67108864, got {n}\n"
    assert run(["sample", n, "0", "1"], capsys) == (0, "", "")


def test_sample_link_length_warns_in_one_line(capsys):
    code, out, err = run(["sample", "8", "2", "1"], capsys)
    assert code == 0
    assert out == "++-+---- -> link\n++-+--+- -> link\n"
    assert err == ("warning: length 8 is 2 mod 3: "
                   "every sampled closure is a 2-component link\n")


# ------------------------------------------------------------------ check

def test_check_small_battery(capsys):
    code, out, err = run(["check", "5"], capsys)
    assert code == 0, err
    assert out.strip().endswith(")")
    assert "OK (" in out
    for name in ("netto identities", "oracle circle counts", "link detection"):
        assert any(name in line for line in out.splitlines())


# the whole check 11 report, pinned by its digest; python -O must print
# the same counts, so no check hides behind an assert
CHECK_11_SHA256 = "f73b67c3a67c380b4e3586620d0a402b4a90e5638e646fb115fca7db9ea7e949"


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_check_11_stdout_is_pinned(flags):
    proc = subprocess.run([sys.executable, *flags, "-m", "twobridge.cli", "check", "11"],
                          capture_output=True, check=False, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == CHECK_11_SHA256


# diagram.analyze reports s + 1, then the check battery runs; python -O
# must not switch the oracle check off
_PLANTED_CHECK = """
import sys
from twobridge import cli, diagram
real = diagram.analyze
diagram.analyze = lambda r: real(r)._replace(s=real(r).s + 1)
sys.exit(cli.main(["check", "6"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_check_fails_on_planted_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_CHECK],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if "FAIL" in line]
    assert failed == ["oracle circle counts and orientations: FAIL (InvariantError: "
                      "oracle Seifert circle count at word +--+: expected 2, got 3)"]
    assert len(lines) == 7 and proc.stderr == "FAILED\n"


# the Goeritz pass reads a diagram whose edges at crossing 0's nw and ne
# corners are swapped, so its face orbit no longer traces a plane graph;
# python -O must not switch the structural checks off
_PLANTED_PLANAR = """
import sys
from twobridge import cli, planar
real = planar.goeritz_determinant

def twisted(pd):
    other = list(pd.other)
    a, b = other[0], other[1]
    other[0], other[1], other[a], other[b] = b, a, 1, 0
    return real(planar.PlanarDiagram(pd.crossings, other, pd.start))

planar.goeritz_determinant = twisted
sys.exit(cli.main(["check", "6"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_check_fails_on_planted_planar_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_PLANAR],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if "FAIL" in line]
    assert failed == ["determinant equality: FAIL (InvariantError: checkerboard colouring "
                      "at strip 0/ 0/ 0/: expected quadrant 8 in a face of colour 1, "
                      "got face 0 of colour 0)"]
    assert len(lines) == 7 and proc.stderr == "FAILED\n"


# a reader that closes after the first line, as head -1 does, is no failure
@pytest.mark.parametrize("argv", [
    ["enumerate", "20"], ["enumerate", "20", "--format", "json"],
    ["enumerate", "20", "--format", "csv"], ["bound", "3..3000"],
    ["classes", "14", "--format", "csv"], ["census", "6", "--format", "json"],
], ids=" ".join)
def test_reader_closing_early_exits_0_quietly(argv):
    proc = subprocess.Popen([sys.executable, "-m", "twobridge.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0 and err == b""
    assert first.endswith(b"\n")


def test_check_rejects_small_c_max(capsys):
    code, out, err = run(["check", "2"], capsys)
    assert code == 2 and out == ""
    assert "c_max >= 3" in err


# ----------------------------------------------------------------- writer

def _json_shapes():
    """Values of the shapes the subcommands hand to the JSON writer."""
    a = diagram.analyze(words.normalize_to_model("+--+-+-").run_word)
    rep = census.run_census(6, per_word=True)
    return {
        "empty": [],
        "one": [a],
        "two": [a, a.runs],
        "generator": (r for r in words.enumerate_model_words(5)),
        "bound": [{"c": 7, "avg_genus_lower": Fraction(17, 11), "avg_genus": None},
                  {"c": 6, "avg_genus_lower": Fraction(11, 10), "avg_genus": Fraction(8, 5)}],
        "sample": [{"sampled": "+--+-+-", "kind": words.MODEL, "analysis": a},
                   {"sampled": "++", "kind": words.LINK, "analysis": None}],
        "knot-classes": rep.knot_classes,
        "knot-class": rep.knot_classes[0],
        "analysis": a,
        "census": rep,
        "dict": {"kind": words.UNKNOT},
    }


_WHOLE = ("knot-class", "analysis", "census", "dict")


@pytest.mark.parametrize("shape", sorted(_json_shapes()))
def test_json_writer_matches_json_dump(shape, capsys, monkeypatch):
    # a list or iterator goes out element by element, a record or dict whole,
    # either way byte for byte what json.dump writes for the whole value
    value, same = _json_shapes()[shape], _json_shapes()[shape]
    if shape == "generator":
        same = list(same)
    expected = json.dumps(rational.json_value(same), indent=2) + "\n"
    seen = []
    real = rational.json_value
    monkeypatch.setattr(rational, "json_value", lambda x: seen.append(x) or real(x))
    cli._write("json", value, (), (), ())
    assert capsys.readouterr().out == expected
    assert any(x is value for x in seen) == (shape in _WHOLE)


# ------------------------------------------------------------ entry point

def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twobridge.cli", "analyze", "+--+"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert "knot: 3_1" in proc.stdout


def test_cli_import_loads_no_process_machinery():
    # the CLI runs in one process, so starting it need not import the
    # process pool and everything it pulls in
    probe = ("import sys, twobridge.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('concurrent', 'multiprocessing'))))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the json and csv modules loaded after the import and after one run
_FORMAT_MODULES = """
import sys
from twobridge import cli
loaded = lambda: sorted({"json", "csv"} & set(sys.modules))
print(loaded(), file=sys.stderr)
cli.main(["analyze", "+--+", *sys.argv[1:]])
print(loaded(), file=sys.stderr)
"""


@pytest.mark.parametrize("flags, loaded", [
    ([], []), (["--format", "json"], ["json"]), (["--format", "csv"], ["csv"])],
    ids=["human", "json", "csv"])
def test_cli_loads_json_and_csv_only_for_their_format(flags, loaded):
    proc = subprocess.run([sys.executable, "-c", _FORMAT_MODULES, *flags],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]", str(loaded)]
    assert "3_1" in proc.stdout


def test_repeat_invocations_byte_identical(capsys):
    for argv in (["census", "7", "--per-word", "--format", "json"],
                 ["classes", "7", "--format", "csv"],
                 ["bound", "3..8", "--format", "csv"]):
        _, a, _ = run(argv, capsys)
        _, b, _ = run(argv, capsys)
        assert a == b
