"""Command line behavior: subcommand output, formats, exit codes,
byte-for-byte determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import subprocess
import sys

import pytest

import golden
from twobridge import census, cli, diagram, words


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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
real = diagram._crossing_lists

def one_more_viable(r):
    gens, smoothings, viable, sequential = real(r)
    return gens, smoothings, viable + [True], sequential

diagram._crossing_lists = one_more_viable
sys.exit(cli.main(["analyze", "+-+-"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_analyze_parity_fault_exits_1(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_PARITY],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: genus parity at s=4, c=4: expected a "
                           "nonnegative even 1 - s + c, got 1\n")


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
        return dataclasses.replace(a, viable=a.viable + 1)

    monkeypatch.setattr(diagram, "analyze", one_more_viable)
    # the json form enumerates; human and csv read the scan, not analyze
    code, out, err = run(["census", "6", "--format", "json"], capsys)
    assert code == 1 and out == ""
    assert err == "error: average genus at c=6: expected 8/5, got 11/10\n"


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
    ["check", _ABOVE_CEILING],
], ids=["per-word", "json", "classes", "enumerate", "check"])
def test_enumerating_paths_refuse_above_ceiling(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"above the enumeration ceiling {words.ENUMERATION_CEILING}" in err


def test_enumeration_ceiling_is_inclusive():
    assert census.model_count(words.ENUMERATION_CEILING) == 5_592_405
    assert words.enumeration_tasks(words.ENUMERATION_CEILING)


# scan_totals reports one viable crossing too many; python -O must not
# switch the checks off on the path that does not enumerate
_PLANTED_SCAN = """
import sys
from twobridge import census, cli
real = census.scan_totals
census.scan_totals = lambda c: real(c)._replace(viable=real(c).viable + 1)
sys.exit(cli.main(["census", "8"]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_census_fails_on_planted_scan_fault(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _PLANTED_SCAN],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: genus parity at c=8: expected a whole genus "
                           "total, got 87/2\n")


def test_check_fails_on_planted_scan_fault(capsys, monkeypatch):
    real = census.scan_totals
    monkeypatch.setattr(census, "scan_totals",
                        lambda c: real(c)._replace(viable=real(c).viable + 1))
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


def test_bound_computes_each_index_contribution_once(capsys, monkeypatch):
    # below the exact ceiling one scan_census report holds both columns
    calls = []
    real = census.index_contribution

    def counting(c, i):
        calls.append((c, i))
        return real(c, i)

    monkeypatch.setattr(census, "index_contribution", counting)
    code, out, _ = run(["bound", "3..16"], capsys)
    assert code == 0 and len(out.splitlines()) == 14
    assert len(calls) == len(set(calls)) == sum(c - 2 for c in range(3, 17)) == 105


def test_bound_rejects_malformed_range(capsys):
    for bad in ("abc", "7..5", "2..4", ""):
        code, _, err = run(["bound", bad], capsys)
        assert code == 2, bad
        assert err


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


# ---------------------------------------------------------------- classes

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


# diagram.analyze reports s + 1, then the check battery runs; python -O
# must not switch the oracle check off
_PLANTED_CHECK = """
import dataclasses, sys
from twobridge import cli, diagram
real = diagram.analyze
diagram.analyze = lambda r: dataclasses.replace(real(r), s=real(r).s + 1)
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
    assert failed == ["determinant equality: FAIL (InvariantError: face count n + 2 "
                      "at strip 0/ 0/ 0/: expected 5, got 3)"]
    assert len(lines) == 7 and proc.stderr == "FAILED\n"


def test_check_rejects_small_c_max(capsys):
    code, out, err = run(["check", "2"], capsys)
    assert code == 2 and out == ""
    assert "c_max >= 3" in err


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


def test_repeat_invocations_byte_identical(capsys):
    for argv in (["census", "7", "--per-word", "--format", "json"],
                 ["classes", "7", "--format", "csv"],
                 ["bound", "3..8", "--format", "csv"]):
        _, a, _ = run(argv, capsys)
        _, b, _ = run(argv, capsys)
        assert a == b
