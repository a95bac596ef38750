"""Command line behavior: subcommand output, formats, exit codes,
byte-for-byte determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

import golden
from twobridge import cli


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


def test_analyze_rejects_garbage(capsys):
    code, out, err = run(["analyze", "+-x"], capsys)
    assert code == 2
    assert out == ""
    assert "invalid character" in err


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


def test_repeat_invocations_byte_identical(capsys):
    for argv in (["census", "7", "--per-word", "--format", "json"],
                 ["classes", "7", "--format", "csv"],
                 ["bound", "3..8", "--format", "csv"]):
        _, a, _ = run(argv, capsys)
        _, b, _ = run(argv, capsys)
        assert a == b
