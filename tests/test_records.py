"""The record contract: every record is a named tuple with fixed fields,
value equality and hashing, read-only fields and validated construction,
and importing the CLI loads neither dataclasses nor inspect."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import twobridge
from twobridge import census, diagram, planar, rational, words


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, twobridge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _word():
    return words.RunWord("+", (1, 2, 1, 1, 1, 1))


# record -> (a function building one value afresh, its fields in order)
RECORDS = {
    "RunWord": (_word, ("first_sign", "runs")),
    "Normalized": (lambda: words.normalize_to_model("+--+-+-"), ("kind", "run_word")),
    "KnotFraction": (lambda: rational.KnotFraction(11, 3), ("p", "q")),
    "KnotClass": (lambda: census.run_census(7).knot_classes[3],
                  ("p", "q", "q_star", "name", "multiplicity", "words", "genus")),
    "CrossingInfo": (lambda: diagram.full_diagram(_word())[3],
                     ("index", "generator", "run_sign", "run_length", "start_position",
                      "smoothing", "viable", "sequential")),
    "WordAnalysis": (lambda: diagram.analyze(_word()),
                     ("word", "runs", "alternating", "smoothings", "vertical", "viable",
                      "sequential", "s", "s_lower", "s_upper", "genus", "p", "q", "q_star",
                      "name", "palindromic")),
    "CensusReport": (lambda: census.run_census(7, per_word=True),
                     ("c", "word_count", "vertical_total", "viable_total",
                      "sequential_total", "knot_classes", "analyses")),
    "Crossing": (lambda: planar.Crossing(lower=1, over="\\"), ("lower", "over")),
    "PlanarDiagram": (lambda: planar.billiard_pd("+-+"), ("crossings", "other", "start")),
    "OrientedDiagram": (lambda: planar.orient(planar.alternating_pd(["s1"] * 3)),
                        ("pd", "state")),
    "CanonicalClass": (lambda: rational.canonical_class(rational.KnotFraction(9, 7)),
                       ("p", "q_star")),
}


def test_every_named_tuple_is_a_checked_record():
    defined = set()
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module(f"twobridge.{info.name}")
        defined.update(name for name, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, tuple)
                       and hasattr(obj, "_fields") and obj.__module__ == module.__name__)
    assert defined == set(RECORDS)


# a failed invariant means the program is wrong (exit 1), an input error
# that the input is (exit 2)
INVARIANT_ERRORS = {"InvariantError", "ParityError", "MultiComponent"}
INPUT_ERRORS = {"UsageError", "WordSyntaxError", "NotReducedForm"}
# the input errors the CLI turns into exit 2; NotReducedForm never reaches it
USAGE_ERRORS = {"UsageError", "WordSyntaxError"}


def test_every_exception_is_an_invariant_or_an_input_error():
    defined = {}
    for info in pkgutil.iter_modules(twobridge.__path__):
        module = importlib.import_module(f"twobridge.{info.name}")
        defined.update((name, obj) for name, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, BaseException)
                       and obj.__module__ == module.__name__)
    assert set(defined) == INVARIANT_ERRORS | INPUT_ERRORS
    for name, cls in defined.items():
        invariant = name in INVARIANT_ERRORS
        assert issubclass(cls, words.InvariantError) is invariant, name
        assert issubclass(cls, ValueError) is not invariant, name
        assert issubclass(cls, words.UsageError) is (name in USAGE_ERRORS), name


@pytest.mark.parametrize("record", RECORDS)
def test_record_fields_equality_hash_and_immutability(record):
    build, fields = RECORDS[record]
    x, y = build(), build()
    assert type(x).__name__ == record and isinstance(x, tuple)
    assert type(x)._fields == fields
    assert x is not y and x == y and hash(x) == hash(y)
    assert repr(x).startswith(f"{record}({fields[0]}=")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
    with pytest.raises(AttributeError):
        x.extra = None
    assert x == y


def test_run_word_stores_a_list_of_runs_as_a_tuple():
    listed = words.RunWord("+", [1, 2, 1, 1, 1, 1])
    assert listed == _word() and hash(listed) == hash(_word())
    assert rational.csv_cell(listed) == rational.csv_cell(listed.runs) == "1 2 1 1 1 1"
    assert diagram.analyze(listed).csv_row() == diagram.analyze(_word()).csv_row()


@pytest.mark.parametrize("build, error, message", [
    (lambda: words.RunWord("+", (1, 3, 1)), words.NotReducedForm,
     "run lengths must be 1 or 2: (1, 3, 1)"),
    (lambda: words.RunWord("x", (1,)), words.NotReducedForm, "first sign must be + or -: 'x'"),
    (lambda: words.RunWord("+", ()), words.NotReducedForm, "empty run vector"),
    (lambda: words.RunWord("-", (2, 1)), words.NotReducedForm,
     "first and last runs must be single letters: (2, 1)"),
    (lambda: rational.KnotFraction(4, 1), ValueError, "p must be odd, got 4/1"),
    (lambda: rational.KnotFraction(5, 5), ValueError, "need 0 < q < p, got 5/5"),
    (lambda: rational.KnotFraction(9, 3), ValueError, "p, q must be coprime, got 9/3"),
], ids=["run-length", "first-sign", "empty", "ends", "even-p", "q-range", "coprime"])
def test_construction_is_validated(build, error, message):
    with pytest.raises(Exception) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("record, keys", [
    (_word, ["first_sign", "runs"]),
    (lambda: diagram.analyze(_word()), list(diagram.WordAnalysis.CSV_COLUMNS)),
    (lambda: census.run_census(7).knot_classes[0], list(rational.KnotClass.CSV_COLUMNS)),
    (lambda: census.closed_form_totals(7), [
        "c", "star", "word_count", "totals", "avg_s", "avg_s_upper", "avg_genus",
        "avg_genus_lower", "closed_form_vertical_total", "per_index_contributions",
        "knot_classes"]),
], ids=["RunWord", "WordAnalysis", "KnotClass", "CensusReport"])
def test_json_value_writes_records_as_objects(record, keys):
    # a record is a tuple, and a tuple that is not a record becomes a list
    value = rational.json_value(record())
    assert isinstance(value, dict) and list(value) == keys
    assert rational.json_value([{"x": (record(),)}]) == [{"x": [value]}]
