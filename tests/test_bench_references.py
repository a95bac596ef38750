"""The benchmark's full-size outputs, rebuilt from the library and the CLI.

bench/reference.json pins, for each `full` workload, the summary of its
library result and the sha256 of its CLI stdout.  The tier-1 benchmark
smoke run covers only small inputs, so this rebuilds the full-size ones:
the `census 15` totals and report, the `bound 17..100` fractions and
report, and for each of the 64 seeds the `sample` workload draws from,
the sha256 of its library records (15 random 3,001-letter words, each
reduced, normalized and analyzed) and of its `sample 3001 15 S` report.
`check 11` is pinned in test_cli.py.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from twobridge import census, cli, diagram, words

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = BENCH / "reference.json"


@pytest.fixture(scope="module")
def refs():
    return json.loads(REFERENCE.read_text())["full"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_sha256(argv, capsys):
    # the digest bench/run.py takes of the console command's stdout
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == "", (argv, err)
    return sha256(out)


def fraction_text(x):
    return f"{x.numerator}/{x.denominator}"


def sample_digest(n, count, seed):
    # the digest bench/run.py's sample_summary takes of sample_job's records
    records = []
    for w in words.sample(n, count, seed):
        norm = words.normalize_to_model(w)
        a = diagram.analyze(norm.run_word) if norm.kind == words.MODEL else None
        records.append([w, norm.kind, None if a is None else a.to_json()])
    return sha256(json.dumps(records, sort_keys=True))


def test_full_census_references_rebuild(refs, capsys):
    rep = census.run_census(15)
    assert {
        "word_count": rep.word_count,
        "vertical_total": rep.vertical_total,
        "viable_total": rep.viable_total,
        "sequential_total": rep.sequential_total,
        "avg_genus": fraction_text(rep.avg_genus),
        "knot_classes": len(rep.knot_classes),
    } == refs["census"]["lib"]
    assert cli_sha256(["census", "15"], capsys) == refs["census"]["cli_sha256"]


def test_full_bound_references_rebuild(refs, capsys):
    bounds = [fraction_text(census.lower_bound_avg_genus(c)) for c in range(17, 101)]
    assert bounds == refs["bound"]["lib"]
    assert cli_sha256(["bound", "17..100"], capsys) == refs["bound"]["cli_sha256"]


def test_full_sample_references_rebuild(refs, capsys):
    assert sorted(refs["sample"], key=int) == [str(s) for s in range(64)]
    for seed, ref in refs["sample"].items():
        assert sample_digest(3001, 15, int(seed)) == ref["lib"], seed
        assert cli_sha256(["sample", "3001", "15", seed], capsys) == ref["cli_sha256"], seed


def test_bench_targets_exist(monkeypatch):
    # bench/run.py's tracer reads every target from sys.modules once the
    # CLI and the check battery are loaded; a renamed function or a module
    # no longer loaded there fails here by name, not inside the tracer
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports spans.py beside it
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    importlib.import_module("twobridge.cli")
    importlib.import_module("twobridge.crosscheck")
    missing = [f"{t.module}.{t.attr}" for t in run.TARGETS
               if not hasattr(sys.modules.get(t.module), t.attr)]
    assert run.TARGETS
    assert missing == []
