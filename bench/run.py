"""Benchmark of the twobridge package: four batch workloads, timed end to
end and layer by layer.

Run from the repository root (standard library only, no install needed;
the package is loaded from ``src/``):

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # every workload
    python3 bench/run.py --smoke                         # tiny self-test

Every workload is one client in a closed loop: a single process runs one
job at a time, the next starting only after the previous one returned,
so one CPU is busy at a time (this process or one CLI child).

With ``--trace 0`` each loop iteration runs the workload's job once
in-process through the library (``wall_s``) and once through the
``twobridge`` console command in a fresh interpreter (``cli_wall_s``,
``peak_rss_mb``).  ``setup_s`` is the time a fresh interpreter takes to
import ``twobridge`` and ``twobridge.cli``, over 15 interpreters.  With
``--trace 1`` each iteration runs the job untraced, then traced, then
``cli.main`` traced with stdout captured, and reports per-layer self
times and counts (see spans.py) plus the tracing overhead.  Every
metric is the median of its samples in the run.  Every time is scaled to
nominal machine speed by a fixed probe timed right before and right
after it (see ``probe_s``); the unscaled medians are printed too.  Every
output is compared with the stored references in reference.json; a
mismatch, an exception or a nonzero exit counts as a failed operation.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  BENCHMARK.json and README.md
in this directory document the workloads.
"""

import argparse
import copy
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Target, Tracer, layer_times, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

# what the generated `twobridge` console script runs ([project.scripts])
CLI_CODE = "import sys; from twobridge.cli import main; sys.exit(main())"
SETUP_CODE = ("import time\nt = time.perf_counter()\nimport twobridge, twobridge.cli\n"
              "print(repr(time.perf_counter() - t), twobridge.__file__)")
CHILD_LIMIT_S = 170

SIZES = {
    "full": {
        "census": {"c": 15},
        "bound": {"lo": 17, "hi": 100},
        "sample": {"n": 3001, "count": 15, "pool": 64},
        "check": {"c_max": 11},
    },
    "smoke": {
        "census": {"c": 8},
        "bound": {"lo": 17, "hi": 20},
        "sample": {"n": 301, "count": 5, "pool": 4},
        "check": {"c_max": 6},
    },
}
SETUP_REPS = {"full": 15, "smoke": 2}

END_TO_END = [
    ("wall_s", "s"),
    ("cli_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

CHECKS = [
    "check_netto", "check_census_closed_forms", "check_oracle_agreement",
    "check_determinants", "check_orientation_patterns",
    "check_multiplicities", "check_link_detection",
]


def _reduce_counts(args, result):
    return {"letters_in": len(args[0]), "letters_removed": len(args[0]) - len(result)}


TARGETS = [
    Target("twobridge.words", "reduce", "words.reduce", _reduce_counts),
    Target("twobridge.words", "normalize_to_model", "words.normalize_to_model"),
    Target("twobridge.words", "enumeration_tasks", "words.enumerate"),
    Target("twobridge.words", "expand_task", "words.enumerate",
           lambda args, item: {"words": 1}),
    Target("twobridge.words", "enumerate_model_words", "words.enumerate"),
    Target("twobridge.diagram", "analyze", "diagram.analyze",
           lambda args, result: {"crossings": args[0].c}),
    Target("twobridge.diagram", "full_diagram", "diagram.full_diagram"),
    Target("twobridge.rational", "continued_fraction", "rational.continued_fraction"),
    Target("twobridge.rational", "canonical_class", "rational.canonical_class"),
    Target("twobridge.rational", "group_rows", "rational.group_rows",
           lambda args, result: {"classes": len(result)}),
    Target("twobridge.census", "run_census", "census.run_census"),
    Target("twobridge.census", "index_contribution", "census.index_contribution"),
    Target("twobridge.census", "lower_bound_avg_genus", "census.lower_bound_avg_genus"),
    *(Target("twobridge.planar", f, f"planar.{f}") for f in (
        "alternating_pd", "billiard_pd", "orient", "trace_seifert_circles",
        "goeritz_determinant")),
    *(Target("twobridge.crosscheck", f, f"crosscheck.{f}",
             lambda args, result: {"assertions": result}) for f in CHECKS),
    Target("twobridge.cli", "main", "cli.main"),
]

TIMED_LAYERS = list(dict.fromkeys(t.layer for t in TARGETS if t.layer != "cli.main"))
COUNTED = [
    ("words.reduce", "calls"), ("words.reduce", "letters_in"),
    ("words.reduce", "letters_removed"), ("words.enumerate", "words"),
    ("diagram.analyze", "calls"), ("diagram.analyze", "crossings"),
    ("rational.group_rows", "classes"), ("census.index_contribution", "calls"),
    *((f"crosscheck.{f}", "assertions") for f in CHECKS),
]


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in TIMED_LAYERS}
    units.update({f"{layer}.{key}": "count" for layer, key in COUNTED})
    units["diagram.analyze.us_per_crossing"] = "us"
    units["cli.main.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---- workloads: job (timed), summary (checked against reference.json)

def fraction_text(x):
    return f"{x.numerator}/{x.denominator}"


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def census_job(size, seed):
    from twobridge import census
    return census.run_census(size["c"])


def census_summary(rep):
    return {
        "word_count": rep.word_count,
        "vertical_total": rep.vertical_total,
        "viable_total": rep.viable_total,
        "sequential_total": rep.sequential_total,
        "avg_genus": fraction_text(rep.avg_genus),
        "knot_classes": len(rep.knot_classes),
    }


def bound_job(size, seed):
    from twobridge import census
    return [census.lower_bound_avg_genus(c) for c in range(size["lo"], size["hi"] + 1)]


def bound_summary(bounds):
    return [fraction_text(b) for b in bounds]


def sample_seed(size, seed):
    # the seed picks one of `pool` inputs whose outputs reference.json holds
    return seed % size["pool"]


def sample_job(size, seed):
    from twobridge import diagram, words
    records = []
    for w in words.sample(size["n"], size["count"], sample_seed(size, seed)):
        norm = words.normalize_to_model(w)
        a = diagram.analyze(norm.run_word) if norm.kind == words.MODEL else None
        records.append((w, norm.kind, a))
    return records


def sample_summary(records):
    return digest(json.dumps(
        [[w, kind, None if a is None else a.to_json()] for w, kind, a in records],
        sort_keys=True))


def check_job(size, seed):
    from twobridge import crosscheck
    return crosscheck.run_all(size["c_max"])


def check_summary(out):
    results, ok = out
    return {"ok": ok, "results": [list(r) for r in results]}


class Workload:
    def __init__(self, job, summary, cli_args):
        self.job = job
        self.summary = summary
        self.cli_args = cli_args


WORKLOADS = {
    "census": Workload(census_job, census_summary,
                       lambda s, seed: ["census", str(s["c"])]),
    "bound": Workload(bound_job, bound_summary,
                      lambda s, seed: ["bound", f"{s['lo']}..{s['hi']}"]),
    "sample": Workload(sample_job, sample_summary,
                       lambda s, seed: ["sample", str(s["n"]), str(s["count"]),
                                        str(sample_seed(s, seed))]),
    "check": Workload(check_job, check_summary,
                      lambda s, seed: ["check", str(s["c_max"])]),
}


def reference_for(refs, name, size, seed):
    """(library summary, CLI stdout sha256) expected for this input."""
    ref = refs[name]
    if name == "sample":
        ref = ref[str(sample_seed(size, seed))]
    return ref["lib"], ref["cli_sha256"]


# ---- measurement

class Tally:
    """Attempted and failed operations; failures are counted, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_cli(argv):
    """Run the console command in a fresh interpreter.

    Returns (seconds, stdout bytes, exit code, peak RSS in MB, stderr).
    """
    t = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI_CODE, *argv], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return elapsed, out, proc.returncode, usage.ru_maxrss / 1024, err[0].decode(errors="replace")


def measure_setup(reps, tally):
    """Import times of twobridge and twobridge.cli in fresh interpreters,
    as (scaled to nominal speed, unscaled) lists."""
    times, unscaled = [], []
    for i in range(reps + 1):
        before = probe_s()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=CHILD_LIMIT_S)
        fields = proc.stdout.split()
        ok = (proc.returncode == 0 and len(fields) == 2
              and Path(fields[1]).resolve().is_relative_to(SRC))
        if i == 0:
            # first import compiles bytecode; users pay it once per install
            if not ok:
                tally.record(False, f"setup import: {proc.stderr.strip()[-500:]}")
            continue
        factor = scale(before, probe_s())
        if tally.record(ok, f"setup import: {proc.stderr.strip()[-500:]}"):
            times.append(float(fields[0]) * factor)
            unscaled.append(float(fields[0]))
    return times, unscaled


# The probe: fixed standard-library work shaped like the package's (small
# frozen dataclasses, tuple-keyed dicts, big integers, string slicing).
# It never changes with the package, so timing it right before and right
# after each measured operation shows how fast the machine was just then.
PROBE_NOMINAL_S = 0.01


@dataclass(frozen=True)
class _ProbeItem:
    key: tuple
    value: int


def probe_s():
    t = perf_counter()
    table, items, acc = {}, [], 0
    for i in range(5000):
        key = (i & 7, i % 3, i >> 5)
        table[key] = table.get(key, 0) + i
        items.append(_ProbeItem(key, i))
        acc += (7 ** (i & 63)) % 1000003
    s = "+-+--+" * 600
    while len(s) > 3:
        s = s[3:]
    return perf_counter() - t


def scale(before, after):
    """Factor taking a time measured between two probes to nominal speed,
    the speed at which the probe takes PROBE_NOMINAL_S."""
    return 2 * PROBE_NOMINAL_S / (before + after)


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, so that the
    probes time the CPU that the measured operation runs on.  The loop has
    one operation in flight at a time, so this costs no parallelism."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def time_left(start, begun, seconds):
    """True while one more iteration, as long as the last, fits in the run."""
    now = perf_counter()
    return now - start + (now - begun) <= seconds


def timed_job(wl, size, seed, tally, what):
    """Run the job once between two probes.

    Returns (seconds, scale factor, summary or None).
    """
    gc.collect()
    before = probe_s()
    t = perf_counter()
    try:
        raw = wl.job(size, seed)
    except Exception as e:  # counted as a failure, the loop goes on
        elapsed = perf_counter() - t
        tally.record(False, f"{what}: {type(e).__name__}: {e}")
        return elapsed, scale(before, probe_s()), None
    elapsed = perf_counter() - t
    summary = wl.summary(raw)
    del raw
    return elapsed, scale(before, probe_s()), summary


def measure_end_to_end(name, size, seed, seconds, refs, tally, setup_reps):
    wl = WORKLOADS[name]
    lib_ref, cli_ref = reference_for(refs, name, size, seed)
    argv = wl.cli_args(size, seed)
    setup, setup_unscaled = measure_setup(setup_reps, tally)
    wall, cli_wall, rss = [], [], []
    unscaled = {"wall_s": [], "cli_wall_s": [], "setup_s": setup_unscaled}
    start = perf_counter()
    while True:
        begun = perf_counter()
        elapsed, factor, summary = timed_job(wl, size, seed, tally, f"{name} library job")
        wall.append(elapsed * factor)
        unscaled["wall_s"].append(elapsed)
        if summary is not None:
            tally.record(summary == lib_ref, f"{name} library output differs from reference")
        before = probe_s()
        elapsed, out, code, rss_mb, err = run_cli(argv)
        cli_wall.append(elapsed * scale(before, probe_s()))
        unscaled["cli_wall_s"].append(elapsed)
        rss.append(rss_mb)
        tally.record(code == 0 and digest(out) == cli_ref,
                     f"twobridge {' '.join(argv)}: exit {code}, stdout sha256 "
                     f"{digest(out)[:16]}, stderr {err.strip()[-500:]!r}")
        if not time_left(start, begun, seconds):
            break
    samples = {"wall_s": wall, "cli_wall_s": cli_wall, "peak_rss_mb": rss, "setup_s": setup}
    return samples, dict(END_TO_END), unscaled


def layer_metrics(spans, counts, factor):
    """Per-layer metrics of one traced job; times scaled by `factor`."""
    self_s, total_s = layer_times(spans)
    m = {f"{layer}.self_s": self_s.get(layer, 0.0) * factor for layer in TIMED_LAYERS}
    for layer, key in COUNTED:
        m[f"{layer}.{key}"] = counts.get((layer, key), 0)
    crossings = counts.get(("diagram.analyze", "crossings"), 0)
    m["diagram.analyze.us_per_crossing"] = (
        1e6 * total_s.get("diagram.analyze", 0.0) * factor / crossings if crossings else 0.0)
    return m


def measure_traced(name, size, seed, seconds, refs, tally):
    from twobridge import cli
    wl = WORKLOADS[name]
    lib_ref, cli_ref = reference_for(refs, name, size, seed)
    argv = wl.cli_args(size, seed)
    tracer = Tracer(TARGETS)
    untraced, traced, rows = [], [], []
    start = perf_counter()
    while True:
        begun = perf_counter()
        elapsed, factor, plain = timed_job(wl, size, seed, tally, f"{name} library job")
        untraced.append(elapsed * factor)
        if plain is not None:
            tally.record(plain == lib_ref, f"{name} library output differs from reference")
        with tracer:
            elapsed, factor, summary = timed_job(wl, size, seed, tally, f"{name} traced job")
        traced.append(elapsed * factor)
        lib_spans, counts = tracer.take()
        if summary is not None:
            tally.record(summary == lib_ref and summary == plain,
                         f"{name} traced output differs from untraced output or reference")
        row = layer_metrics(lib_spans, counts, factor)

        gc.collect()
        buf = io.StringIO()
        before = probe_s()
        with tracer, redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except Exception as e:  # counted as a failure, the loop goes on
                code = f"{type(e).__name__}: {e}"
        factor = scale(before, probe_s())
        cli_spans, _ = tracer.take()
        out_sha = digest(buf.getvalue())
        tally.record(code == 0 and out_sha == cli_ref,
                     f"traced cli.main({argv}): returned {code!r}, stdout sha256 {out_sha[:16]}")
        row["cli.main.self_s"] = layer_times(cli_spans)[0].get("cli.main", 0.0) * factor
        rows.append(row)
        if not time_left(start, begun, seconds):
            break
    OUT.mkdir(exist_ok=True)
    write_spans(OUT / f"{name}-seed{seed}.spans.tsv", [("library", lib_spans), ("cli", cli_spans)])
    samples = {k: [r[k] for r in rows] for k in rows[0]}
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    units = per_layer_units()
    return {k: samples[k] for k in units}, units, {}


def run_context():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": lines,
    }


def run_one(name, profile, seed, seconds, trace, refs, tally):
    size = SIZES[profile][name]
    if trace:
        return measure_traced(name, size, seed, seconds, refs[profile], tally)
    return measure_end_to_end(name, size, seed, seconds, refs[profile], tally,
                              SETUP_REPS[profile])


def estimate(values, unit):
    """The reported value of one metric: the median of its samples in the
    run.  Counts repeat exactly; median_low keeps them whole."""
    if not values:
        return float("nan")
    return (statistics.median_low if unit == "count" else statistics.median)(values)


def report(prefix, samples, units, unscaled, tally):
    metrics = {k: estimate(v, units[k]) for k, v in samples.items()}
    for k, v in metrics.items():
        vals = samples[k]
        spread = (f"of {len(vals)}: min {min(vals):.6g}, median "
                  f"{statistics.median(vals):.6g}, max {max(vals):.6g}") if vals else "no samples"
        print(f"{prefix}{k:<48} {v!r} {units[k]}  ({spread})")
        if unscaled.get(k):
            print(f"{prefix}{'':<48} unscaled median {statistics.median(unscaled[k])!r} "
                  f"{units[k]}")
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"{prefix}{'error_rate':<48} {rate!r} ratio  "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    return metrics


def load_package():
    if not (SRC / "twobridge" / "__init__.py").is_file():
        print(f"error: {SRC / 'twobridge'} not found; run from a twobridge checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import twobridge
    if not Path(twobridge.__file__).resolve().is_relative_to(SRC):
        print(f"error: twobridge imported from {twobridge.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import twobridge.cli  # noqa: F401  (cli.main is traced)


def load_refs():
    return json.loads((BENCH / "reference.json").read_text())


def smoke():
    """Every workload at tiny sizes, traced and untraced: each metric named
    in BENCHMARK.json must come out with its unit, every output must
    match, and a corrupted reference must raise the error rate above 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    refs = load_refs()
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            tally = Tally()
            samples, units, _ = run_one(name, "smoke", 3, 0.1, trace, refs, tally)
            got = {k: units[k] for k in samples if samples[k]}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                f"!= BENCHMARK.json {sorted(expected[trace])}")
            if tally.failed or not tally.attempted:
                problems.append(f"{name} trace={trace}: {tally.failed} of "
                                f"{tally.attempted} operations failed")
            if name == "census" and trace:
                # the traced counts must agree with the census itself
                words = refs["smoke"]["census"]["lib"]["word_count"]
                for key in ("words.enumerate.words", "diagram.analyze.calls"):
                    if samples[key] != [words] * len(samples[key]):
                        problems.append(f"census {key} = {samples[key]}, expected {words}")
    print("smoke: corrupting the references; the failures below are expected",
          file=sys.stderr)
    corrupt = copy.deepcopy(refs)
    for name, ref in corrupt["smoke"].items():
        for entry in (ref.values() if name == "sample" else [ref]):
            entry["lib"] = "corrupted"
            entry["cli_sha256"] = digest("corrupted")
    for name in WORKLOADS:
        tally = Tally()
        run_one(name, "smoke", 3, 0.1, 0, corrupt, tally)
        if tally.failed == 0:
            problems.append(f"{name}: corrupted reference gave error_rate 0")
        else:
            print(f"(expected) {name}: corrupted reference gave error_rate "
                  f"{tally.failed / tally.attempted!r}")
    for p in problems:
        print(f"SMOKE: {p}", file=sys.stderr)
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: check every metric is emitted and a "
                             "corrupted reference is caught")
    args = parser.parse_args(argv)
    load_package()
    if args.smoke:
        pin_to_one_cpu()
        return smoke()

    refs = load_refs()
    print("context: " + json.dumps(run_context(), sort_keys=True))
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    result = {}
    for name in names:
        tally = Tally()
        samples, units, unscaled = run_one(name, "full", args.seed, args.seconds,
                                           args.trace, refs, tally)
        metrics = report(f"{name:<7} ", samples, units, unscaled, tally)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{name}." if args.workload == "all" else ""
        result.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    correct = total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
