"""Command line front end.

Subcommands: analyze, census, bound, enumerate, classes, sample, check.
Output formats: human (default), json, csv.  Exit codes: 0 success, 1
invariant failure or other program fault, 2 usage or parse errors
(words.UsageError).  Identical invocations give
byte-identical output: orderings are fixed, arithmetic is exact and
sampling is seeded.
"""

import argparse
import contextlib
import os
import sys
import warnings
from itertools import chain

from . import census, crosscheck, diagram, rational, words


@contextlib.contextmanager
def _exact_output():
    """Write exact values of any size: since Python 3.10.7 turning an int
    of more than 4,300 digits into a string raises ValueError unless the
    limit is lifted.  It is lifted only while output is written, so every
    int() of user input keeps its guard, and restored afterwards."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # 3.10.0 to 3.10.6 have no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _write(fmt, value, header, rows, lines):
    """Write one result to stdout with exact values: value as JSON, the
    header and rows as CSV, or lines as human text.  Only the chosen form
    is drawn, and its first element before anything is written, so a
    result that fails there (a refused enumeration, a failed check)
    leaves stdout empty.  A record or dict is dumped whole; a list or
    iterator goes out one element at a time, byte for byte what json.dump
    writes for the whole list.  A human line that is not a str is an
    iterable of pieces, written one at a time.  json and csv are loaded
    only by the format that uses them."""
    with _exact_output():
        if fmt == "json":
            import json
            if hasattr(value, "to_json") or isinstance(value, dict):
                json.dump(rational.json_value(value), sys.stdout, indent=2)
                print()
                return
        elif fmt == "csv":
            import csv
            out = csv.writer(sys.stdout, lineterminator="\n")
        n = 0
        for n, x in enumerate({"json": value, "csv": rows, "human": lines}[fmt], 1):
            if fmt == "json":  # each line one level deeper, as inside the list
                x = json.dumps(rational.json_value(x), indent=2).replace("\n", "\n  ")
                sys.stdout.write(f"{'[' if n == 1 else ','}\n  {x}")
            elif fmt == "csv":
                if n == 1:
                    out.writerow(header)
                out.writerow([rational.csv_cell(v) for v in x])
            elif isinstance(x, str):
                print(x)
            else:
                for piece in x:
                    sys.stdout.write(piece)
                print()
        if fmt == "json":
            print("\n]" if n else "[]")
        elif fmt == "csv" and not n:
            out.writerow(header)


_LINK_MESSAGE = "2-component link: out of scope"


def _analysis_lines(a):
    yield f"word: {a.word}"
    yield f"runs: {rational.csv_cell(a.runs)}"
    yield f"alternating: {a.alternating}"
    yield f"smoothings: {a.smoothings}"
    yield f"vertical: {a.vertical}  viable: {a.viable}  sequential: {a.sequential}"
    yield f"seifert circles: {a.s}  (bounds {a.s_lower}..{a.s_upper})"
    yield f"genus: {a.genus}"
    yield f"fraction: {a.p}/{a.q}"
    yield f"knot: {rational.knot_label(a)}"
    yield f"palindromic type: {'yes' if a.palindromic else 'no'}"


def cmd_analyze(args):
    word = words.parse_word(args.word)
    norm = words.normalize_to_model(word)
    if norm.kind != words.MODEL:
        text = "unknot" if norm.kind == words.UNKNOT else _LINK_MESSAGE
        _write(args.format, {"kind": norm.kind}, ["word", "kind"], [[word, norm.kind]], [text])
        return 0
    a = diagram.analyze(norm.run_word)
    _write(args.format, a, a.CSV_COLUMNS, map(rational.csv_row, [a]), _analysis_lines(a))
    return 0


def _word_line(a):
    return (f"{a.word}  {a.alternating}  smoothings={a.smoothings}  "
            f"s={a.s}  genus={a.genus}  knot={rational.knot_label(a)}")


def _census_lines(rep):
    # the per-index counts are checked when the first line is drawn
    contributions = rep.per_index_contributions
    yield f"c: {rep.c}"
    yield f"words: {rep.word_count} (star {rep.star:+d})"
    yield (f"totals: vertical {rep.vertical_total}, viable {rep.viable_total}, "
           f"sequential {rep.sequential_total}")
    yield f"avg seifert circles: {rational.format_rational(rep.avg_s)}"
    yield f"avg seifert circles upper bound: {rational.format_rational(rep.avg_s_upper)}"
    yield f"avg genus: {rational.format_rational(rep.avg_genus)}"
    yield f"avg genus lower bound: {rational.format_rational(rep.avg_genus_lower)}"
    # about 0.3 c^2 characters, so written one count at a time
    yield chain((f"vertical contributions by index (2..{rep.c - 1}):",),
                (f" {rational.csv_cell(v)}" for v in contributions))
    yield f"knot classes: {census.knot_class_count(rep.c)}"
    if rep.analyses is not None:
        yield ""
        yield from map(_word_line, rep.analyses)


def cmd_census(args):
    c = args.c
    if args.per_word or args.format == "json":  # these print every word or class
        rep = census.run_census(c, per_word=args.per_word)
    else:  # the proved closed forms: no enumeration, so any c below the ceilings
        if args.format == "csv":
            _check_bound_ceiling(c)
        elif c >= 3:  # the per-index line: c - 2 counts of up to c bits
            _check_output(c * (c - 2), f"census {c}")
        rep = census.check_report(census.closed_form_totals(c))
    records = rep.analyses if args.per_word else [rep]
    _write(args.format, rep, records[0].CSV_COLUMNS, map(rational.csv_row, records),
           _census_lines(rep))
    return 0


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(lo)
    except ValueError:
        raise words.UsageError(f"range must be N or A..B, got {text!r}") from None
    if lo < 3 or hi < lo:
        raise words.UsageError(f"need 3 <= A <= B, got {text!r}")
    return lo, hi


# The largest c whose bound or CSV census is written.  Each evaluates 2^c
# and writes c-bit integers, which str turns into text in quadratic time:
# bound 10^6 takes about 2.8 s, 2*10^6 about 11 s, and 10^10 would need 1.25 GB.
BOUND_CEILING = 10 ** 6
# The most bits of exact integers one command writes, about 600 MB of
# digits: census 40000 writes 482 MB and bound 3..20000 121 MB.
OUTPUT_CEILING = 2 * 10 ** 9


# Both checks read the arguments alone, before any closed form is evaluated.

def _check_bound_ceiling(c):
    if c > BOUND_CEILING:
        raise words.UsageError(f"c={c} is above the bound ceiling {BOUND_CEILING}")


def _check_output(bits, command):
    if bits > OUTPUT_CEILING:
        raise words.UsageError(f"{command} would write about {bits} bits, above the "
                               f"output ceiling {OUTPUT_CEILING}")


def cmd_bound(args):
    lo, hi = _parse_range(args.range)
    _check_bound_ceiling(hi)
    top = min(hi, args.exact_ceiling)  # two c-bit integers a row, two more up to top
    lower = (lo + hi) * (hi - lo + 1)
    command = f"bound {lo}..{hi}"
    if lower <= OUTPUT_CEILING:  # only the exact column can push it over: name it
        command += f" --exact-ceiling {args.exact_ceiling}"
    _check_output(lower + (lo + top) * max(0, top - lo + 1), command)
    # both columns, O(1) each, from a checked report
    reports = map(census.check_report, map(census.closed_form_totals, range(lo, hi + 1)))
    rows = ((r.c, r.avg_genus_lower, r.avg_genus if r.c <= top else None)
            for r in reports)
    columns = ("c", "avg_genus_lower", "avg_genus")
    lines = (f"c={c}  avg genus lower bound: {rational.format_rational(b)}"
             + ("" if e is None else f"  avg genus: {rational.format_rational(e)}")
             for c, b, e in rows)
    _write(args.format, (dict(zip(columns, row)) for row in rows), columns, rows, lines)
    return 0


def cmd_enumerate(args):
    model = words.enumerate_model_words(args.c)
    _write(args.format, model, ["word", "first_sign", "runs"],
           ([words.from_runs(r), r.first_sign, r] for r in model),
           map(words.from_runs, model))
    return 0


def cmd_classes(args):
    classes = census.run_census(args.c).knot_classes
    lines = (f"{rational.knot_label(k)}: p={k.p} q={k.q} q_star={k.q_star} "
             f"multiplicity={k.multiplicity} words: {rational.csv_cell(k.words)}"
             for k in classes)
    _write(args.format, classes, rational.KnotClass.CSV_COLUMNS,
           map(rational.csv_row, classes), lines)
    return 0


def cmd_sample(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = words.sample(args.n, args.count, args.seed)
    for w in caught:  # one plain line, not the warning's source location
        print(f"warning: {w.message}", file=sys.stderr)

    def record(w):
        norm = words.normalize_to_model(w)
        a = diagram.analyze(norm.run_word) if norm.kind == words.MODEL else None
        return w, norm.kind, a

    records = map(record, stream)
    blank = [None] * len(diagram.WordAnalysis.CSV_COLUMNS)
    lines = (f"{w} -> {kind}" if a is None else
             f"{w} -> {a.word}  s={a.s}  genus={a.genus}  knot={rational.knot_label(a)}"
             for w, kind, a in records)
    _write(args.format, ({"sampled": w, "kind": kind, "analysis": a} for w, kind, a in records),
           ["sampled", "kind", *diagram.WordAnalysis.CSV_COLUMNS],
           ([w, kind, *(a.csv_row() if a else blank)] for w, kind, a in records), lines)
    return 0


def cmd_check(args):
    results, ok = crosscheck.run_all(args.c_max)
    total = 0
    for name, count, error in results:
        if error is None:
            total += count
            print(f"{name}: {count} checks")
        else:
            print(f"{name}: FAIL ({error})")
    if not ok:
        print("FAILED", file=sys.stderr)
        return 1
    print(f"OK ({total} assertions)")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="2-bridge knots from billiard table words: enumeration, "
                    "Seifert circles, genus, and exact average-genus bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(sp):
        sp.add_argument("--format", choices=("human", "json", "csv"),
                        default="human")

    sp = sub.add_parser("analyze", help="analyze one billiard table word")
    sp.add_argument("word")
    fmt(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("census", help="aggregate statistics for crossing number c")
    sp.add_argument("c", type=int)
    sp.add_argument("--per-word", action="store_true", dest="per_word")
    fmt(sp)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("bound", help="closed-form lower bound on average genus")
    sp.add_argument("range", help="crossing number N or range A..B")
    sp.add_argument("--exact-ceiling", type=int, default=16,
                    help="largest c for which the exact average is printed")
    fmt(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("enumerate", help="list all model words for crossing number c")
    sp.add_argument("c", type=int)
    fmt(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("classes", help="group model words by knot type")
    sp.add_argument("c", type=int)
    fmt(sp)
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("sample", help="deterministic random words with analyses")
    sp.add_argument("n", type=int)
    sp.add_argument("count", type=int)
    sp.add_argument("seed", type=int)
    fmt(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("check", help="run the full cross-validation battery")
    sp.add_argument("c_max", type=int)
    sp.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows up here, not at exit
        return code
    except BrokenPipeError:  # the reader stopped early, as head does: not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except words.UsageError as e:  # WordSyntaxError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # not the input's fault, so the program's
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except words.InvariantError as e:
        with _exact_output():  # its expected and actual values can be huge
            print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
