"""Command line front end.

Subcommands: analyze, census, bound, enumerate, classes, sample, check.
Output formats: human (default), json, csv.  Exit codes: 0 success, 1
invariant failure, 2 usage or parse errors.  Identical invocations give
byte-identical output: orderings are fixed, arithmetic is exact and
sampling is seeded.
"""

import argparse
import csv
import json
import sys
import warnings

from . import census, crosscheck, diagram, rational, words


def _emit_csv(header, rows):
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows([rational.csv_cell(x) for x in row] for row in rows)


def _emit_json(obj):
    json.dump(obj, sys.stdout, indent=2, default=rational.json_value)
    sys.stdout.write("\n")


def _knot_display(p, q):
    cc = rational.canonical_class(rational.KnotFraction(p, q))
    return rational.knot_name(cc) or f"{cc.p}/{cc.q_star}"


_LINK_MESSAGE = "2-component link: out of scope"


def cmd_analyze(args):
    word = words.parse_word(args.word)
    norm = words.normalize_to_model(word)
    if norm.kind != words.MODEL:
        text = "unknot" if norm.kind == words.UNKNOT else _LINK_MESSAGE
        if args.format == "json":
            _emit_json({"kind": norm.kind})
        elif args.format == "csv":
            _emit_csv(["word", "kind"], [[word, norm.kind]])
        else:
            print(text)
        return 0
    a = diagram.analyze(norm.run_word)
    if args.format == "json":
        _emit_json(a)
    elif args.format == "csv":
        _emit_csv(diagram.WordAnalysis.CSV_COLUMNS, [a.csv_row()])
    else:
        print(f"word: {a.word}")
        print(f"runs: {rational.csv_cell(a.runs)}")
        print(f"alternating: {a.alternating}")
        print(f"smoothings: {a.smoothings}")
        print(f"vertical: {a.vertical}  viable: {a.viable}  sequential: {a.sequential}")
        print(f"seifert circles: {a.s}  (bounds {a.s_lower}..{a.s_upper})")
        print(f"genus: {a.genus}")
        print(f"fraction: {a.p}/{a.q}")
        print(f"knot: {_knot_display(a.p, a.q)}")
        print(f"palindromic type: {'yes' if a.palindromic else 'no'}")
    return 0


def _word_line(a):
    return (f"{a.word}  {a.alternating}  smoothings={a.smoothings}  "
            f"s={a.s}  genus={a.genus}  knot={_knot_display(a.p, a.q)}")


def cmd_census(args):
    if args.per_word or args.format == "json":  # these print every word or class
        rep = census.run_census(args.c, per_word=args.per_word)
    else:
        rep = census.scan_census(args.c)
    if args.format == "json":
        _emit_json(rep)
    elif args.format == "csv":
        if args.per_word:
            _emit_csv(diagram.WordAnalysis.CSV_COLUMNS,
                      [a.csv_row() for a in rep.analyses])
        else:
            _emit_csv(census.CensusReport.CSV_COLUMNS, [rep.csv_row()])
    else:
        print(f"c: {rep.c}")
        print(f"words: {rep.word_count} (star {rep.star:+d})")
        print(f"totals: vertical {rep.vertical_total}, viable {rep.viable_total}, "
              f"sequential {rep.sequential_total}")
        print(f"avg seifert circles: {rational.format_rational(rep.avg_s)}")
        print(f"avg seifert circles upper bound: {rational.format_rational(rep.avg_s_upper)}")
        print(f"avg genus: {rational.format_rational(rep.avg_genus)}")
        print(f"avg genus lower bound: {rational.format_rational(rep.avg_genus_lower)}")
        contributions = rational.csv_cell(rep.per_index_contributions)
        print(f"vertical contributions by index (2..{rep.c - 1}): {contributions}")
        print(f"knot classes: {census.knot_class_count(rep.c)}")
        if args.per_word:
            print()
            for a in rep.analyses:
                print(_word_line(a))
    return 0


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(lo)
    except ValueError:
        raise ValueError(f"range must be N or A..B, got {text!r}") from None
    if lo < 3 or hi < lo:
        raise ValueError(f"need 3 <= A <= B, got {text!r}")
    return lo, hi


def cmd_bound(args):
    lo, hi = _parse_range(args.range)
    rows = []
    for c in range(lo, hi + 1):
        if c <= args.exact_ceiling:  # one report holds both columns
            rep = census.scan_census(c)
            rows.append((c, rep.avg_genus_lower, rep.avg_genus))
        else:
            rows.append((c, census.lower_bound_avg_genus(c), None))
    columns = ("c", "avg_genus_lower", "avg_genus")
    if args.format == "json":
        _emit_json([dict(zip(columns, row)) for row in rows])
    elif args.format == "csv":
        _emit_csv(columns, rows)
    else:
        for c, b, e in rows:
            line = f"c={c}  avg genus lower bound: {rational.format_rational(b)}"
            if e is not None:
                line += f"  avg genus: {rational.format_rational(e)}"
            print(line)
    return 0


def cmd_enumerate(args):
    model = list(words.enumerate_model_words(args.c))
    if args.format == "json":
        _emit_json(model)
    elif args.format == "csv":
        _emit_csv(["word", "first_sign", "runs"],
                  [[words.from_runs(r), r.first_sign, r] for r in model])
    else:
        for r in model:
            print(words.from_runs(r))
    return 0


def cmd_classes(args):
    classes = census.run_census(args.c).knot_classes
    if args.format == "json":
        _emit_json(classes)
    elif args.format == "csv":
        _emit_csv(rational.KnotClass.CSV_COLUMNS, [k.csv_row() for k in classes])
    else:
        for k in classes:
            print(f"{_knot_display(k.p, k.q)}: p={k.p} q={k.q} q_star={k.q_star} "
                  f"multiplicity={k.multiplicity} words: {rational.csv_cell(k.words)}")
    return 0


def cmd_sample(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = words.sample(args.n, args.count, args.seed)
    for w in caught:  # one plain line, not the warning's source location
        print(f"warning: {w.message}", file=sys.stderr)
    records = []
    for w in stream:
        norm = words.normalize_to_model(w)
        a = diagram.analyze(norm.run_word) if norm.kind == words.MODEL else None
        records.append((w, norm.kind, a))
    if args.format == "json":
        _emit_json([{"sampled": w, "kind": kind, "analysis": a}
                    for w, kind, a in records])
    elif args.format == "csv":
        header = ["sampled", "kind", *diagram.WordAnalysis.CSV_COLUMNS]
        blank = [None] * len(diagram.WordAnalysis.CSV_COLUMNS)
        _emit_csv(header, [[w, kind, *(a.csv_row() if a else blank)]
                           for w, kind, a in records])
    else:
        for w, kind, a in records:
            if a is None:
                print(f"{w} -> {kind}")
            else:
                print(f"{w} -> {a.word}  s={a.s}  genus={a.genus}  "
                      f"knot={_knot_display(a.p, a.q)}")
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
        return args.func(args)
    except ValueError as e:  # WordSyntaxError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except words.InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
