"""Write bench/reference.json: the outputs the benchmark checks against.

Run from the repository root:

    python3 bench/make_reference.py

The references are the library summaries and the sha256 of the console
command's stdout for every workload, at both the full and the smoke
sizes, and for every input in the sample workload's seed pool.  They
record the package's outputs when the benchmark was defined; the package
contract keeps library values and CLI stdout fixed, so regenerating them
is only right for a change that is meant to alter an output.
"""

import json
import sys

import run


def main():
    run.load_package()
    refs = {}
    for profile, sizes in run.SIZES.items():
        refs[profile] = {}
        for name, wl in run.WORKLOADS.items():
            size = sizes[name]
            seeds = range(size["pool"]) if name == "sample" else [0]
            entries = {}
            for seed in seeds:
                summary = wl.summary(wl.job(size, seed))
                argv = wl.cli_args(size, seed)
                _, out, code, _, err = run.run_cli(argv)
                if code != 0:
                    sys.exit(f"twobridge {' '.join(argv)} exited {code}: {err}")
                entries[str(seed)] = {"lib": summary, "cli_sha256": run.digest(out)}
                print(profile, name, seed, file=sys.stderr, flush=True)
            refs[profile][name] = entries if name == "sample" else entries["0"]
    (run.BENCH / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
