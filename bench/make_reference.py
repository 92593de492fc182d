"""Regenerate reference.json from the sources in this checkout.

    python3 bench/make_reference.py

Runs every command line of every workload once at each chslab seed that
``run.command_seed`` can give it (0 to 63, or 0 alone for ``ineq``) and
records its headline results, per command line and seed.  A seed whose
invocation fails a check gets no reference; it is printed and left out,
and the benchmark then checks that seed for exit code, verdict and rerun
determinism only.  Run it only when a change is meant to move
results by more than roundoff, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import run


def main() -> int:
    work = os.path.join(run.RUNS, "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    reference = {}
    for lines in run.WORKLOADS.values():
        for argv in lines:
            key = " ".join(argv)
            values = reference[key] = {}
            seeds = sorted({run.command_seed(argv, s) for s in range(run.REFERENCE_SEEDS)})
            for seed in seeds:
                out = os.path.join(work, f"{argv[0]}-{seed}")
                inv = run.invoke(list(argv), seed, out, False)
                problems, _ = check.check_invocation(
                    inv["command"], key, seed, inv["exit_code"], out, {}, None)
                if problems:
                    print(f"{key} seed {seed} fails, left out: {problems}")
                    continue
                _, vals, _ = check.read_manifest(out)
                values[str(seed)] = check.headline(inv["command"], out, vals)
            print(f"{key}: references for {len(values)} of {len(seeds)} seeds")
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
