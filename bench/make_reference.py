"""Record the integer-output digests that ``bench/run.py`` checks against.

Usage, from the root of a checkout of the reference commit::

    python3 bench/make_reference.py --seeds 0-49 [--workload NAME ...]

For each workload and seed it generates the input, runs the workload once
and stores the digest of its integer-valued outputs (lcc_edges.tsv,
manifest.csv, samples/*.tsv, chars/*.csv) in ``bench/reference.json``.
Existing entries for other seeds are kept. A run that fails a check
records nothing and makes the script exit with code 1.
"""

import argparse
import json
import os
import shutil
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-49")
    parser.add_argument("--workload", action="append",
                        choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    try:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    status = 0
    for name in args.workload or sorted(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            work = os.path.join(run.WORK, f"reference-{name}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                path = os.path.join(work, "input.tsv")
                run.generate_input(wl, seed, path)
                result = run.run_once(wl, path, work, 0, traced=False,
                                      timeout=600.0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result.problems or not result.digest:
                print(f"{name} seed {seed}: {result.problems}",
                      file=sys.stderr)
                status = 1
                continue
            reference.setdefault(name, {})[str(seed)] = result.digest
            print(f"{name} seed {seed}: {result.digest} "
                  f"({result.ops_failed} of {result.ops_attempted} "
                  "operations failed)", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    try:
        os.rmdir(run.WORK)
    except OSError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
