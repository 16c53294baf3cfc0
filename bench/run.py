"""topocf benchmark: closed-loop CLI runs, output checks, traced layer times.

Usage, from the root of a topocf source checkout::

    python3 bench/run.py --workload desk-train --seed 5 --seconds 30 --trace 0

``--workload`` takes several names to run them one after another.

Set-up generates the workload's input file from ``--seed`` with
``topocf.synthetic.heavy_tailed_graph`` and warms the interpreter; it is
repeated and its median is ``setup_s``. The program then sees only that
file. One client runs the workload's ``topocf`` command as a subprocess,
one run at a time (a closed loop: the next run starts after the previous
one exits), with ``--jobs 1`` and one BLAS thread, until ``--seconds`` are
used. Every run's outputs are checked; a run that exits with another code
than 0 or 1, times out or fails a check counts as failed and is never
dropped.

``--trace 0`` prints the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced runs with runs of
``bench/trace_cli.py``, and prints per-layer self times and counts from
the spans. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOAD_LIMIT_S = 170.0    # one workload's process ends within 180 s
SETUP_REPEATS = 3
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's mmap threshold, pinned at the 32 MiB ceiling its adaptive rule
# climbs to on 64-bit. Left adaptive, when it climbs depends on the order
# of large frees, and desk-train's peak RSS read 109-135 MB across seeds
# for the same live memory; pinned, it reads ~110 MB on each.
MALLOC_MMAP_THRESHOLD = str(32 << 20)
MODEL_KINDS = ("lightgcn", "dgcf", "ultragcn", "svdgcn")
ALPHAS = ("0", "0.3", "0.7", "1")


@dataclass(frozen=True)
class Workload:
    command: str
    graph: tuple            # users, items, interactions, user/item exponent
    master_seed: int
    samples: int
    models: tuple = MODEL_KINDS
    epochs: int = 5         # validated once, at the last epoch, so early
                            # stopping (patience 5) cannot fire
    known_failures: frozenset = frozenset()   # cells that fail at the seed
                                              # commit; a run may fail a
                                              # subset of them, no others

    @property
    def characterizes(self):
        return self.command in ("characterize", "run-all")

    @property
    def trains(self):
        return self.command in ("train", "run-all")

    def cli_args(self, dataset, out):
        args = ["--jobs", "1", "--out", out, self.command,
                f"dataset={dataset}", f"master_seed={self.master_seed}",
                f"num_samples={self.samples}"]
        if self.trains:
            args.append("models=" + ",".join(self.models))
            for kind in self.models:
                args += [f"model.{kind}.max_epochs={self.epochs}",
                         f"model.{kind}.eval_interval={self.epochs}"]
        if self.command == "run-all":
            args.append("alphas=" + ",".join(ALPHAS))
        return args

    def integer_outputs(self):
        patterns = ["manifest.csv", "samples/*.tsv"]
        if self.characterizes:
            patterns.append("chars/*.csv")
        if self.command == "run-all":
            patterns.append("lcc_edges.tsv")
        return patterns


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "desk-train": Workload(
        command="train", graph=(1500, 750, 12000, 0.8, 1.1), master_seed=3,
        samples=2, epochs=15,
        known_failures=frozenset({"train:1:svdgcn"})),
    "runall-wide": Workload(
        command="run-all", graph=(800, 3200, 8000, 0.6, 0.8), master_seed=1,
        samples=30, models=("lightgcn",)),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update((var, BLAS_THREADS) for var in BLAS_VARS)
    env["MALLOC_MMAP_THRESHOLD_"] = MALLOC_MMAP_THRESHOLD
    return env


# ---------------------------------------------------------------------------
# set-up

def tree_digest(base, patterns):
    """blake2b over the matched files' relative paths and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for pattern in patterns:
        paths = sorted(glob.glob(os.path.join(base, pattern)))
        if not paths:
            raise FileNotFoundError(f"no output matches {pattern}")
        for path in paths:
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def generate_input(wl, seed, path):
    """Write the workload's input for ``seed`` to ``path``."""
    subprocess.run([sys.executable, os.path.join(BENCH, "gen_input.py"),
                    path, *map(str, wl.graph), str(seed)],
                   env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=WORKLOAD_LIMIT_S)


def setup(wl, seed, work):
    """Generate the input SETUP_REPEATS times; return (median seconds,
    path). Each repeat also imports the CLI once, which warms the
    interpreter and byte-compiles the package."""
    path = os.path.join(work, "input.tsv")
    warm = [sys.executable, "-m", "topocf.cli", "--help"]
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        if os.path.exists(path):
            os.remove(path)
        start = time.perf_counter()
        generate_input(wl, seed, path)
        subprocess.run(warm, env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=WORKLOAD_LIMIT_S)
        times.append(time.perf_counter() - start)
        digests.add(tree_digest(work, ["input.tsv"]))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return statistics.median(times), path


# ---------------------------------------------------------------------------
# one run and its checks

@dataclass
class Run:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    problems: list
    ops_attempted: int = 0
    ops_failed: int = 0
    digest: str = ""
    layers: dict = None


def launch(argv, log_path, timeout):
    """Run argv to completion; return (wall s, exit code, peak RSS MB).

    os.wait4 reports the child's peak RSS together with that of any
    children it waited for (the pipeline's worker processes)."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


_FAILED_LINE = re.compile(r"^(?:explain|rq2)\[[^\]]*\]: FAILED.*$", re.M)


def check_outputs(wl, out, exit_code, log_text):
    """Output checks; returns (problems, operations attempted, failed).

    Operations are the characterize and train cells in the ledger plus,
    for run-all, one explain fit per model and one rq2 fit per
    (alpha, model), whose failures appear as FAILED log lines. Only the
    workload's known failures are allowed; any other failed operation
    fails the run."""
    problems = []
    expected = []
    if wl.characterizes:
        expected += [f"chars:{sid}" for sid in range(wl.samples)]
    if wl.trains:
        expected += [f"train:{sid}:{kind}" for sid in range(wl.samples)
                     for kind in wl.models]
    try:
        with open(os.path.join(out, "ledger.json"), encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"ledger: {exc}"], len(expected), len(expected)
    failed = []
    for key in expected:
        cell = cells.get(key)
        if cell is None:
            problems.append(f"ledger has no cell {key}")
        elif cell.get("status") != "done":
            failed.append(key)
            if cell.get("status") != "failed" or not cell.get("error"):
                problems.append(f"cell {key} neither done nor failed "
                                "with a reason")
            elif key not in wl.known_failures:
                problems.append(f"cell {key} failed: {cell['error']}")
    attempted, n_failed = len(expected), len(failed)
    if wl.command == "run-all":
        attempted += len(wl.models) * (1 + len(ALPHAS))
        failed_lines = _FAILED_LINE.findall(log_text)
        n_failed += len(failed_lines)
        problems += [f"log: {line}" for line in failed_lines]
    if exit_code == 0 and n_failed:
        problems.append("exit code 0 with failed operations")
    if exit_code == 1 and not n_failed:
        problems.append("exit code 1 without a recorded failure")
    if exit_code not in (0, 1):
        problems.append(f"exit code {exit_code}" + (
            " (killed at the time limit)" if exit_code == -9 else ""))

    def need(rel):
        if not os.path.isfile(os.path.join(out, rel)):
            problems.append(f"missing {rel}")

    need("manifest.csv")
    for sid in range(wl.samples):
        need(f"samples/{sid}.tsv")
        if wl.characterizes and f"chars:{sid}" not in failed:
            need(f"chars/{sid}.csv")
    if wl.characterizes:
        need("characteristics.csv")
    if wl.trains:
        done = sum(1 for key in expected
                   if key.startswith("train:") and key not in failed)
        problems += check_metrics(os.path.join(out, "metrics.csv"), wl,
                                  done)
    if wl.command == "run-all":
        need("lcc_edges.tsv")
        need("report.md")
        need("rq2/summary.csv")
        for kind in wl.models:
            for ext in ("csv", "md"):
                need(f"reports/report_{kind}.{ext}")
                for alpha in ALPHAS:
                    need(f"rq2/alpha_{alpha}_{kind}.{ext}")
    return problems, attempted, n_failed


def check_metrics(path, wl, expected_rows):
    """Every non-failed train cell has a finite row with recall and nDCG
    in [0, 1], trained for exactly the workload's epochs (early stopping
    cannot fire). Float values are not pinned."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    except OSError as exc:
        return [f"metrics.csv: {exc}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"metrics.csv has {len(rows)} rows, "
                        f"expected {expected_rows}")
    for row in rows:
        try:
            recall, ndcg, epochs = float(row[2]), float(row[3]), int(row[4])
        except (IndexError, ValueError):
            problems.append(f"metrics.csv: malformed row {row}")
            continue
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0
                   for v in (recall, ndcg)) or epochs != wl.epochs:
            problems.append(f"metrics.csv: out-of-range row {row}")
    return problems


def run_once(wl, dataset, work, index, traced, timeout):
    out = os.path.join(work, f"out{index}")
    log_path = os.path.join(work, f"log{index}.txt")
    spans_path = os.path.join(work, f"spans{index}.json")
    if traced:
        argv = [sys.executable, os.path.join(BENCH, "trace_cli.py"),
                spans_path]
    else:
        argv = [sys.executable, "-m", "topocf.cli"]
    argv += wl.cli_args(dataset, out)
    wall, code, rss = launch(argv, log_path, timeout)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        log_text = fh.read()
    problems, attempted, failed = check_outputs(wl, out, code, log_text)
    run = Run(traced, wall, rss, problems, attempted, failed)
    try:
        run.digest = tree_digest(out, wl.integer_outputs())
    except FileNotFoundError as exc:
        problems.append(str(exc))
    if traced:
        try:
            with open(spans_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            run.layers = layer_metrics(trace["spans"], trace["counts"],
                                       attempted, failed)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"trace: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    for path in (log_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    return run


def closed_loop(wl, dataset, work, seconds, modes, deadline):
    """Run back to back, cycling through ``modes`` (traced or not), until
    the next run would end after ``seconds`` or ``deadline`` (where a run
    still going is killed). Every mode runs at least once."""
    runs = []
    end = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        if len(runs) >= len(modes):
            estimate = statistics.median(r.wall_s for r in runs)
            if now + estimate > min(end, deadline):
                break
        runs.append(run_once(wl, dataset, work, len(runs),
                             modes[len(runs) % len(modes)],
                             max(deadline - now, 1.0)))
    return runs


# ---------------------------------------------------------------------------
# per-layer metrics from spans

LAYERS = ("graph", "sampling", "characteristics", "split", "models",
          "evaluation", "explain", "pipeline")
STAGES = ("load_dataset", "prepare_samples", "characterize_samples",
          "train_samples", "fit_reports", "rq2_sweep", "emit_report")


def per_layer_units():
    """Per-layer metric names in report order, with units."""
    units = {}
    seconds = lambda *names: units.update((n, "s") for n in names)
    counts = lambda *names: units.update((n, "count") for n in names)
    seconds("graph.ingest_and_build.s", "graph.largest_connected_component.s",
            "graph.from_edge_array.s", "graph.project.s")
    counts("graph.from_edge_array.calls", "graph.project.calls",
           "graph.project.pairs")
    seconds("sampling.generate_samples.s", "sampling.write_sample_edges.s")
    counts("sampling.edges_written")
    seconds("characteristics.compute_vector.s")
    counts("characteristics.compute_vector.calls")
    seconds("split.split_dataset.s")
    counts("split.split_dataset.calls")
    for kind in MODEL_KINDS:
        seconds(f"models.{kind}.s")
        counts(f"models.{kind}.epochs")
        units[f"models.{kind}.ms_per_epoch"] = "ms"
    seconds("models.sample_negative_items.s", "models.svd.s",
            "models.ultragcn.cooccurrence_topk.s")
    counts("models.sample_negative_items.calls", "models.svd.calls",
           "models.svd.failed", "models.dgcf.operator_builds")
    seconds("evaluation.valid.s", "evaluation.test.s")
    counts("evaluation.valid.calls", "evaluation.users_ranked")
    units["evaluation.ms_per_user"] = "ms"
    seconds("explain.fit_ols.s")
    counts("explain.fit_ols.calls", "explain.pinv_fallbacks")
    seconds(*(f"pipeline.{stage}.s" for stage in STAGES),
            "pipeline.file_hash.s")
    units["pipeline.file_hash.bytes"] = "bytes"
    counts("pipeline.cells_attempted", "pipeline.cells_failed")
    seconds(*(f"{layer}.self_s" for layer in LAYERS))
    seconds("tracing.run_s", "tracing.overhead_s")
    return units


def layer_metrics(spans, counts, cells_attempted, cells_failed):
    """Self time per span name (duration minus direct children) and per
    layer, plus the counts taken at the span boundaries."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        self_s[name] += end - start - child
    m = defaultdict(float)
    for name, value in self_s.items():
        m[name + ".s"] = value
        m[name.split(".")[0] + ".self_s"] += value
    for name, value in counts.items():
        m[name] = float(value)
    for kind in MODEL_KINDS:
        epochs = m[f"models.{kind}.epochs"]
        m[f"models.{kind}.ms_per_epoch"] = (
            1000.0 * m[f"models.{kind}.s"] / epochs if epochs else 0.0)
    users = m["evaluation.users_ranked"]
    m["evaluation.ms_per_user"] = (
        1000.0 * (m["evaluation.valid.s"] + m["evaluation.test.s"]) / users
        if users else 0.0)
    m["pipeline.cells_attempted"] = float(cells_attempted)
    m["pipeline.cells_failed"] = float(cells_failed)
    m["tracing.run_s"] = sum(end - start for name, start, end, parent
                             in spans if parent < 0)
    return {name: m[name] for name in per_layer_units() if name in m}


# ---------------------------------------------------------------------------
# environment and reporting

def environment(wl, seed):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no mode="dicts"
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "blas_threads": BLAS_THREADS,
        "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
        "jobs": 1,
        "clients": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload_seed": seed,
        "master_seed": wl.master_seed,
        "graph": wl.graph,
        "commit": git_head(),
        "source_digest": tree_digest(ROOT, ["src/topocf/*.py",
                                            "src/topocf/models/*.py"]),
    }


def git_head():
    """Commit id read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def reference_digest(name, seed):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(name, {}).get(str(seed))
    except (OSError, ValueError):
        return None


def check_digests(name, seed, runs):
    """Integer outputs must match the recorded reference for this seed or,
    for a seed without one, agree across all runs."""
    digests = {r.digest for r in runs if r.digest}
    expected = reference_digest(name, seed)
    if expected is not None:
        bad = digests - {expected}
        return ([f"integer outputs differ from the reference digest "
                 f"{expected}: {sorted(bad)}"] if bad else []), "reference"
    if len(digests) > 1:
        return [f"integer outputs differ between runs: {sorted(digests)}"], \
            "runs agree"
    return [], "runs agree (no reference for this seed)"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, seed, wl, setup_s, runs, traced_runs, problems, how):
    all_runs = runs + traced_runs
    failed_runs = sum(1 for r in all_runs if r.problems)
    correct = not problems and not failed_runs
    walls = [r.wall_s for r in runs]
    run_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    peak_rss_mb = statistics.median(r.peak_rss_mb for r in runs)
    ops, ops_failed = runs[0].ops_attempted, runs[0].ops_failed
    print(f"workload {name} (seed {seed}): topocf {wl.command}, "
          f"{wl.samples} samples")
    print(f"{len(runs)} untraced and {len(traced_runs)} traced run(s), "
          f"{failed_runs} failed; closed loop, 1 client, --jobs 1")
    print(f"integer outputs ({', '.join(wl.integer_outputs())}): {how}"
          + ("; traced runs included" if traced_runs else ""))
    for p in [q for r in all_runs for q in r.problems[:5]] + problems:
        print(f"  check failed: {p}")
    print(f"run_s        {run_s:.4f} s   (median of {len(walls)}; "
          f"quartiles {q1:.4f}..{q3:.4f} s)")
    print("per run: " + ", ".join(f"{r.wall_s:.3f} s/{r.peak_rss_mb:.0f} MB"
                                  for r in all_runs))
    print(f"setup_s      {setup_s:.4f} s   (median of {SETUP_REPEATS})")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"failed_frac  {ops_failed / ops if ops else 0.0:.4f}   "
          f"({ops_failed} of {ops} characterize/train/explain/rq2 "
          f"operations per run)")
    if traced_runs:
        metrics = {}
        units = per_layer_units()
        for metric, unit in units.items():
            values = [r.layers.get(metric, 0.0) for r in traced_runs
                      if r.layers is not None]
            metrics[metric] = {"value": statistics.median(values)
                               if values else 0.0, "unit": unit}
        traced_s = statistics.median(r.wall_s for r in traced_runs)
        metrics["tracing.overhead_s"]["value"] = traced_s - run_s
        layer_self = {layer: metrics[f"{layer}.self_s"]["value"]
                      for layer in LAYERS}
        print("self time by layer: " + ", ".join(
            f"{layer} {s:.3f} s" for layer, s in
            sorted(layer_self.items(), key=lambda kv: -kv[1])))
        for metric, entry in metrics.items():
            print(f"  {metric:42s} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("env " + json.dumps(environment(wl, seed), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(all_runs),
                      "failed": failed_runs, "metrics": metrics}))


def bench_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_s, dataset = setup(wl, seed, work)
        # Traced runs alternate with untraced ones, so a drift in machine
        # speed does not show up as tracing overhead.
        all_runs = closed_loop(wl, dataset, work, seconds,
                               (False, True) if trace else (False,),
                               deadline)
        runs = [r for r in all_runs if not r.traced]
        traced = [r for r in all_runs if r.traced]
        problems, how = check_digests(name, seed, all_runs)
        report(name, seed, wl, setup_s, runs, traced, problems, how)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=sorted(WORKLOADS),
                        help="one or more workloads, run one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "topocf", "cli.py")):
        print(f"error: {SRC}/topocf is missing; run from the root of a "
              "topocf source checkout", file=sys.stderr)
        return 2
    os.environ.update((var, BLAS_THREADS) for var in BLAS_VARS)
    for name in args.workload:
        bench_workload(name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
