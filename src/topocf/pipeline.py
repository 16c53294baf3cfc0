"""End-to-end orchestration: seeding, resume, persistence, reports.

A run lays out its output directory as::

    lcc_edges.tsv                 ingested graph after LCC extraction
    manifest.csv                  per-sample strategy/mu/seed/sizes
    samples/<id>.tsv              sub-dataset edge lists
    chars/<id>.csv                per-sample characteristic rows
    metrics/<id>_<model>.csv      per-(sample, model) evaluation rows
    characteristics.csv           aggregate of chars/
    metrics.csv                   aggregate of metrics/: sample_id, model,
                                  recall@20, ndcg@20, epochs_trained,
                                  stopped_early, best_epoch
    correlations.csv              Pearson correlations of the characteristics
    degree_distribution_{user,item}.tsv
                                  LCC degree histogram: degree, share of nodes
    reports/                      per-model regression CSV + markdown
    rq2/                          per-(alpha, model) regression reports
    report.md                     the regressions this run fitted, in
                                  config order
    ledger.json                   content-hash resume state

``explain`` runs ingest -> sample -> characterize -> train -> explain;
``rq2`` adds the alpha sweep and ``run-all`` adds report.md on top, so the
three share one path. ``train`` logs each model's mean recall@20 and
nDCG@20 over its completed cells, so ``--resume train`` over a finished run
reports them without training. Characterize and train cells are ledgered: a
``chars:<id>`` cell's inputs are its sample file's digest and the code
digest, a ``train:<id>:<model>`` cell's inputs are those and the model
config. Every cell derives its randomness from (master_seed, sample_id[,
model]), so results are byte-identical regardless of parallelism or resume,
and a resume never reuses a cell that other code computed.

Every ranking is at k = 20: early stopping validates at Recall@20, the
test cells report Recall@20 and nDCG@20, and the regressions explain that
recall. ``best_epoch`` is the epoch of the model early stopping kept (the
last epoch if it never validated). Every CSV table, the regression reports
included, is written by ``write_rows``; ``read_rows`` reads the ledgered
cells' tables back.

Each regression fit adds its markdown to ``RunResult.sections``, in the
order the stages fit them: every model in ``models`` order, then every
alpha in ``alphas`` order times ``models``. ``report.md`` is those
sections, so it holds exactly the tables this run fitted; a fit that fails
removes any table an earlier run left under its name.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import characteristics as chars
from . import sampling
from .csr import scipy_file
from .evaluation import evaluate
from .explain import DesignError, build_design, fit_ols, render_markdown
from .graph import (GraphError, ingest_and_build,
                    largest_connected_component, write_interactions)
from .models.base import train_model
from .models.split import split_dataset
from .seeds import stable_seed


MANIFEST_HEADER = ("sample_id,strategy,mu,seed,num_users,num_items,"
                   "num_interactions")
CHARS_HEADER = "sample_id," + ",".join(chars.SHORTHAND_NAMES)
METRICS_HEADER = ("sample_id,model,recall@20,ndcg@20,epochs_trained,"
                  "stopped_early,best_epoch")
REPORT_HEADER = "characteristic,coefficient,std_err,t,p,stars,identified"

MetricRow = namedtuple("MetricRow", "sample_id model recall ndcg "
                       "epochs_trained stopped_early best_epoch")


def _chars_row(fields):
    return (int(fields[0]), *map(float, fields[1:]))


def _metric_row(fields):
    sid, kind, recall, ndcg, epochs, stopped, best = fields
    return MetricRow(int(sid), kind, float(recall), float(ndcg), int(epochs),
                     stopped == "True", int(best))


def write_rows(path, header, rows):
    """Write ``header``, then each row's fields joined by commas with
    ``str``; a float's ``str`` is its ``repr``, so it reads back bit for
    bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_rows(path, header, parse):
    """``parse(fields)`` of each line of ``path`` after its header, which
    must be ``header``."""
    with open(path, encoding="utf-8") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise ValueError(f"{path}: unexpected header {found!r}")
        return [parse(line.rstrip("\n").split(",")) for line in fh]


def report_rows(report, statistics=()):
    """A regression CSV's rows under its ``statistic,value`` header: the
    given ``(name, value)`` statistics, then R2, adj_R2, M, C and
    dropped_rows, then ``REPORT_HEADER`` and the coefficient table,
    Constant first, whose ``identified`` column is 1 or 0."""
    return [*statistics, ("R2", report.r2), ("adj_R2", report.adj_r2),
            ("M", report.num_rows), ("C", report.num_predictors),
            ("dropped_rows", report.dropped_rows), (REPORT_HEADER,),
            *((*row[:6], int(row[6])) for row in report.rows())]


@dataclass
class RunResult:
    failures: list = field(default_factory=list)
    sections: list = field(default_factory=list)   # report.md's tables


class InputError(Exception):
    """An input file a run cannot read: the dataset, or the ledger that a
    resume reuses."""


def _log(message):
    print(message, file=sys.stderr, flush=True)


def file_hash(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


@cache
def code_digest():
    """What computes a cell: blake2b over the bytes of topocf's modules
    (``topocf/*.py`` and ``topocf/models/*.py``, each named by its path in
    the package), of scipy's ``version.py``, read from its file without
    importing scipy, and numpy's version."""
    h = hashlib.blake2b(digest_size=16)
    package = os.path.dirname(os.path.abspath(__file__))
    files = [(os.path.join(sub, name), os.path.join(package, sub, name))
             for sub in ("", "models")
             for name in sorted(os.listdir(os.path.join(package, sub)))
             if name.endswith(".py")]
    for name, path in files + [("scipy/version.py",
                                scipy_file("version.py"))]:
        h.update(name.encode() + b"\0")
        if path is not None:
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    h.update(f"numpy {np.__version__}".encode())
    return h.hexdigest()


class RunLedger:
    """Per-cell status records with content hashes of inputs and outputs.

    A cell is re-run iff its status is not done, an input hash changed, or
    an output file is missing or was modified since it was recorded.
    """

    def __init__(self, path, resume):
        """Start empty, or with ``resume`` from the cells ``path`` holds."""
        self.path = path
        self.base = os.path.dirname(os.path.abspath(path))
        self.cells = {}
        if resume and os.path.exists(path):
            try:
                with open(path) as fh:
                    held = json.load(fh)
            except ValueError as exc:  # undecodable bytes or not JSON
                raise InputError(f"{path}: {exc}") from exc
            cells = held.get("cells", {}) if isinstance(held, dict) else None
            if not (isinstance(cells, dict) and all(
                    isinstance(cell, dict)
                    and isinstance(cell.get("outputs", {}), dict)
                    for cell in cells.values())):
                raise InputError(f"{path}: not an object whose cells, and "
                                 f"their outputs, are objects")
            self.cells = cells

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"version": 1, "cells": self.cells}, fh, indent=1,
                      sort_keys=True)
        os.replace(tmp, self.path)

    def is_current(self, key, input_hashes):
        cell = self.cells.get(key)
        if not cell or cell.get("status") != "done":
            return False
        if cell.get("inputs") != input_hashes:
            return False
        outputs = cell.get("outputs", {})
        if not outputs:
            return False
        for rel, digest in outputs.items():
            path = os.path.join(self.base, rel)
            if not os.path.exists(path) or file_hash(path) != digest:
                return False
        return True

    def mark_done(self, key, input_hashes, output_paths):
        self.cells[key] = {
            "status": "done",
            "inputs": input_hashes,
            "outputs": {os.path.relpath(p, self.base): file_hash(p)
                        for p in output_paths},
        }

    def mark_failed(self, key, input_hashes, error):
        self.cells[key] = {"status": "failed", "inputs": input_hashes,
                           "error": str(error)}


# ---------------------------------------------------------------------------
# cells: workers are module-level so ProcessPoolExecutor can pickle them;
# each returns (row, error)

def _characterize_cell(args):
    sample_id, graph = args
    try:
        return (sample_id, *chars.compute_vector(graph).tolist()), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _train_cell(args):
    sample_id, graph, kind, model_cfg, sample_seed = args
    try:
        split_rng = np.random.default_rng(stable_seed(sample_seed, "split"))
        split = split_dataset(graph, split_rng)
        model_seed = stable_seed(sample_seed, "model", kind)
        model = train_model(split, model_cfg,
                            np.random.default_rng(model_seed))
        result = evaluate(model, split, phase="test")
        return MetricRow(sample_id, kind, result.recall, result.ndcg,
                         model.epochs_trained, model.stopped_early,
                         model.best_epoch), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_ledgered(cfg, ledger, result, cells, fn, header, parse,
                  note=lambda row: ""):
    """Run ``(key, label, inputs, path, work)`` cells; return their rows.

    A cell the ledger holds as current is read back from ``path`` with
    ``read_rows(path, header, parse)``; the rest run ``fn(work)`` in
    ``cfg.jobs`` processes, and each row is written to ``path`` under
    ``header`` and marked in the ledger. Reused rows come first, then new
    ones in cell order.
    """
    rows, todo = [], []
    for cell in cells:
        key, label, inputs, path, _ = cell
        if ledger.is_current(key, inputs):
            rows.extend(read_rows(path, header, parse))
            _log(f"{label}: reused")
        else:
            todo.append(cell)
    work = [cell[4] for cell in todo]
    if cfg.jobs > 1 and len(work) > 1:
        # multiprocessing is imported only by a run that starts a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(fn, work))
    else:
        outcomes = map(fn, work)
    for (key, label, inputs, path, _), (row, error) in zip(todo, outcomes):
        if error is not None:
            ledger.mark_failed(key, inputs, error)
            result.failures.append((key, error))
            _log(f"{label}: FAILED ({error})")
            continue
        write_rows(path, header, [row])
        ledger.mark_done(key, inputs, [path])
        rows.append(row)
        _log(f"{label}: done{note(row)}")
    ledger.save()
    return rows


# ---------------------------------------------------------------------------
# stages

def load_dataset(cfg):
    """Ingest the configured interaction file and keep its LCC."""
    try:
        with open(cfg.dataset, encoding="utf-8") as fh:
            g = ingest_and_build(fh)
    except (GraphError, UnicodeDecodeError) as exc:
        raise InputError(f"{cfg.dataset}: {exc}") from exc
    return largest_connected_component(g)


def prepare_samples(cfg, lcc):
    """Deterministically (re)generate the sample pool and persist it.

    Returns the samples and each sample file's digest, taken as it is
    written."""
    sample_dir = os.path.join(cfg.out_dir, "samples")
    os.makedirs(sample_dir, exist_ok=True)
    samples = sampling.generate_samples(
        lcc, cfg.num_samples, mu_range=(cfg.mu_min, cfg.mu_max),
        strategies=cfg.strategies, master_seed=cfg.master_seed)
    digests = {s.spec.sample_id:
               file_hash(sampling.write_sample_edges(s, sample_dir))
               for s in samples}
    write_rows(os.path.join(cfg.out_dir, "manifest.csv"), MANIFEST_HEADER,
               [(s.spec.sample_id, s.spec.strategy, s.spec.mu, s.spec.seed,
                 s.graph.num_users, s.graph.num_items,
                 s.graph.num_interactions) for s in samples])
    return samples, digests


def characterize_samples(cfg, samples, digests, ledger, result):
    """Per-sample characteristic vectors, reusing current ledger cells,
    aggregated into ``characteristics.csv``."""
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "chars"), exist_ok=True)
    cells = []
    for s in samples:
        sid = s.spec.sample_id
        cells.append((f"chars:{sid}", f"characterize[{sid}]",
                      {"sample": digests[sid], "code": code_digest()},
                      os.path.join(out, "chars", f"{sid}.csv"), (sid, s.graph)))
    rows = sorted(_run_ledgered(cfg, ledger, result, cells,
                                _characterize_cell, CHARS_HEADER, _chars_row))
    write_rows(os.path.join(out, "characteristics.csv"), CHARS_HEADER, rows)
    return {sid: values for sid, *values in rows}


def train_samples(cfg, samples, digests, ledger, result):
    """Per-(sample, model) training and evaluation cells, aggregated into
    ``metrics.csv``; each model's mean recall and nDCG over its completed
    rows is logged."""
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "metrics"), exist_ok=True)
    cells = []
    for s in samples:
        sid = s.spec.sample_id
        for kind in cfg.models:
            model_cfg = cfg.config_for(kind)
            cells.append((f"train:{sid}:{kind}", f"train[{sid},{kind}]",
                          {"sample": digests[sid], "code": code_digest(),
                           "config": repr(model_cfg)},
                          os.path.join(out, "metrics", f"{sid}_{kind}.csv"),
                          (sid, s.graph, kind, model_cfg, s.spec.seed)))
    rows = _run_ledgered(
        cfg, ledger, result, cells, _train_cell, METRICS_HEADER, _metric_row,
        lambda row: f" (recall@20={row.recall:.4f}, "
                    f"{row.epochs_trained} epochs)")
    write_rows(os.path.join(out, "metrics.csv"), METRICS_HEADER, sorted(rows))
    for kind in cfg.models:
        done = [row for row in rows if row.model == kind]
        if done:
            recall = sum(row.recall for row in done) / len(done)
            ndcg = sum(row.ndcg for row in done) / len(done)
            _log(f"train[{kind}]: mean recall@20={recall:.4f} "
                 f"ndcg@20={ndcg:.4f} over {len(done)} samples")
    return rows


def _regression_table(result, key, label, vectors, metric_rows, kind,
                      stem, title, statistics=(), preamble=""):
    """Fit ``kind``'s regression, write ``<stem>.csv`` (``statistics``
    rows first) and ``<stem>.md`` (``preamble`` first) and add the latter's
    text to ``result.sections``; or record the failure under ``key``,
    remove the two files if an earlier run left them, and return None."""
    metrics = {row.sample_id: row.recall for row in metric_rows
               if row.model == kind}
    try:
        design, y = build_design(vectors, metrics)
        report = fit_ols(design, y)
    except DesignError as exc:
        result.failures.append((key, str(exc)))
        _log(f"{label}: FAILED ({exc})")
        for path in (stem + ".csv", stem + ".md"):
            if os.path.exists(path):
                os.remove(path)
        return None
    write_rows(stem + ".csv", "statistic,value",
               report_rows(report, statistics))
    section = preamble + render_markdown(
        report, title=f"{title} (Recall@20)") + "\n"
    with open(stem + ".md", "w", encoding="utf-8") as fh:
        fh.write(section)
    result.sections.append(section)
    return report


def fit_reports(cfg, vectors, metric_rows, result):
    """Per-model regressions over every sample, written to ``reports/``."""
    report_dir = os.path.join(cfg.out_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    for kind in cfg.models:
        report = _regression_table(
            result, f"explain:report:{kind}", f"explain[{kind}]", vectors,
            metric_rows, kind, os.path.join(report_dir, f"report_{kind}"),
            kind)
        if report is not None:
            _log(f"explain[{kind}]: R2={report.r2:.3f} "
                 f"(adj {report.adj_r2:.3f}, M={report.num_rows})")


def emit_graph_diagnostics(lcc, vectors, out):
    """Correlation matrix of the characteristics plus the user and item
    degree histograms of the ingested graph."""
    vecs = [v for _, v in sorted(vectors.items())]
    try:
        matrix = chars.pearson_matrix(vecs)
        write_rows(os.path.join(out, "correlations.csv"),
                   "," + ",".join(chars.SHORTHAND_NAMES),
                   [(name, *row) for name, row
                    in zip(chars.SHORTHAND_NAMES, matrix.tolist())])
    except ValueError as exc:
        _log(f"correlations: skipped ({exc})")
    for partition, degrees in (("user", lcc.user_degrees),
                               ("item", lcc.item_degrees)):
        chars.write_degree_histogram(
            degrees, os.path.join(out, f"degree_distribution_{partition}.tsv"))


def start_run(cfg, resume=False):
    """Set-up shared by every command that writes outputs: open the ledger
    (empty unless resuming), keep the dataset's LCC in ``lcc_edges.tsv``
    and write the sample pool.

    Returns (lcc, samples, digests, ledger, result), ``digests`` mapping
    each sample id to its sample file's digest.
    """
    out = cfg.out_dir
    lcc = load_dataset(cfg)
    os.makedirs(out, exist_ok=True)
    ledger = RunLedger(os.path.join(out, "ledger.json"), resume)
    write_interactions(lcc, os.path.join(out, "lcc_edges.tsv"))
    _log(f"ingest: LCC with {lcc.num_users} users, {lcc.num_items} items, "
         f"{lcc.num_interactions} interactions")

    samples, digests = prepare_samples(cfg, lcc)
    _log(f"sample: wrote {len(samples)} sub-datasets")
    return lcc, samples, digests, ledger, RunResult()


def run_experiment(cfg, resume=False):
    """Execute ingest -> sample -> characterize -> train -> explain.

    Cell failures are recorded and skipped; regressions use the completed
    rows and note the attrition.
    """
    lcc, samples, digests, ledger, result = start_run(cfg, resume)
    vectors = characterize_samples(cfg, samples, digests, ledger, result)
    metric_rows = train_samples(cfg, samples, digests, ledger, result)
    fit_reports(cfg, vectors, metric_rows, result)
    emit_graph_diagnostics(lcc, vectors, cfg.out_dir)
    return result, samples, vectors, metric_rows


def rq2_sweep(cfg, samples, vectors, metric_rows, result):
    """Per-alpha regressions over mixed node-/edge-dropout sample pools.

    For each alpha, round((1-alpha)*total) node-dropout samples plus the
    complementary count of edge-dropout samples form the design set, where
    total is the size of the smaller strategy pool; each model's regression
    is refitted on that set. Each report leads with the mean
    users/items/interactions of the selected samples. Returns the reports
    by (alpha, model).
    """
    rq2_dir = os.path.join(cfg.out_dir, "rq2")
    os.makedirs(rq2_dir, exist_ok=True)
    node_pool = [s for s in samples if s.spec.strategy == sampling.NODE_DROPOUT]
    edge_pool = [s for s in samples if s.spec.strategy == sampling.EDGE_DROPOUT]
    total = min(len(node_pool), len(edge_pool))
    if total == 0:
        raise sampling.SamplePoolError(
            "rq2 needs both node-dropout and edge-dropout samples "
            f"(pools hold {len(node_pool)} and {len(edge_pool)})")
    summary_rows = []
    reports = {}
    for alpha in cfg.alphas:
        selected = sampling.mix_for_alpha(node_pool, edge_pool, alpha, total)
        ids = {s.spec.sample_id for s in selected}
        users, items, interactions = (
            float(np.mean([getattr(s.graph, name) for s in selected]))
            for name in ("num_users", "num_items", "num_interactions"))
        sub_vectors = {sid: vectors[sid] for sid in ids if sid in vectors}
        sub_metrics = [row for row in metric_rows if row.sample_id in ids]
        for kind in cfg.models:
            report = _regression_table(
                result, f"rq2:alpha={alpha:g}:{kind}",
                f"rq2[alpha={alpha:g},{kind}]", sub_vectors, sub_metrics,
                kind, os.path.join(rq2_dir, f"alpha_{alpha:g}_{kind}"),
                f"{kind} at alpha={alpha:g}",
                statistics=[("alpha", f"{alpha:g}"), ("mean_users", users),
                            ("mean_items", items),
                            ("mean_interactions", interactions)],
                preamble=f"Average sampling statistics: {users:.1f} users, "
                         f"{items:.1f} items, {interactions:.1f} "
                         f"interactions (alpha={alpha:g})\n\n")
            if report is None:
                continue
            reports[(alpha, kind)] = report
            summary_rows.append((f"{alpha:g}", kind, report.r2,
                                 report.adj_r2, report.num_rows, users, items,
                                 interactions))
            _log(f"rq2[alpha={alpha:g},{kind}]: R2={report.r2:.3f} "
                 f"(M={report.num_rows})")
    write_rows(os.path.join(rq2_dir, "summary.csv"),
               "alpha,model,R2,adj_R2,M,mean_users,mean_items,"
               "mean_interactions", summary_rows)
    return reports


def emit_report(cfg, result):
    """Write ``report.md``: a title, then the regression sections this run
    fitted, in the order it fitted them."""
    with open(os.path.join(cfg.out_dir, "report.md"), "w",
              encoding="utf-8") as fh:
        fh.write("# Topology-performance analysis\n\n")
        fh.write("\n\n".join(result.sections))
