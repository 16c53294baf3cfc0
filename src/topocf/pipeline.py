"""End-to-end orchestration: seeding, resume, persistence, reports.

A run lays out its output directory as::

    lcc_edges.tsv                 ingested graph after LCC extraction
    manifest.csv                  per-sample strategy/mu/seed/sizes
    samples/<id>.tsv              sub-dataset edge lists
    chars/<id>.csv                per-sample characteristic rows
    metrics/<id>_<model>.csv      per-(sample, model) evaluation rows
    characteristics.csv           aggregate of chars/
    metrics.csv                   aggregate of metrics/
    correlations.csv              Pearson correlations of the characteristics
    degree_distribution_{user,item}.tsv
                                  LCC degree histogram: degree, share of nodes
    reports/                      per-model regression CSV + markdown
    rq2/                          per-(alpha, model) regression reports
    report.md                     all regression tables concatenated
    ledger.json                   content-hash resume state

Every cell derives its randomness from (master_seed, sample_id[, model]),
so results are byte-identical regardless of parallelism or resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import characteristics as chars
from . import sampling
from .evaluation import evaluate
from .explain import (DesignError, RankDeficiencyError, build_design, fit_ols,
                      render_markdown, write_report_csv)
from .graph import (ingest_and_build, largest_connected_component,
                    write_interactions)
from .models.base import train_model
from .models.split import split_dataset
from .seeds import stable_seed


def metrics_header(k):
    return f"sample_id,model,recall@{k},ndcg@{k},epochs_trained,stopped_early"


@dataclass
class RunResult:
    out_dir: str
    num_samples: int = 0
    characteristic_rows: int = 0
    metric_rows: int = 0
    reports: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def _log(message):
    print(message, file=sys.stderr, flush=True)


def file_hash(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class RunLedger:
    """Per-cell status records with content hashes of inputs and outputs.

    A cell is re-run iff its status is not done, an input hash changed, or
    an output file is missing or was modified since it was recorded.
    """

    def __init__(self, path):
        self.path = path
        self.base = os.path.dirname(os.path.abspath(path))
        self.cells = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.cells = json.load(fh).get("cells", {})

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
# cell workers (module-level so ProcessPoolExecutor can pickle them)

def _characterize_cell(args):
    sample_id, graph = args
    try:
        return sample_id, chars.compute_vector(graph), None
    except Exception as exc:
        return sample_id, None, f"{type(exc).__name__}: {exc}"


def _train_cell(args):
    sample_id, graph, kind, model_cfg, sample_seed, k = args
    try:
        split_rng = np.random.default_rng(stable_seed(sample_seed, "split"))
        split = split_dataset(graph, split_rng)
        model_seed = stable_seed(sample_seed, "model", kind)
        model = train_model(split, model_cfg,
                            np.random.default_rng(model_seed))
        result = evaluate(model, split, k=k, phase="test")
        row = (sample_id, kind, result.recall, result.ndcg,
               model.epochs_trained, model.stopped_early)
        return sample_id, kind, row, None
    except Exception as exc:
        return sample_id, kind, None, f"{type(exc).__name__}: {exc}"


def _run_cells(jobs, fn, work):
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, work)
    else:
        for item in work:
            yield fn(item)


# ---------------------------------------------------------------------------
# stages

def load_dataset(cfg):
    """Ingest the configured interaction file and keep its LCC."""
    with open(cfg.dataset, "r", encoding="utf-8") as fh:
        g = ingest_and_build(fh)
    return largest_connected_component(g)


def prepare_samples(cfg, lcc):
    """Deterministically (re)generate the sample pool and persist it."""
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "samples"), exist_ok=True)
    samples = sampling.generate_samples(
        lcc, cfg.num_samples, mu_range=(cfg.mu_min, cfg.mu_max),
        strategies=cfg.strategies, master_seed=cfg.master_seed)
    paths = {s.spec.sample_id:
             sampling.write_sample_edges(s, os.path.join(out, "samples"))
             for s in samples}
    sampling.write_manifest(samples, os.path.join(out, "manifest.csv"))
    return samples, paths


def characterize_samples(cfg, samples, sample_paths, ledger, result):
    """Per-sample characteristic vectors, reusing current ledger cells,
    aggregated into ``characteristics.csv``."""
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "chars"), exist_ok=True)
    vectors = {}
    inputs = {s.spec.sample_id: {"sample": file_hash(sample_paths[s.spec.sample_id])}
              for s in samples}
    todo = []
    for s in samples:
        sid = s.spec.sample_id
        path = os.path.join(out, "chars", f"{sid}.csv")
        if ledger.is_current(f"chars:{sid}", inputs[sid]):
            vectors[sid] = chars.read_characteristics_csv(path)[0][1]
            _log(f"characterize[{sid}]: reused")
        else:
            todo.append((sid, s.graph))
    for sid, vec, error in _run_cells(cfg.jobs, _characterize_cell, todo):
        key = f"chars:{sid}"
        if error is not None:
            ledger.mark_failed(key, inputs[sid], error)
            result.failures.append((key, error))
            _log(f"characterize[{sid}]: FAILED ({error})")
            continue
        path = os.path.join(out, "chars", f"{sid}.csv")
        chars.write_characteristics_csv([(sid, vec)], path)
        ledger.mark_done(key, inputs[sid], [path])
        vectors[sid] = vec
        _log(f"characterize[{sid}]: done")
    ledger.save()
    chars.write_characteristics_csv(
        [(sid, vectors[sid]) for sid in sorted(vectors)],
        os.path.join(out, "characteristics.csv"))
    result.characteristic_rows = len(vectors)
    return vectors


def _read_metric_row(path, k):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != metrics_header(k):
            raise ValueError(f"unexpected metrics header in {path}: {header!r}")
        sid, kind, recall, ndcg, epochs, stopped = \
            fh.readline().strip().split(",")
    return (int(sid), kind, float(recall), float(ndcg), int(epochs),
            stopped == "True")


def train_samples(cfg, samples, sample_paths, ledger, result):
    """Per-(sample, model) training and evaluation cells, aggregated into
    ``metrics.csv``."""
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "metrics"), exist_ok=True)
    rows = []
    inputs = {}
    todo = []
    by_id = {s.spec.sample_id: s for s in samples}
    for sid in sorted(by_id):
        s = by_id[sid]
        sample_digest = file_hash(sample_paths[sid])
        for kind in cfg.models:
            model_cfg = cfg.config_for(kind)
            key = f"train:{sid}:{kind}"
            inputs[key] = {"sample": sample_digest,
                           "config": repr(model_cfg),
                           "k": str(cfg.metric_k)}
            path = os.path.join(out, "metrics", f"{sid}_{kind}.csv")
            if ledger.is_current(key, inputs[key]):
                rows.append(_read_metric_row(path, cfg.metric_k))
                _log(f"train[{sid},{kind}]: reused")
            else:
                todo.append((sid, s.graph, kind, model_cfg, s.spec.seed,
                             cfg.metric_k))
    for sid, kind, row, error in _run_cells(cfg.jobs, _train_cell, todo):
        key = f"train:{sid}:{kind}"
        if error is not None:
            ledger.mark_failed(key, inputs[key], error)
            result.failures.append((key, error))
            _log(f"train[{sid},{kind}]: FAILED ({error})")
            continue
        path = os.path.join(out, "metrics", f"{sid}_{kind}.csv")
        write_metrics_csv([row], path, cfg.metric_k)
        ledger.mark_done(key, inputs[key], [path])
        rows.append(row)
        _log(f"train[{sid},{kind}]: done (recall@{cfg.metric_k}="
             f"{row[2]:.4f}, {row[4]} epochs)")
    ledger.save()
    write_metrics_csv(rows, os.path.join(out, "metrics.csv"), cfg.metric_k)
    result.metric_rows = len(rows)
    return rows


def write_metrics_csv(rows, path, k):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_header(k) + "\n")
        for row in sorted(rows, key=lambda r: (r[0], r[1])):
            sid, kind, recall, ndcg, epochs, stopped = row
            fh.write(f"{sid},{kind},{recall!r},{ndcg!r},{epochs},{stopped}\n")


def fit_model_report(cfg, vectors, metric_rows, kind, metric_index=2):
    """Regression of one model's metric on the characteristics."""
    metrics = {row[0]: row[metric_index] for row in metric_rows
               if row[1] == kind}
    design, y = build_design(vectors, metrics, standardize=cfg.standardize)
    # The five size/shape/density/degree characteristics are exact linear
    # functions of (log U, log I, log E), so the full design is collinear
    # by construction; fall back to the minimum-norm solution when the
    # strict fit rejects it.
    try:
        report = fit_ols(design, y)
    except RankDeficiencyError as exc:
        _log(f"explain[{kind}]: {exc}; using minimum-norm least squares")
        report = fit_ols(design, y, rank_policy="pinv")
    report.metadata.update({
        "model": kind,
        "usable_rows": design.num_rows,
        "attrition": len(vectors) - design.num_rows,
    })
    return report


def fit_reports(cfg, vectors, metric_rows, result, report_dir,
                prefix="report", title_extra=""):
    os.makedirs(report_dir, exist_ok=True)
    reports = {}
    for kind in cfg.models:
        try:
            report = fit_model_report(cfg, vectors, metric_rows, kind)
        except (DesignError, RankDeficiencyError) as exc:
            key = f"explain:{prefix}:{kind}"
            result.failures.append((key, str(exc)))
            _log(f"explain[{kind}]: FAILED ({exc})")
            continue
        csv_path = os.path.join(report_dir, f"{prefix}_{kind}.csv")
        write_report_csv(report, csv_path)
        title = f"{kind}{title_extra} (Recall@{cfg.metric_k})"
        with open(os.path.join(report_dir, f"{prefix}_{kind}.md"), "w",
                  encoding="utf-8") as fh:
            fh.write(render_markdown(report, title=title) + "\n")
        reports[kind] = report
        result.reports.append(csv_path)
        _log(f"explain[{kind}]: R2={report.r2:.3f} "
             f"(adj {report.adj_r2:.3f}, M={report.num_rows})")
    return reports


def emit_graph_diagnostics(lcc, vectors, out):
    """Correlation matrix of the characteristics plus the user and item
    degree histograms of the ingested graph."""
    vecs = [v for _, v in sorted(vectors.items())]
    try:
        matrix = chars.pearson_matrix(vecs)
        chars.write_correlation_csv(matrix,
                                    os.path.join(out, "correlations.csv"))
    except ValueError as exc:
        _log(f"correlations: skipped ({exc})")
    for partition, degrees in (("user", lcc.user_degrees),
                               ("item", lcc.item_degrees)):
        chars.write_degree_histogram(
            degrees, os.path.join(out, f"degree_distribution_{partition}.tsv"))


def start_run(cfg, resume=False):
    """Set-up shared by every command that writes outputs: open the ledger
    (cleared unless resuming), keep the dataset's LCC in ``lcc_edges.tsv``
    and write the sample pool.

    Returns (lcc, samples, sample_paths, ledger, result).
    """
    out = cfg.out_dir
    lcc = load_dataset(cfg)
    os.makedirs(out, exist_ok=True)
    ledger = RunLedger(os.path.join(out, "ledger.json"))
    if not resume:
        ledger.cells = {}
    result = RunResult(out_dir=out)
    write_interactions(lcc, os.path.join(out, "lcc_edges.tsv"))
    _log(f"ingest: LCC with {lcc.num_users} users, {lcc.num_items} items, "
         f"{lcc.num_interactions} interactions")

    samples, sample_paths = prepare_samples(cfg, lcc)
    result.num_samples = len(samples)
    _log(f"sample: wrote {len(samples)} sub-datasets")
    return lcc, samples, sample_paths, ledger, result


def run_experiment(cfg, resume=False):
    """Execute ingest -> sample -> characterize -> train -> explain -> report.

    Cell failures are recorded and skipped; regressions use the completed
    rows and note the attrition.
    """
    lcc, samples, sample_paths, ledger, result = start_run(cfg, resume)
    vectors = characterize_samples(cfg, samples, sample_paths, ledger, result)
    metric_rows = train_samples(cfg, samples, sample_paths, ledger, result)
    fit_reports(cfg, vectors, metric_rows, result,
                os.path.join(cfg.out_dir, "reports"))
    emit_graph_diagnostics(lcc, vectors, cfg.out_dir)
    return result, samples, vectors, metric_rows


def rq2_sweep(cfg, samples, vectors, metric_rows, result=None):
    """Per-alpha regressions over mixed node-/edge-dropout sample pools.

    For each alpha, round((1-alpha)*total) node-dropout samples plus the
    complementary count of edge-dropout samples form the design set; each
    model's regression is refitted on that set. Report metadata carries the
    mean users/items/interactions of the selected samples.
    """
    if result is None:
        result = RunResult(out_dir=cfg.out_dir)
    rq2_dir = os.path.join(cfg.out_dir, "rq2")
    os.makedirs(rq2_dir, exist_ok=True)
    node_pool = [s for s in samples if s.spec.strategy == sampling.NODE_DROPOUT]
    edge_pool = [s for s in samples if s.spec.strategy == sampling.EDGE_DROPOUT]
    total = cfg.rq2_total or min(len(node_pool), len(edge_pool))
    if total == 0:
        raise sampling.SamplePoolError(
            "rq2 needs both node-dropout and edge-dropout samples "
            f"(pools hold {len(node_pool)} and {len(edge_pool)})")
    summary_rows = []
    reports = {}
    for alpha in cfg.alphas:
        selected = sampling.mix_for_alpha(node_pool, edge_pool, alpha, total)
        ids = [s.spec.sample_id for s in selected]
        stats = {
            "mean_users": float(np.mean([s.graph.num_users for s in selected])),
            "mean_items": float(np.mean([s.graph.num_items for s in selected])),
            "mean_interactions": float(np.mean(
                [s.graph.num_interactions for s in selected])),
        }
        sub_vectors = {sid: vectors[sid] for sid in ids if sid in vectors}
        sub_metrics = [row for row in metric_rows if row[0] in set(ids)]
        for kind in cfg.models:
            key = f"rq2:alpha={alpha:g}:{kind}"
            try:
                report = fit_model_report(cfg, sub_vectors, sub_metrics, kind)
            except (DesignError, RankDeficiencyError) as exc:
                result.failures.append((key, str(exc)))
                _log(f"rq2[alpha={alpha:g},{kind}]: FAILED ({exc})")
                continue
            report.metadata.update({"alpha": alpha, **stats})
            tag = f"alpha_{alpha:g}_{kind}"
            csv_path = os.path.join(rq2_dir, f"{tag}.csv")
            _write_rq2_csv(report, csv_path)
            with open(os.path.join(rq2_dir, f"{tag}.md"), "w",
                      encoding="utf-8") as fh:
                fh.write(_rq2_header_markdown(report) + "\n")
                fh.write(render_markdown(
                    report, title=f"{kind} at alpha={alpha:g} "
                    f"(Recall@{cfg.metric_k})") + "\n")
            reports[(alpha, kind)] = report
            result.reports.append(csv_path)
            summary_rows.append((alpha, kind, report.r2, report.adj_r2,
                                 report.num_rows, stats))
            _log(f"rq2[alpha={alpha:g},{kind}]: R2={report.r2:.3f} "
                 f"(M={report.num_rows})")
    with open(os.path.join(rq2_dir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("alpha,model,R2,adj_R2,M,"
                 "mean_users,mean_items,mean_interactions\n")
        for alpha, kind, r2, adj, m, stats in summary_rows:
            fh.write(f"{alpha:g},{kind},{r2!r},{adj!r},{m},"
                     f"{stats['mean_users']!r},{stats['mean_items']!r},"
                     f"{stats['mean_interactions']!r}\n")
    return reports, result


def _rq2_header_markdown(report):
    md = report.metadata
    return (f"Average sampling statistics: "
            f"{md['mean_users']:.1f} users, {md['mean_items']:.1f} items, "
            f"{md['mean_interactions']:.1f} interactions "
            f"(alpha={md['alpha']:g})\n")


def _write_rq2_csv(report, path):
    """Standard report CSV prefixed by the sampling-statistics rows."""
    md = report.metadata
    write_report_csv(report, path, statistics=[
        ("alpha", f"{md['alpha']:g}"),
        ("mean_users", repr(md["mean_users"])),
        ("mean_items", repr(md["mean_items"])),
        ("mean_interactions", repr(md["mean_interactions"]))])


def emit_report(cfg, out=None):
    """Assemble runs' regression outputs into one markdown overview."""
    out = out or cfg.out_dir
    sections = []
    for sub in ("reports", "rq2"):
        report_dir = os.path.join(out, sub)
        if not os.path.isdir(report_dir):
            continue
        for name in sorted(os.listdir(report_dir)):
            if name.endswith(".md"):
                with open(os.path.join(report_dir, name), encoding="utf-8") as fh:
                    sections.append(fh.read())
    if not sections:
        raise FileNotFoundError(
            f"no regression reports found under {out}; run the explain or "
            f"rq2 stages first")
    path = os.path.join(out, "report.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Topology-performance analysis\n\n")
        fh.write("\n\n".join(sections))
    return path
