"""Run the topocf CLI in this process with a span around each layer call.

Usage::

    python bench/trace_cli.py SPANS_JSON [topocf arguments...]

The import path must already reach ``src/`` (``bench/run.py`` sets
PYTHONPATH). Wrappers are installed at the module attributes where the
callers look the public functions up, so nothing under ``src/`` changes.
Each call records ``[name, start, end, parent]`` in memory, counts are
taken at the same boundaries, and both are written to SPANS_JSON once the
CLI returns. The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

from topocf import characteristics, cli, graph, pipeline, sampling
from topocf.models import base, dgcf, svdgcn, ultragcn


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []         # indices of the spans still running

    def wrap(self, fn, name, on_return=None):
        """Span-recording wrapper. ``name`` is a string or a function of
        the call arguments; ``on_return(counts, label, args, kwargs,
        result)`` adds counts after a call that returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[label + ".failed"] += 1
                raise
            else:
                if on_return is not None:
                    on_return(self.counts, label, args, kwargs, result)
                return result
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
                self.counts[label + ".calls"] += 1
        return wrapper

    def patch(self, module, attr, name, on_return=None):
        setattr(module, attr, self.wrap(getattr(module, attr), name,
                                        on_return))

    def count_calls(self, module, attr, counter):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        setattr(module, attr, wrapper)


def _pairs(counts, label, args, kwargs, proj):
    counts["graph.project.pairs"] += proj.num_edges


def _edges_written(counts, label, args, kwargs, path):
    counts["sampling.edges_written"] += args[0].graph.num_interactions


def _model_name(split, cfg, rng):
    return f"models.{cfg.kind}"


def _epochs(counts, label, args, kwargs, model):
    counts[label + ".epochs"] += model.epochs_trained


def _phase_name(model, split, k=20, phase="test"):
    return f"evaluation.{phase}"


def _users_ranked(counts, label, args, kwargs, result):
    counts["evaluation.users_ranked"] += result.num_users


def _pinv(counts, label, args, kwargs, report):
    policy = kwargs.get("rank_policy", args[2] if len(args) > 2 else "error")
    if policy == "pinv":
        counts["explain.pinv_fallbacks"] += 1


def _bytes_hashed(counts, label, args, kwargs, digest):
    counts["pipeline.file_hash.bytes"] += os.path.getsize(args[0])


def install(tracer):
    t = tracer
    # graph layer
    t.patch(pipeline, "ingest_and_build", "graph.ingest_and_build")
    t.patch(pipeline, "largest_connected_component",
            "graph.largest_connected_component")
    t.patch(pipeline, "write_interactions", "graph.write_interactions")
    t.patch(characteristics, "project", "graph.project", _pairs)
    build = graph.BipartiteGraph.__dict__["from_edge_array"].__func__
    graph.BipartiteGraph.from_edge_array = classmethod(
        t.wrap(build, "graph.from_edge_array"))
    # sampling
    t.patch(sampling, "generate_samples", "sampling.generate_samples")
    t.patch(sampling, "write_sample_edges", "sampling.write_sample_edges",
            _edges_written)
    # characteristics
    t.patch(characteristics, "compute_vector",
            "characteristics.compute_vector")
    # models.split and models
    t.patch(pipeline, "split_dataset", "split.split_dataset")
    t.patch(pipeline, "train_model", _model_name, _epochs)
    for module in (base, svdgcn):
        t.patch(module, "sample_negative_items",
                "models.sample_negative_items")
    t.patch(svdgcn, "randomized_subspace_svd", "models.svd")
    t.count_calls(dgcf, "normalized_operator", "models.dgcf.operator_builds")
    t.patch(ultragcn, "item_cooccurrence_topk",
            "models.ultragcn.cooccurrence_topk")
    # evaluation: test phase from the pipeline, valid phase from train_loop
    for module in (pipeline, base):
        t.patch(module, "evaluate", _phase_name, _users_ranked)
    # explain
    t.patch(pipeline, "fit_ols", "explain.fit_ols", _pinv)
    # pipeline stages
    for stage in ("load_dataset", "prepare_samples", "characterize_samples",
                  "train_samples", "fit_reports", "rq2_sweep", "emit_report",
                  "run_experiment"):
        t.patch(pipeline, stage, f"pipeline.{stage}")
    t.patch(pipeline, "file_hash", "pipeline.file_hash", _bytes_hashed)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap(cli.main, "pipeline.cli")
    try:
        return run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
