"""Configuration parsing, orchestration, resume, parallelism, and the CLI."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topocf import graph, pipeline
from topocf.characteristics import read_characteristics_csv
from topocf.cli import main
from topocf.config import ConfigError, parse_config
from topocf.graph import write_interactions
from topocf.pipeline import RunLedger, metrics_header, run_experiment
from topocf.synthetic import heavy_tailed_graph


FAST_MODEL_LINES = [
    "models=lightgcn,svdgcn",
    "model.lightgcn.embedding_dim=8",
    "model.lightgcn.layers=1",
    "model.lightgcn.max_epochs=2",
    "model.lightgcn.eval_interval=1",
    "model.lightgcn.patience=1",
    "model.svdgcn.embedding_dim=8",
    "model.svdgcn.svd_rank=8",
    "model.svdgcn.max_epochs=2",
    "model.svdgcn.eval_interval=1",
]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    g = heavy_tailed_graph(num_users=800, num_items=400,
                           num_interactions=6000, seed=5)
    path = tmp_path_factory.mktemp("data") / "interactions.tsv"
    write_interactions(g, path)
    return str(path)


def _config(dataset, out_dir, *extra):
    lines = [f"dataset={dataset}", f"out_dir={out_dir}", *FAST_MODEL_LINES,
             *extra]
    return parse_config(lines)


@pytest.fixture(scope="module")
def full_run(dataset_path, tmp_path_factory):
    """One 28-sample experiment shared by the inspection tests below."""
    out = tmp_path_factory.mktemp("run")
    # master_seed=3 draws 14 node-dropout and 14 edge-dropout samples,
    # giving both alpha-sweep pools enough rows for the regression
    cfg = _config(dataset_path, out, "num_samples=28", "master_seed=3")
    result, samples, vectors, metric_rows = run_experiment(cfg)
    return cfg, result, samples, vectors, metric_rows


# ---------------------------------------------------------------------------
# configuration

def test_parse_config_defaults():
    cfg = parse_config([])
    assert cfg.num_samples == 20
    assert cfg.metric_k == 20
    assert cfg.alphas == (0.0, 0.3, 0.7, 1.0)
    assert cfg.models == ("lightgcn", "dgcf", "ultragcn", "svdgcn")


def test_parse_config_values_comments_and_overrides():
    cfg = parse_config(
        ["# a comment", "", "num_samples = 8", "mu_min=0.5", "mu_max=0.6",
         "models=lightgcn", "standardize=false"],
        overrides=["num_samples=9", "alphas=0,0.5,1"])
    assert cfg.num_samples == 9
    assert cfg.mu_min == 0.5
    assert cfg.models == ("lightgcn",)
    assert cfg.standardize is False
    assert cfg.alphas == (0.0, 0.5, 1.0)


def test_model_field_overrides_reach_config_for():
    cfg = parse_config(["model.lightgcn.layers=1",
                        "model.lightgcn.learning_rate=0.01"])
    mc = cfg.config_for("lightgcn")
    assert mc.layers == 1
    assert mc.learning_rate == 0.01
    # other kinds keep their defaults
    assert cfg.config_for("dgcf").layers == 3


@pytest.mark.parametrize("bad", [
    "nonsense_key=1",
    "num_samples=zero",
    "num_samples=0",
    "mu_min=0.9\nmu_max=0.5",
    "mu_max=1.0",
    "standardize=maybe",
    "models=lightgcn,foo",
    "alphas=0,2",
    "model.foo.layers=1",
    "model.lightgcn.not_a_field=1",
    "jobs=0",
    "projection_edge_cap=10",
    "just a line without equals",
])
def test_parse_config_rejects_invalid_input(bad):
    with pytest.raises(ConfigError):
        parse_config(bad.split("\n"))


# ---------------------------------------------------------------------------
# ledger

def test_ledger_tracks_input_and_output_hashes(tmp_path):
    out = tmp_path / "artifact.txt"
    out.write_text("v1")
    ledger = RunLedger(str(tmp_path / "ledger.json"))
    ledger.mark_done("cell", {"in": "abc"}, [str(out)])
    ledger.save()

    again = RunLedger(str(tmp_path / "ledger.json"))
    assert again.is_current("cell", {"in": "abc"})
    assert not again.is_current("cell", {"in": "changed"})
    assert not again.is_current("missing", {"in": "abc"})
    out.write_text("v2")  # modified output invalidates the cell
    assert not again.is_current("cell", {"in": "abc"})
    out.unlink()
    assert not again.is_current("cell", {"in": "abc"})


def test_ledger_failed_cells_rerun(tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger.json"))
    ledger.mark_failed("cell", {"in": "abc"}, RuntimeError("boom"))
    assert not ledger.is_current("cell", {"in": "abc"})
    assert ledger.cells["cell"]["error"] == "boom"


# ---------------------------------------------------------------------------
# full run layout

def test_run_cardinalities(full_run):
    cfg, result, samples, vectors, metric_rows = full_run
    assert result.ok, result.failures
    assert len(samples) == 28
    assert len(vectors) == 28
    assert len(metric_rows) == 28 * 2
    assert {row[1] for row in metric_rows} == {"lightgcn", "svdgcn"}


def test_run_output_files(full_run):
    cfg, *_ = full_run
    out = cfg.out_dir
    for name in ("lcc_edges.tsv", "manifest.csv", "characteristics.csv",
                 "metrics.csv", "ledger.json", "correlations.csv",
                 "degree_distribution_user.tsv",
                 "degree_distribution_item.tsv",
                 "reports/report_lightgcn.csv", "reports/report_lightgcn.md",
                 "reports/report_svdgcn.csv", "reports/report_svdgcn.md"):
        assert os.path.exists(os.path.join(out, name)), name
    assert len(os.listdir(os.path.join(out, "samples"))) == 28
    assert len(os.listdir(os.path.join(out, "chars"))) == 28
    assert len(os.listdir(os.path.join(out, "metrics"))) == 28 * 2
    with open(os.path.join(out, "metrics.csv")) as fh:
        assert fh.readline().strip() == metrics_header(20)
        assert sum(1 for _ in fh) == 56


def test_aggregates_hold_plain_floats(full_run):
    cfg, *_ = full_run
    out = cfg.out_dir
    rows = read_characteristics_csv(os.path.join(out, "characteristics.csv"))
    assert len(rows) == 28
    for sid, values in rows:
        (per_sample,) = read_characteristics_csv(
            os.path.join(out, "chars", f"{sid}.csv"))
        assert per_sample[0] == sid
        np.testing.assert_array_equal(values, per_sample[1])
    for base, _, names in os.walk(out):
        for name in names:
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                assert "np.float64(" not in fh.read(), name


def test_resume_reruns_only_invalidated_cells(full_run, monkeypatch):
    cfg, *_ = full_run
    victims = [os.path.join(cfg.out_dir, "chars", "5.csv"),
               os.path.join(cfg.out_dir, "metrics", "3_lightgcn.csv")]
    originals = [Path(victim).read_bytes() for victim in victims]
    for victim in victims:
        os.remove(victim)

    calls = {"chars": 0, "train": 0}

    def counting(name, cell):
        def counted(args):
            calls[name] += 1
            return cell(args)
        return counted

    monkeypatch.setattr(pipeline, "_characterize_cell",
                        counting("chars", pipeline._characterize_cell))
    monkeypatch.setattr(pipeline, "_train_cell",
                        counting("train", pipeline._train_cell))
    result, *_ = run_experiment(cfg, resume=True)
    assert result.ok
    assert calls == {"chars": 1, "train": 1}
    # deterministic seeding regenerates the deleted cells byte-identically
    assert [Path(victim).read_bytes() for victim in victims] == originals


def _tree(out):
    """Every file under ``out``: relative path -> bytes."""
    tree = {}
    for base, _, names in os.walk(out):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, out)] = fh.read()
    return tree


def test_serial_and_parallel_runs_are_byte_identical(dataset_path, tmp_path):
    # the whole run-all tree (ledger, chars/, metrics/, reports/, rq2/ and
    # report.md) of a serial run, a two-process run, and a resumed run
    # after one chars and one metrics cell were deleted
    args = [f"dataset={dataset_path}", "num_samples=28", "master_seed=3",
            *FAST_MODEL_LINES, "models=lightgcn"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["--out", str(serial), "run-all", *args]) == 0
    expected = _tree(serial)
    assert {"ledger.json", "chars/5.csv", "metrics/3_lightgcn.csv",
            "reports/report_lightgcn.md", "rq2/summary.csv",
            "report.md"} <= set(expected)
    assert main(["--out", str(parallel), "--jobs", "2", "run-all",
                 *args]) == 0
    assert _tree(parallel) == expected
    os.remove(parallel / "chars" / "5.csv")
    os.remove(parallel / "metrics" / "3_lightgcn.csv")
    assert main(["--out", str(parallel), "--jobs", "2", "--resume",
                 "run-all", *args]) == 0
    assert _tree(parallel) == expected


def test_bench_trace_spans_name_every_patched_stage(dataset_path, tmp_path,
                                                    monkeypatch):
    # bench/trace_cli.py wraps pipeline attributes by name; a stage that is
    # renamed, or no longer called through its module attribute, would
    # drop out of the benchmark's per-layer metrics
    script = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                          "trace_cli.py")
    spec = importlib.util.spec_from_file_location("trace_cli", script)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)

    class PatchedNames:
        def __init__(self):
            self.names = set()

        def patch(self, module, attr, name, on_return=None):
            self.names.add(name)

        def wrap(self, fn, name, on_return=None):
            return fn

        def count_calls(self, module, attr, counter):
            pass

    # install() rebinds from_edge_array on the class; restore it afterwards
    monkeypatch.setattr(graph.BipartiteGraph, "from_edge_array",
                        graph.BipartiteGraph.__dict__["from_edge_array"])
    recorder = PatchedNames()
    trace_cli.install(recorder)
    stages = {name for name in recorder.names
              if isinstance(name, str) and name.startswith("pipeline.")}
    assert "pipeline.rq2_sweep" in stages

    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, script, str(spans_path), "--out",
         str(tmp_path / "out"), "run-all", f"dataset={dataset_path}",
         "num_samples=28", "master_seed=3", *FAST_MODEL_LINES,
         "models=lightgcn"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert stages <= {span[0] for span in spans}


# ---------------------------------------------------------------------------
# alpha sweep and report assembly

def test_rq2_sweep_outputs(full_run):
    cfg, result, samples, vectors, metric_rows = full_run
    reports = pipeline.rq2_sweep(cfg, samples, vectors, metric_rows, result)
    assert result.ok, result.failures
    # 4 alphas x 2 models, both pools hold 14 samples
    assert set(reports) == {(a, kind) for a in cfg.alphas
                            for kind in cfg.models}
    rq2_dir = os.path.join(cfg.out_dir, "rq2")
    names = sorted(os.listdir(rq2_dir))
    assert sum(n.endswith(".csv") for n in names) == 9  # 8 + summary
    assert sum(n.endswith(".md") for n in names) == 8
    assert all(reports[key].num_rows == 14 for key in reports)

    with open(os.path.join(rq2_dir, "alpha_0.3_lightgcn.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "statistic,value"
    assert lines[1] == "alpha,0.3"
    assert lines[2].startswith("mean_users,")
    assert lines[4].startswith("mean_interactions,")

    with open(os.path.join(rq2_dir, "summary.csv")) as fh:
        header = fh.readline().strip()
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert header.startswith("alpha,model,R2,adj_R2,M,mean_users")
    assert len(rows) == 8
    assert all(row[4] == "14" for row in rows)
    users = {row[0]: float(row[5]) for row in rows if row[1] == "lightgcn"}
    # pure node dropout (alpha=0) keeps fewer users than pure edge dropout
    assert users["0"] < users["1"]


def test_emit_report_concatenates_sections(full_run):
    cfg, *_ = full_run
    path = pipeline.emit_report(cfg)
    text = Path(path).read_text(encoding="utf-8")
    assert text.startswith("# Topology-performance analysis")
    assert "### lightgcn (Recall@20)" in text
    assert "alpha=0.3" in text


def test_emit_report_without_outputs_raises(tmp_path):
    cfg = parse_config([f"out_dir={tmp_path}"])
    with pytest.raises(FileNotFoundError):
        pipeline.emit_report(cfg)


# ---------------------------------------------------------------------------
# command-line interface

def test_cli_import_leaves_out_dense_linalg_and_csgraph():
    # scipy.linalg (which scipy.sparse.csgraph and scipy.sparse.linalg also
    # pull in) costs about 8 MB of resident memory and 0.1 s in every
    # process; only SVD-GCN's truncated SVD needs it
    train_lightgcn = (
        "import numpy as np; "
        "from topocf.evaluation import evaluate; "
        "from topocf.models.base import default_config, train_model; "
        "from topocf.models.split import split_dataset; "
        "from topocf.synthetic import two_block_graph; "
        "g = two_block_graph(num_users=12, num_items=10, "
        "interactions_per_user=4, seed=1); "
        "split = split_dataset(g, np.random.default_rng(0)); "
        "model = train_model(split, "
        "default_config('lightgcn', embedding_dim=4, max_epochs=2), "
        "np.random.default_rng(0)); "
        "evaluate(model, split, phase='valid'); evaluate(model, split); ")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for setup in ("import topocf.cli; ", train_lightgcn):
        code = ("import sys; " + setup +
                "print(sorted(m for m in ('scipy.linalg', "
                "'scipy.sparse.csgraph', 'scipy.sparse.linalg') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]", setup


def test_cli_rejects_unknown_key():
    assert main(["sample", "bogus_key=1"]) == 2


def test_cli_missing_dataset_exits_two(tmp_path):
    code = main(["sample", f"dataset={tmp_path}/nope.tsv",
                 f"out_dir={tmp_path}/out"])
    assert code == 2


def test_cli_sample_uses_env_output_dir(dataset_path, tmp_path, monkeypatch,
                                        capsys):
    out = tmp_path / "env_out"
    monkeypatch.setenv("TOPOCF_OUT", str(out))
    code = main(["sample", f"dataset={dataset_path}", "num_samples=4"])
    assert code == 0
    assert len(os.listdir(out / "samples")) == 4
    assert "wrote 4 samples" in capsys.readouterr().out


def test_cli_explain_reports_partial_failure(dataset_path, tmp_path, capsys):
    # 6 samples cannot support an 11-predictor regression, so the explain
    # stage records a failure and the command exits 1
    args = ["explain", f"dataset={dataset_path}", f"out_dir={tmp_path}/out",
            "num_samples=6", *FAST_MODEL_LINES, "models=lightgcn"]
    assert main(args) == 1
    assert "cell(s) failed" in capsys.readouterr().err


def test_cli_evaluate_prints_summary(dataset_path, tmp_path, capsys):
    args = ["evaluate", f"dataset={dataset_path}", f"out_dir={tmp_path}/out",
            "num_samples=3", *FAST_MODEL_LINES, "models=lightgcn"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "lightgcn: mean recall@20=" in out
    assert "over 3 samples" in out


@pytest.mark.parametrize("command, trigger", [
    ("rq2", "strategies=node_dropout"),   # no edge-dropout pool
    ("run-all", "rq2_total=50"),          # more than either pool holds
])
def test_cli_rq2_pool_error_exits_two(dataset_path, tmp_path, capsys,
                                      command, trigger):
    args = [command, f"dataset={dataset_path}", f"out_dir={tmp_path}/out",
            "num_samples=4", *FAST_MODEL_LINES, "models=lightgcn", trigger]
    assert main(args) == 2
    assert "error: " in capsys.readouterr().err


def test_cli_degenerate_sample_exits_two(tmp_path, capsys):
    # dropping 70-90% of one edge's two nodes or its edge leaves nothing
    dataset = tmp_path / "one_edge.tsv"
    dataset.write_text("0\t0\n")
    args = ["sample", f"dataset={dataset}", f"out_dir={tmp_path}/out",
            "num_samples=2"]
    assert main(args) == 2
    assert "error: sample 0: still degenerate" in capsys.readouterr().err
