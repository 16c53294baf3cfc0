"""Configuration parsing, orchestration, resume, parallelism, and the CLI."""

import csv
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topocf import graph, pipeline
from topocf.characteristics import SHORTHAND_NAMES, compute_vector
from topocf.cli import build_parser, main
from topocf.config import (ConfigError, ExperimentConfig, describe_keys,
                            parse_config)
from topocf.graph import write_interactions
from topocf.models.base import MODEL_CONFIGS, MODEL_KINDS
from topocf.pipeline import (CHARS_HEADER, METRICS_HEADER, MetricRow,
                             RunLedger, read_rows, run_experiment,
                             write_rows)
from topocf.synthetic import heavy_tailed_graph

from conftest import make_graph


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
    assert cfg.alphas == (0.0, 0.3, 0.7, 1.0)
    assert cfg.models == ("lightgcn", "dgcf", "ultragcn", "svdgcn")


def test_parse_config_values_comments_and_overrides():
    cfg = parse_config(
        ["# a comment", "", "num_samples = 8", "mu_min=0.5", "mu_max=0.6",
         "models=lightgcn"],
        overrides=["num_samples=9", "alphas=0,0.5,1"])
    assert cfg.num_samples == 9
    assert cfg.mu_min == 0.5
    assert cfg.models == ("lightgcn",)
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
    "standardize=false",
    "models=lightgcn,foo",
    "alphas=0,2",
    # a repeated value would train, weigh or report its cells twice
    "models=lightgcn,lightgcn",
    "strategies=node_dropout,edge_dropout,node_dropout",
    "alphas=0,0.3,0.30",
    "model.foo.layers=1",
    "model.lightgcn.not_a_field=1",
    "jobs=0",
    "projection_edge_cap=10",
    "just a line without equals",
    # non-finite floats, each of which fails every train cell
    "model.svdgcn.a1=nan",
    "model.svdgcn.a1=inf",
    "model.ultragcn.item_loss_weight=inf",
    "model.lightgcn.learning_rate=inf",
    "model.lightgcn.l2_weight=inf",
])
def test_parse_config_rejects_invalid_input(bad):
    with pytest.raises(ConfigError):
        parse_config(bad.split("\n"))


@pytest.mark.parametrize("setting", ["model.lightgcn.negatives=5",
                                     "model.ultragcn.layers=2",
                                     "model.svdgcn.intents=2"])
def test_config_rejects_a_field_the_kind_does_not_read(setting, capsys):
    kind = setting.split(".")[1]
    with pytest.raises(ConfigError, match=f"{kind} has no field"):
        parse_config([setting])
    assert main(["train", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    own = ", ".join(f.name for f in dataclasses.fields(MODEL_CONFIGS[kind]))
    assert f"(fields: {own})" in err


def test_help_lists_every_settable_model_key_with_its_default():
    names = {f.name for cls in MODEL_CONFIGS.values()
             for f in dataclasses.fields(cls)}
    settable = []
    for kind in MODEL_KINDS:
        for name in sorted(names):
            try:
                parse_config([f"model.{kind}.{name}=1"])
            except ConfigError as exc:
                if "has no field" in str(exc):
                    continue
            settable.append(f"model.{kind}.{name}")
    text = build_parser().format_help()
    listed = dict(re.findall(r"(model\.\w+\.\w+)=(\S+)", text))
    assert sorted(listed) == sorted(settable)
    assert len(re.findall(r"model\.\w+\.\w+", text)) == len(settable)
    for key, shown in listed.items():
        _, kind, name = key.split(".")
        assert shown == str(getattr(MODEL_CONFIGS[kind](), name))
    # every experiment key, with a default that parses back to itself
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)
            if f.name != "model_configs"]
    listed = dict(re.findall(r"^  (\w+)=(.*)$", text, re.MULTILINE))
    assert sorted(listed) == sorted(keys)
    defaults = parse_config([])
    for key, shown in listed.items():
        assert getattr(parse_config([f"{key}={shown}"]), key) \
            == getattr(defaults, key), key
    # a setting is parsed with its default's type
    for cls in (ExperimentConfig, *MODEL_CONFIGS.values()):
        for f in dataclasses.fields(cls):
            if f.name != "model_configs":
                assert type(f.default).__name__ == f.type, f.name


def _readme_table(text, head):
    """The cells, stripped of spaces and backticks, of each line of the
    README table whose header line starts with ``head``: the header, then
    the rows."""
    table = text[text.index("\n" + head) + 1:].split("\n\n")[0]
    lines = table.splitlines()
    return [[cell.strip(" `") for cell in line.strip("|").split("|")]
            for line in lines[:1] + lines[2:]]


def test_readme_tables_list_the_keys_help_prints():
    """README's two configuration tables name exactly the experiment keys,
    and the model fields with their defaults, that ``--help`` lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    listed = describe_keys()
    _, *rows = _readme_table(text, "| key | default |")
    assert [row[0] for row in rows] == re.findall(r"^  (\w+)=", listed,
                                                  re.MULTILINE)
    fields = dict(re.findall(r"^    model\.(\w+\.\w+)=(.*)$", listed,
                             re.MULTILINE))
    (_, *kinds, _), *rows = _readme_table(text, "| field |")
    documented = {f"{kind}.{name}": shown for name, *cells, _ in rows
                  for kind, shown in zip(kinds, cells) if shown}
    assert documented == fields
    assert (f"`model.<kind>.<field>=value`, {len(fields)} in all"
            in " ".join(text.split()))


# ---------------------------------------------------------------------------
# tables

def test_rows_round_trip_bit_for_bit(tmp_path):
    """Characterize cells' rows, one holding a NaN, and a metrics row read
    back as they were written, under the exact header."""
    g = heavy_tailed_graph(num_users=60, num_items=40, num_interactions=400,
                           seed=4)
    vec = compute_vector(g)
    star = make_graph([(u, 0) for u in range(5)])
    cells = [pipeline._characterize_cell((0, g)),
             pipeline._characterize_cell((1, star))]
    assert [error for _, error in cells] == [None, None]
    path = tmp_path / "chars.csv"
    write_rows(path, CHARS_HEADER, [row for row, _ in cells])
    header = path.read_text().splitlines()[0]
    assert header == "sample_id," + ",".join(SHORTHAND_NAMES)
    rows = read_rows(path, CHARS_HEADER, pipeline._chars_row)
    assert [row[0] for row in rows] == [0, 1]
    np.testing.assert_array_equal(rows[0][1:], vec)
    # NaN round-trips as NaN
    assert math.isnan(rows[1][1 + SHORTHAND_NAMES.index("Assort-U")])

    row = MetricRow(sample_id=3, model="lightgcn", recall=0.1, ndcg=1 / 3,
                    epochs_trained=12, stopped_early=True, best_epoch=7)
    path = tmp_path / "metrics.csv"
    write_rows(path, METRICS_HEADER, [row])
    assert path.read_text().splitlines() == [
        "sample_id,model,recall@20,ndcg@20,epochs_trained,stopped_early,"
        "best_epoch", "3,lightgcn,0.1,0.3333333333333333,12,True,7"]
    (back,) = read_rows(path, METRICS_HEADER, pipeline._metric_row)
    assert back == row and back.stopped_early is True
    with pytest.raises(ValueError, match="unexpected header"):
        read_rows(path, METRICS_HEADER.replace("@20", "@10"),
                  pipeline._metric_row)


# ---------------------------------------------------------------------------
# ledger

def test_ledger_tracks_input_and_output_hashes(tmp_path):
    out = tmp_path / "artifact.txt"
    out.write_text("v1")
    ledger = RunLedger(str(tmp_path / "ledger.json"), resume=False)
    ledger.mark_done("cell", {"in": "abc"}, [str(out)])
    ledger.save()

    again = RunLedger(str(tmp_path / "ledger.json"), resume=True)
    assert again.is_current("cell", {"in": "abc"})
    assert not again.is_current("cell", {"in": "changed"})
    assert not again.is_current("missing", {"in": "abc"})
    out.write_text("v2")  # modified output invalidates the cell
    assert not again.is_current("cell", {"in": "abc"})
    out.unlink()
    assert not again.is_current("cell", {"in": "abc"})


def test_ledger_failed_cells_rerun(tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger.json"), resume=False)
    ledger.mark_failed("cell", {"in": "abc"}, RuntimeError("boom"))
    assert not ledger.is_current("cell", {"in": "abc"})
    assert ledger.cells["cell"]["error"] == "boom"


# ---------------------------------------------------------------------------
# full run layout

def test_run_cardinalities(full_run):
    cfg, result, samples, vectors, metric_rows = full_run
    assert not result.failures, result.failures
    assert len(samples) == 28
    assert len(vectors) == 28
    assert len(metric_rows) == 28 * 2
    assert {row.model for row in metric_rows} == {"lightgcn", "svdgcn"}


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
        assert fh.readline().strip() == METRICS_HEADER
        assert sum(1 for _ in fh) == 56


def test_aggregates_hold_plain_floats(full_run):
    cfg, *_ = full_run
    out = cfg.out_dir

    def read(*parts):
        return read_rows(os.path.join(out, *parts), CHARS_HEADER,
                         pipeline._chars_row)

    rows = read("characteristics.csv")
    assert len(rows) == 28
    for row in rows:
        (per_sample,) = read("chars", f"{row[0]}.csv")
        assert per_sample[0] == row[0]
        np.testing.assert_array_equal(row[1:], per_sample[1:])
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
    assert not result.failures
    assert calls == {"chars": 1, "train": 1}
    # deterministic seeding regenerates the deleted cells byte-identically
    assert [Path(victim).read_bytes() for victim in victims] == originals


def test_resume_reruns_every_cell_that_other_code_computed(dataset_path,
                                                         tmp_path,
                                                         monkeypatch):
    """Every cell's inputs hold the code digest: a resume under the same
    digest reuses every cell, and one under another digest re-runs every
    cell (here rewriting the same bytes, as the code is the same)."""
    cfg = _config(dataset_path, tmp_path, "num_samples=3", "master_seed=3")
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

    def resume():
        calls.update(chars=0, train=0)
        _, samples, digests, result = pipeline.start_run(cfg, True)
        pipeline.characterize_samples(cfg, samples, digests, result)
        pipeline.train_samples(cfg, samples, digests, result)
        assert not result.failures, result.failures
        return dict(calls)

    assert resume() == {"chars": 3, "train": 6}
    first = _tree(tmp_path)
    cells = json.loads(first["ledger.json"])["cells"]
    assert {cell["inputs"]["code"] for cell in cells.values()} == {
        pipeline.code_digest()}
    assert resume() == {"chars": 0, "train": 0}
    monkeypatch.setattr(pipeline, "code_digest", lambda: "other code")
    assert resume() == {"chars": 3, "train": 6}
    assert resume() == {"chars": 0, "train": 0}
    again = _tree(tmp_path)
    assert again.pop("ledger.json") != first.pop("ledger.json")
    assert again == first


def test_code_digest_follows_the_package_sources(tmp_path, monkeypatch):
    """The digest reads every module of the package, models included, and
    names each by its path in the package, so a copy of the same sources
    elsewhere has the same digest and an edited copy another."""
    package = Path(pipeline.__file__).parent
    copy = tmp_path / "topocf"
    for source in [*package.glob("*.py"), *package.glob("models/*.py")]:
        target = copy / source.relative_to(package)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())

    def digest_of(root):
        monkeypatch.setattr(pipeline, "__file__", str(root / "pipeline.py"))
        return pipeline.code_digest.__wrapped__()

    assert digest_of(copy) == pipeline.code_digest()
    with open(copy / "models" / "base.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert digest_of(copy) != pipeline.code_digest()


def test_train_cell_with_overflowing_scores_fails_with_a_reason():
    """A huge but finite learning rate leaves finite embeddings whose
    scores overflow float32: the cell fails and says why, where it used to
    report a recall ranked from infinite scores."""
    g = heavy_tailed_graph(num_users=12, num_items=10, num_interactions=48,
                           seed=1)
    cfg = MODEL_CONFIGS["lightgcn"](embedding_dim=4, learning_rate=1e30,
                                    max_epochs=1)
    row, error = pipeline._train_cell((0, g, "lightgcn", cfg, 7))
    assert row is None
    assert error.startswith("ValueError: non-finite float32 scores")


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
    # report.md) of a serial run, a two-process run, a resumed run after
    # one chars and one metrics cell were deleted, and a resumed train,
    # which leaves the tables of the stages it does not run as they were
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
    assert main(["--out", str(parallel), "--resume", "train", *args]) == 0
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


def _bench_trace_counts(tmp_path, *cli_args):
    """Run bench/trace_cli.py as the benchmark does, with only ``src/`` on
    the import path, and return the counts it wrote."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "trace_cli.py"),
         str(spans_path), "--out", str(tmp_path / "out"), *cli_args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(spans_path, encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def test_bench_trace_counts_every_model_site(dataset_path, tmp_path):
    # the model-level wrappers of bench/trace_cli.py count calls made inside
    # the models; a site no longer called through its module attribute
    # would read 0 without failing the benchmark
    kinds = ("lightgcn", "dgcf", "ultragcn", "svdgcn")
    model_lines = [f"model.{kind}.{key}={value}" for kind in kinds
                   for key, value in (("embedding_dim", 8), ("max_epochs", 1),
                                      ("eval_interval", 1))]
    counts = _bench_trace_counts(
        tmp_path, "train", f"dataset={dataset_path}", "num_samples=1",
        "master_seed=3", "models=" + ",".join(kinds),
        "model.svdgcn.svd_rank=8", *model_lines)
    for name in ("models.dgcf.operator_builds", "models.svd.calls",
                 "models.ultragcn.cooccurrence_topk.calls",
                 "models.sample_negative_items.calls"):
        assert counts.get(name, 0) > 0, name


def test_bench_trace_counts_projections(dataset_path, tmp_path):
    counts = _bench_trace_counts(tmp_path, "characterize",
                                 f"dataset={dataset_path}", "num_samples=2",
                                 "master_seed=3")
    for name in ("graph.project.calls", "graph.project.pairs",
                 "characteristics.compute_vector.calls"):
        assert counts.get(name, 0) > 0, name


# ---------------------------------------------------------------------------
# alpha sweep and report assembly

def test_rq2_sweep_outputs(full_run):
    cfg, result, samples, vectors, metric_rows = full_run
    reports = pipeline.rq2_sweep(cfg, samples, vectors, metric_rows, result)
    assert not result.failures, result.failures
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


def _report_titles(out):
    text = (Path(out) / "report.md").read_text(encoding="utf-8")
    assert text.startswith("# Topology-performance analysis\n\n")
    return re.findall(r"^### (.*) \(Recall@20\)$", text, re.MULTILINE)


def test_emit_report_concatenates_sections(full_run):
    # each model in models order, then each alpha in alphas order x models;
    # sorted by file name, alpha=0.3 and 0.7 would come before alpha=0
    cfg, run, samples, vectors, metric_rows = full_run
    result = pipeline.RunResult(run.ledger)
    pipeline.fit_reports(cfg, vectors, metric_rows, result)
    pipeline.rq2_sweep(cfg, samples, vectors, metric_rows, result)
    pipeline.emit_report(cfg, result)
    assert _report_titles(cfg.out_dir) == [
        *cfg.models, *(f"{kind} at alpha={alpha:g}" for alpha in cfg.alphas
                       for kind in cfg.models)]


def test_report_holds_only_the_alphas_a_resumed_run_fitted(dataset_path,
                                                           tmp_path):
    out = tmp_path / "out"
    args = [f"dataset={dataset_path}", "num_samples=28", "master_seed=3",
            *FAST_MODEL_LINES, "models=lightgcn"]
    assert main(["--out", str(out), "run-all", *args]) == 0
    assert main(["--out", str(out), "--resume", "run-all", *args,
                 "alphas=0,0.5"]) == 0
    assert _report_titles(out) == ["lightgcn", "lightgcn at alpha=0",
                                   "lightgcn at alpha=0.5"]


def test_failed_fit_removes_the_tables_an_earlier_run_left(dataset_path,
                                                          tmp_path, capsys):
    # 28 samples fit every regression; 4 leave too few rows for any of them
    out = tmp_path / "out"
    args = [f"dataset={dataset_path}", "master_seed=3", *FAST_MODEL_LINES,
            "models=lightgcn"]
    assert main(["--out", str(out), "run-all", *args, "num_samples=28"]) == 0
    assert len(os.listdir(out / "reports")) == 2
    assert len(os.listdir(out / "rq2")) == 9
    assert main(["--out", str(out), "run-all", *args, "num_samples=4"]) == 1
    assert capsys.readouterr().err.count(": FAILED (") == 5
    assert os.listdir(out / "reports") == []
    assert os.listdir(out / "rq2") == ["summary.csv"]
    assert _report_titles(out) == []


def test_a_run_removes_the_tables_it_no_longer_makes(dataset_path, tmp_path):
    out = tmp_path / "out"
    args = [f"dataset={dataset_path}", "master_seed=3", *FAST_MODEL_LINES]
    assert main(["--out", str(out), "run-all", *args, "num_samples=30"]) == 0
    assert len(os.listdir(out / "metrics")) == 60
    # a file under a name no stage writes is left alone, even with a
    # stage's extension or prefix
    others = {"samples": ["ml-1m.tsv"], "chars": ["extra.csv"],
              "metrics": ["0_notes.csv"],
              "reports": ["report_notes.txt", "report_notes.csv"],
              "rq2": ["alpha_notes.csv", "alpha_0_notes.md"]}
    for sub, names in others.items():
        for name in names + ["notes.txt", "notes.csv", "notes.tsv"]:
            (out / sub / name).write_text("kept\n")
    assert main(["--out", str(out), "--resume", "run-all", *args,
                 "num_samples=28", "models=lightgcn", "alphas=0,0.5"]) == 0
    ids = [row[0] for row in read_rows(out / "manifest.csv",
                                       pipeline.MANIFEST_HEADER,
                                       lambda fields: fields)]
    assert ids == [str(sid) for sid in range(28)]
    for sub, names in (("samples", [f"{sid}.tsv" for sid in ids]),
                       ("chars", [f"{sid}.csv" for sid in ids]),
                       ("metrics", [f"{sid}_lightgcn.csv" for sid in ids]),
                       ("reports", ["report_lightgcn.csv",
                                    "report_lightgcn.md"]),
                       ("rq2", ["alpha_0.5_lightgcn.csv",
                                "alpha_0.5_lightgcn.md",
                                "alpha_0_lightgcn.csv", "alpha_0_lightgcn.md",
                                "summary.csv"])):
        assert sorted(os.listdir(out / sub)) == sorted(
            names + others[sub] + ["notes.txt", "notes.csv", "notes.tsv"])
    # the ledger holds the cells of this run alone, and its file index
    # every file this run wrote
    held = json.loads((out / "ledger.json").read_text())
    assert sorted(held["cells"]) == sorted(
        [f"chars:{sid}" for sid in ids]
        + [f"train:{sid}:lightgcn" for sid in ids])
    extra = {f"{sub}/{name}" for sub, names in others.items()
             for name in names + ["notes.txt", "notes.csv", "notes.tsv"]}
    assert sorted(rel for rels in held["files"].values() for rel in rels) == (
        sorted(set(_tree(out)) - extra - {"ledger.json"}))


def test_a_run_that_skips_the_correlations_removes_the_old_table(
        dataset_path, tmp_path, capsys):
    # too few samples for the regression (exit 1), but 4 still correlate
    out = tmp_path / "out"
    args = ["--out", str(out), "explain", f"dataset={dataset_path}",
            "master_seed=3", *FAST_MODEL_LINES, "models=lightgcn"]
    assert main([*args, "num_samples=4"]) == 1
    assert (out / "correlations.csv").exists()
    capsys.readouterr()
    assert main([*args, "num_samples=2"]) == 1
    assert "correlations: skipped" in capsys.readouterr().err
    assert not (out / "correlations.csv").exists()
    assert (out / "degree_distribution_user.tsv").exists()


# ---------------------------------------------------------------------------
# command-line interface

# topocf hashes only with blake2b, which is CPython's built-in _blake2, so
# topocf.cli marks OpenSSL's _hashlib absent where every built-in hash module
# exists: hashlib, hmac and secrets (which numpy.random imports) fall back to
# the built-in hashes, and libcrypto (~3.4 MB resident) is never mapped.
# After `import topocf.cli`, this prints whether _hashlib loaded and whether
# libcrypto is mapped; `import hashlib` writes nothing to stderr unless a
# built-in hash is missing
OPENSSL = ("import hashlib, hmac, secrets\n"
           "mapped = False\n"
           "if sys.platform.startswith('linux'):\n"
           "    with open('/proc/self/maps') as fh:\n"
           "        mapped = 'libcrypto' in fh.read()\n"
           "print(sys.modules.get('_hashlib') is not None, mapped)\n")


def test_no_command_imports_scipy_package(dataset_path, tmp_path):
    # topocf.csr loads scipy's compiled sparse kernels from their file, so
    # no process runs the init of scipy or scipy.sparse: with it,
    # scipy._lib's array-API layer (numpy.f2py, numpy.testing, email,
    # concurrent.futures) took about 17 MB of resident memory and 0.2 s.
    # scipy.linalg, scipy.sparse.csgraph and scipy.sparse.linalg load it
    # too, and no model needs them: SVD-GCN's truncated SVD is numpy only.
    # scipy.special (+26 MB and 0.2-0.3 s after numpy alone) is not needed
    # either: explain computes its p-values itself. multiprocessing is
    # only for a run with jobs > 1. numpy.ma (np.unique without flags
    # loads it, and np.setdiff1d with it) is not needed: the Lanczos solver
    # does without it. Nor are numpy.char and numpy.strings: ingest splits
    # each line with str.split
    train_all = ("import numpy as np\n"
                 "from topocf.evaluation import evaluate\n"
                 "from topocf.models.base import MODEL_CONFIGS, train_model\n"
                 "from topocf.models.split import split_dataset\n"
                 "from topocf.synthetic import heavy_tailed_graph\n"
                 "g = heavy_tailed_graph(num_users=12, num_items=10, "
                 "num_interactions=48, seed=1)\n"
                 "split = split_dataset(g, np.random.default_rng(0))\n"
                 f"for kind in {MODEL_KINDS!r}:\n"
                 # svd_rank 3 < min(12, 10): a truncated, not a full, SVD
                 "    own = {'svd_rank': 3} if kind == 'svdgcn' else {}\n"
                 "    model = train_model(split, MODEL_CONFIGS[kind]("
                 "embedding_dim=4, max_epochs=2, **own), "
                 "np.random.default_rng(0))\n"
                 "    evaluate(model, split, phase='valid')\n"
                 "    evaluate(model, split)\n")
    # the imports and calls of bench/gen_input.py
    gen_input = ("from topocf.graph import write_interactions\n"
                 "from topocf.synthetic import heavy_tailed_graph\n"
                 "write_interactions(heavy_tailed_graph(num_users=12, "
                 "num_items=10, num_interactions=48, seed=1), os.devnull)\n")
    # a whole run-all, whose explain and alpha sweep fit the regressions;
    # its summary and log lines go to devnull so that stdout holds only the
    # check's and stderr only what the imports wrote
    args = ["--out", str(tmp_path / "out"), "--jobs", "1", "run-all",
            f"dataset={dataset_path}", "num_samples=28", "master_seed=3",
            *FAST_MODEL_LINES, "models=lightgcn"]
    run_all = ("import contextlib\n"
               "from topocf.cli import main\n"
               "with open(os.devnull, 'w') as fh, "
               "contextlib.redirect_stdout(fh), "
               "contextlib.redirect_stderr(fh):\n"
               f"    assert main({args!r}) == 0\n")
    absent = ("scipy", "scipy.sparse", "scipy._lib._array_api", "numpy.f2py",
              "concurrent.futures", "scipy.linalg", "scipy.sparse.csgraph",
              "scipy.sparse.linalg", "scipy.special", "multiprocessing",
              "numpy.ma", "numpy.char", "numpy.strings", "csv")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for setup in ("import topocf.cli\n", train_all, gen_input, run_all):
        cli = "topocf.cli" in setup
        code = (f"import os, sys\n{setup}"
                f"print(sorted(m for m in {absent!r} if m in sys.modules))\n"
                + (OPENSSL if cli else ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True)
        if cli:
            # a process that imports the CLI maps no OpenSSL either
            assert (proc.stdout, proc.stderr) == ("[]\nFalse False\n",
                                                  ""), setup
        else:
            assert proc.stdout.strip() == "[]", setup


def test_train_maps_no_openssl(dataset_path, tmp_path):
    args = ["--out", str(tmp_path / "out"), "--jobs", "1", "train",
            f"dataset={dataset_path}", "master_seed=3", *FAST_MODEL_LINES,
            "num_samples=4"]
    code = ("import contextlib, os, sys\n"
            "from topocf.cli import main\n"
            "with open(os.devnull, 'w') as fh, "
            "contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):\n"
            f"    assert main({args!r}) == 0\n" + OPENSSL)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == ("False False\n", "")


def test_cli_keeps_openssl_without_a_builtin_sha512():
    # some Pythons take sha512 from OpenSSL alone: with _hashlib marked
    # absent there, random's import of sha512, and so numpy.random's
    # import, would fail. The CLI keeps OpenSSL on such an interpreter
    hidden = "_sha2" if sys.version_info >= (3, 12) else "_sha512"
    code = ("import sys\n"
            f"sys.modules[{hidden!r}] = None\n"
            "import topocf.cli, numpy.random\n" + OPENSSL)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.startswith("True ") and proc.stderr == ""


def test_importing_a_module_loads_only_what_it_imports():
    """The package root imports nothing, so ``import topocf.synthetic`` (as
    bench/gen_input.py runs it) loads the graph layer alone."""
    absent = ("topocf.explain", "topocf.characteristics", "topocf.sampling",
              "topocf.pipeline")
    code = ("import sys\nimport topocf.synthetic\n"
            f"print(sorted(m for m in {absent!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_rejects_unknown_key():
    assert main(["sample", "bogus_key=1"]) == 2


def test_cli_rejects_a_repeated_list_value(dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["train", f"dataset={dataset_path}", f"out_dir={out}",
            "num_samples=2", "models=lightgcn,lightgcn"]
    assert main(args) == 2
    assert ("configuration error: models: repeated value 'lightgcn'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_missing_dataset_exits_two(tmp_path):
    code = main(["sample", f"dataset={tmp_path}/nope.tsv",
                 f"out_dir={tmp_path}/out"])
    assert code == 2


def _one_error_line(capsys, *parts):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert all(part in lines[0] for part in parts), lines


@pytest.mark.parametrize("content, message", [
    ("a\tx\nb\ty\nlonely\n", ": malformed interaction at line 3: 'lonely'"),
    ("# only a comment\n\n", ": no interactions"),
    (b"a\tx\n\xff\ty\n", ": 'utf-8' codec can't decode byte 0xff"),
    (None, "Is a directory"),
], ids=["malformed", "comment-only", "not-utf8", "directory"])
def test_cli_bad_dataset_exits_two(tmp_path, capsys, content, message):
    dataset = tmp_path / "data.tsv"
    if content is None:
        dataset.mkdir()
    elif isinstance(content, bytes):
        dataset.write_bytes(content)
    else:
        dataset.write_text(content)
    out = tmp_path / "out"
    assert main(["sample", f"dataset={dataset}", f"out_dir={out}"]) == 2
    _one_error_line(capsys, str(dataset), message)
    assert not out.exists()


def test_cli_fresh_run_ignores_a_corrupt_ledger(dataset_path, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "ledger.json").write_text("{not json")
    args = ["--out", str(out), "characterize", f"dataset={dataset_path}",
            "num_samples=2"]
    assert main(args) == 0
    with open(out / "ledger.json", encoding="utf-8") as fh:
        assert sorted(json.load(fh)["cells"]) == ["chars:0", "chars:1"]


# file index entries that name no file of a run's own: a file outside
# --out, by a parent part or absolutely (VICTIM stands for the latter's
# path), and the ledger itself
OUTSIDE = {"index-parent": "../victim", "index-absolute": "VICTIM",
           "index-ledger": "ledger.json"}


def _index_holding(entry):
    return json.dumps({"files": {"sample": [entry]}}).encode()


@pytest.mark.parametrize(
    "content", [b"{not json", b"\xff\xfe", b"[]", b'{"cells": []}',
                b'{"cells": {"chars:0": 1}}',
                b'{"cells": {"chars:0": {"outputs": ["chars/0.csv"]}}}',
                *map(_index_holding, OUTSIDE.values())],
    ids=["not-json", "not-text", "list", "cells-list", "cell-not-object",
         "outputs-list", *OUTSIDE])
def test_cli_resume_over_a_corrupt_ledger_exits_two(dataset_path, tmp_path,
                                                    capsys, content):
    out = tmp_path / "out"
    out.mkdir()
    victim = tmp_path / "victim"
    victim.write_text("kept\n")
    (out / "ledger.json").write_bytes(
        content.replace(b"VICTIM", str(victim).encode()))
    args = ["--out", str(out), "--resume", "characterize",
            f"dataset={dataset_path}", "num_samples=2"]
    assert main(args) == 2
    _one_error_line(capsys, str(out / "ledger.json"))
    assert victim.read_text() == "kept\n"


@pytest.mark.parametrize("entry", OUTSIDE.values(), ids=OUTSIDE)
def test_cli_fresh_run_ignores_an_index_entry_outside_its_files(
        dataset_path, tmp_path, entry):
    out = tmp_path / "out"
    out.mkdir()
    victim = tmp_path / "victim"
    victim.write_text("kept\n")
    entry = entry.replace("VICTIM", str(victim))
    (out / "ledger.json").write_bytes(_index_holding(entry))
    assert main(["--out", str(out), "characterize", f"dataset={dataset_path}",
                 "num_samples=2"]) == 0
    assert victim.read_text() == "kept\n"
    held = json.loads((out / "ledger.json").read_text())
    assert sorted(held["cells"]) == ["chars:0", "chars:1"]
    assert held["files"]["sample"] == [
        "lcc_edges.tsv", "manifest.csv", "samples/0.tsv", "samples/1.tsv"]


def test_cli_sample_writes_to_out_flag_dir(dataset_path, tmp_path, capsys):
    out = tmp_path / "flag_out"
    code = main(["--out", str(out), "sample", f"dataset={dataset_path}",
                 "num_samples=4"])
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


def test_cli_train_logs_one_mean_line_per_model(dataset_path, tmp_path,
                                                capsys):
    args = ["train", f"dataset={dataset_path}", f"out_dir={tmp_path}/out",
            "num_samples=3", *FAST_MODEL_LINES, "models=lightgcn,ultragcn"]
    for resume in ([], ["--resume"]):
        assert main(resume + args) == 0
        err = capsys.readouterr().err
        means = re.findall(r"^train\[(\w+)\]: mean recall@20=([\d.]+) "
                           r"ndcg@20=([\d.]+) over (\d+) samples$", err,
                           re.MULTILINE)
        assert [m[0] for m in means] == ["lightgcn", "ultragcn"]
        with open(tmp_path / "out" / "metrics.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for kind, recall, ndcg, count in means:
            mine = [r for r in rows if r["model"] == kind]
            assert int(count) == len(mine) == 3
            for metric, shown in (("recall@20", recall), ("ndcg@20", ndcg)):
                mean = sum(float(r[metric]) for r in mine) / len(mine)
                assert shown == f"{mean:.4f}"
    assert "reused" in err


def test_cli_lists_four_flags_and_six_commands():
    text = build_parser().format_help()
    flags = sorted(set(re.findall(r"--[a-z]+", text)) - {"--help"})
    assert flags == ["--config", "--jobs", "--out", "--resume"]
    commands = re.search(r"\{([\w,-]+)\}", text).group(1).split(",")
    assert commands == ["sample", "characterize", "train", "explain", "rq2",
                        "run-all"]


@pytest.mark.parametrize("argv", [
    ["--seed", "3", "sample"],
    ["evaluate"],
    ["report"],
])
def test_cli_removed_spellings_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: topocf" in capsys.readouterr().err


@pytest.mark.parametrize("command, trigger", [
    ("rq2", "strategies=node_dropout"),   # no edge-dropout pool
    ("run-all", "strategies=edge_dropout"),  # no node-dropout pool
])
def test_cli_rq2_pool_error_exits_two(dataset_path, tmp_path, capsys,
                                      command, trigger):
    args = [command, f"dataset={dataset_path}", f"out_dir={tmp_path}/out",
            "num_samples=4", *FAST_MODEL_LINES, "models=lightgcn", trigger]
    assert main(args) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    *(f"model.{kind}.{name}=0" for kind, name in (
        ("lightgcn", "embedding_dim"), ("dgcf", "intents"),
        ("ultragcn", "negatives"), ("ultragcn", "item_topk"),
        ("svdgcn", "svd_rank"), ("lightgcn", "batch_size"),
        ("lightgcn", "max_epochs"), ("lightgcn", "patience"),
        ("lightgcn", "eval_interval"), ("lightgcn", "learning_rate"))),
    *(f"model.{kind}.{name}=-1" for kind, name in (
        ("lightgcn", "layers"), ("dgcf", "routing_iterations"),
        ("lightgcn", "learning_rate"), ("lightgcn", "l2_weight"),
        ("ultragcn", "item_loss_weight"), ("svdgcn", "a2"))),
    "model.dgcf.embedding_dim=30",    # not divisible by 4 intents
])
def test_cli_rejects_out_of_domain_model_setting(dataset_path, tmp_path,
                                                 capsys, setting):
    out = tmp_path / "out"
    args = ["train", f"dataset={dataset_path}", f"out_dir={out}",
            "num_samples=2", setting]
    assert main(args) == 2
    assert "configuration error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["override", "config"])
def test_cli_rejects_metric_k(dataset_path, tmp_path, capsys, where):
    """Every ranking is at k = 20, so ``metric_k`` is no key."""
    out = tmp_path / "out"
    args = ["train", f"dataset={dataset_path}", f"out_dir={out}",
            "num_samples=2"]
    if where == "config":
        path = tmp_path / "exp.cfg"
        path.write_text("metric_k=10\n")
        args = ["--config", str(path)] + args
    else:
        args.append("metric_k=10")
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown configuration key 'metric_k'\n")
    assert not out.exists()


def test_cli_rejects_rq2_total(dataset_path, tmp_path, capsys):
    """The alpha sweep always draws as many samples as the smaller strategy
    pool holds, so ``rq2_total`` is no key."""
    out = tmp_path / "out"
    assert main(["run-all", f"dataset={dataset_path}", f"out_dir={out}",
                 "rq2_total=1"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown configuration key 'rq2_total'\n")
    assert not out.exists()


def test_cli_degenerate_sample_exits_two(tmp_path, capsys):
    # dropping 70-90% of one edge's two nodes or its edge leaves nothing
    dataset = tmp_path / "one_edge.tsv"
    dataset.write_text("0\t0\n")
    args = ["sample", f"dataset={dataset}", f"out_dir={tmp_path}/out",
            "num_samples=2"]
    assert main(args) == 2
    assert "error: sample 0: still degenerate" in capsys.readouterr().err
