"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test finishes by printing a single pass/fail verdict line (visible
with ``pytest -s`` or in captured output on failure).
"""

import math
import time

import numpy as np
import pytest

from topocf.characteristics import (SHORTHAND_NAMES, classical_from_counts,
                                    compute_vector)
from topocf.evaluation import evaluate
from topocf.explain import build_design, fit_ols
from topocf.graph import largest_connected_component
from topocf.models import base
from topocf.models.base import (MODEL_CONFIGS, MODEL_KINDS, DGCFConfig,
                                LightGCNConfig, TrainedModel, train_model)
from topocf.models.dgcf import DGCFPropagator
from topocf.models.lightgcn import LightGCNPropagator
from topocf.models.split import Split, split_dataset
from topocf.models.svdgcn import normalized_interactions
from topocf.pipeline import MetricRow, RunLedger, RunResult, rq2_sweep
from topocf.config import parse_config
from topocf.sampling import (EDGE_DROPOUT, NODE_DROPOUT, edge_dropout,
                             generate_samples, node_dropout, round_half_up)
from topocf.synthetic import heavy_tailed_graph

from conftest import (make_graph, random_bipartite, row_items, to_scipy,
                      two_block_graph)
from test_explain import COUNT_DERIVED, _design, _p_two_sided_oracle


def _verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {number} [{label}]: {status}{suffix}")
    assert ok, f"acceptance {number} [{label}] failed{suffix}"


# ---------------------------------------------------------------------------
# 1. ranking metrics against a brute-force oracle

def _random_split(g, rng):
    edges = g.edge_array()[rng.permutation(g.num_interactions)]
    n = len(edges)
    n_test, n_valid = max(n // 5, 1), max(n // 10, 1)
    return Split(graph=g, test_edges=edges[:n_test],
                 valid_edges=edges[n_test:n_test + n_valid],
                 train_edges=edges[n_test + n_valid:])


def _oracle_evaluate(model, split, k, phase):
    users = split.test_users if phase == "test" else split.valid_users
    recalls, ndcgs = [], []
    for u in users:
        scores = model.item_embeddings @ model.user_embeddings[u]
        excluded = set(row_items(split.train, u).tolist())
        valid = set(row_items(split.valid, u).tolist())
        if phase == "test":
            excluded |= valid
            held_out = set(row_items(split.test, u).tolist())
        else:
            held_out = valid
        ranked = sorted((i for i in range(len(scores)) if i not in excluded),
                        key=lambda i: (-scores[i], i))[:k]
        hits = [pos for pos, i in enumerate(ranked, 1) if i in held_out]
        recalls.append(len(hits) / len(held_out))
        dcg = sum(1.0 / math.log2(pos + 1) for pos in hits)
        idcg = sum(1.0 / math.log2(pos + 1)
                   for pos in range(1, min(k, len(held_out)) + 1))
        ndcgs.append(dcg / idcg)
    return float(np.mean(recalls)), float(np.mean(ndcgs))


def test_acceptance_1_metric_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 200:
        g = random_bipartite(rng, max_users=50, max_items=50, p=0.15)
        if g.num_interactions < 10:
            continue
        split = _random_split(g, rng)
        if len(split.test_users) == 0 or len(split.valid_users) == 0:
            continue
        model = TrainedModel(
            user_embeddings=rng.normal(size=(g.num_users, 4)),
            item_embeddings=rng.normal(size=(g.num_items, 4)))
        k = int(rng.integers(1, 12))
        for phase in ("test", "valid"):
            got = evaluate(model, split, k=k, phase=phase)
            recall, ndcg = _oracle_evaluate(model, split, k, phase)
            worst = max(worst, abs(got.recall - recall),
                        abs(got.ndcg - ndcg))
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "metric oracle", worst <= 1e-9 and elapsed < 60,
             f"{checked} graphs, worst abs diff {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. classical characteristics at real-world dataset scale

def test_acceptance_2_classical_characteristics_at_scale():
    space_size_log, shape_log, _ = classical_from_counts(29858, 40981,
                                                         1027370)
    shape_ok = (-0.149 <= shape_log <= -0.097
                and abs(shape_log - (-0.1375)) <= 5e-3)
    space_ok = abs(space_size_log - 1.541) <= 0.01
    _verdict(2, "classical characteristics", shape_ok and space_ok,
             f"shape_log={shape_log:.4f}, "
             f"space_size_log={space_size_log:.4f}")


# ---------------------------------------------------------------------------
# 3. regression fitting and inference

def test_acceptance_3_ols_suite():
    rng = np.random.default_rng(303)

    # exact recovery on a noiseless planted model
    X = rng.normal(size=(50, 3))
    y = 1.0 + X @ np.array([2.0, -3.0, 0.5])
    exact = fit_ols(_design(X), y)
    exact_ok = (abs(exact.theta0 - 1.0) <= 1e-8
                and np.allclose(exact.coefficients, [2.0, -3.0, 0.5],
                                atol=1e-8)
                and abs(exact.r2 - 1.0) <= 1e-10)

    # coverage: planted coefficients inside 3 standard errors
    true = np.array([1.0, -0.5, 0.25])
    hits = 0
    for _ in range(100):
        Xn = rng.normal(size=(80, 3))
        yn = Xn @ true + rng.normal(scale=0.4, size=80)
        rep = fit_ols(_design(Xn), yn)
        hits += int(np.all(np.abs(rep.coefficients - true)
                           <= 3 * rep.std_errors[1:]))

    # adjusted-R2 arithmetic at a 600-row, 11-predictor shape
    adj = 1.0 - (1.0 - 0.971) * 599 / 588
    adj_ok = abs(adj - 0.9704581) < 1e-6 and abs(adj - 0.971) < 6e-4

    # p-values against an independent continued-fraction t-CDF
    Xp = rng.normal(size=(120, 4))
    yp = Xp @ np.array([0.4, 0.0, -0.1, 0.02]) + rng.normal(size=120)
    rep = fit_ols(_design(Xp), yp)
    p_worst = max(abs(p - _p_two_sided_oracle(float(t), 115))
                  for t, p in zip(rep.t_stats, rep.p_values))

    ok = exact_ok and hits >= 93 and adj_ok and p_worst <= 1e-8
    _verdict(3, "OLS suite", ok,
             f"coverage {hits}/100, p diff {p_worst:.2e}")


# ---------------------------------------------------------------------------
# 4. dropout sampling semantics

def test_acceptance_4_sampling():
    g = largest_connected_component(
        heavy_tailed_graph(num_users=300, num_items=200,
                           num_interactions=3000, seed=4))
    rng = np.random.default_rng(44)

    counts_ok = True
    for _ in range(50):
        mu = float(rng.uniform(0.3, 0.8))
        edge_sample = edge_dropout(g, mu, rng)
        want_edges = round_half_up(g.num_interactions * (1.0 - mu))
        counts_ok &= edge_sample.num_interactions == want_edges
        node_sample = node_dropout(g, mu, rng)
        want_nodes = round_half_up((g.num_users + g.num_items) * (1.0 - mu))
        counts_ok &= (node_sample.num_users + node_sample.num_items
                      <= want_nodes)
        counts_ok &= min(node_sample.user_degrees.min(),
                         node_sample.item_degrees.min()) >= 1

    node_pool = generate_samples(g, 200, strategies=(NODE_DROPOUT,),
                                 master_seed=7)
    edge_pool = generate_samples(g, 200, strategies=(EDGE_DROPOUT,),
                                 master_seed=7)
    node_mean = np.mean([s.graph.num_interactions for s in node_pool])
    edge_mean = np.mean([s.graph.num_interactions for s in edge_pool])

    first = generate_samples(g, 20, master_seed=5)
    again = generate_samples(g, 20, master_seed=5)
    replay_ok = all(
        np.array_equal(a.graph.edge_array(), b.graph.edge_array())
        and a.spec == b.spec for a, b in zip(first, again))
    other = generate_samples(g, 20, master_seed=6)
    differs = any(not np.array_equal(a.graph.edge_array(),
                                     b.graph.edge_array())
                  for a, b in zip(first, other))

    ok = counts_ok and node_mean < edge_mean and replay_ok and differs
    _verdict(4, "dropout sampling", ok,
             f"mean interactions node {node_mean:.1f} < edge {edge_mean:.1f}")


# ---------------------------------------------------------------------------
# 5. spectrum of the damped interaction normalization

def test_acceptance_5_spectral_bound():
    rng = np.random.default_rng(55)
    a2 = 2.0
    bound_ok = True
    for _ in range(50):
        g = random_bipartite(rng, max_users=15, max_items=15, p=0.3)
        if g.num_interactions == 0:
            continue
        Rn = normalized_interactions(g, a2)
        top = np.linalg.svd(to_scipy(Rn).toarray(), compute_uv=False)[0]
        d_max = max(g.user_degrees.max(), g.item_degrees.max())
        bound_ok &= top <= d_max / (d_max + a2) + 1e-6

    k22 = make_graph([(u, i) for u in range(2) for i in range(2)])
    R0 = to_scipy(normalized_interactions(k22, 0.0)).toarray()
    k22_ok = (np.allclose(R0, 0.5, atol=1e-12)
              and abs(np.linalg.svd(R0, compute_uv=False)[0] - 1.0) <= 1e-9)

    _verdict(5, "spectral bound", bound_ok and k22_ok)


# ---------------------------------------------------------------------------
# 6. all four recommenders beat a random baseline on separable structure

def test_acceptance_6_model_capability():
    start = time.perf_counter()
    g = two_block_graph(num_users=300, num_items=300,
                        interactions_per_user=30, seed=42)
    split = split_dataset(g, np.random.default_rng(1))
    k = 20
    baseline = float(np.mean(
        [k / (g.num_items
              - len(row_items(split.train, u))
              - len(row_items(split.valid, u)))
         for u in split.test_users]))
    lifts = {}
    for kind in MODEL_KINDS:
        model = train_model(split, MODEL_CONFIGS[kind](),
                            np.random.default_rng(7))
        result = evaluate(model, split, k=k, phase="test")
        lifts[kind] = result.recall / baseline

    # structural identities: one-intent disentangled == plain propagation,
    # zero layers == identity propagation
    small = two_block_graph(num_users=40, num_items=40,
                            interactions_per_user=8, seed=2)
    ssplit = split_dataset(small, np.random.default_rng(3))
    cfg_l = LightGCNConfig(embedding_dim=16, layers=2,
                           max_epochs=6, eval_interval=100)
    cfg_d = DGCFConfig(embedding_dim=16, layers=2, intents=1,
                       routing_iterations=1, max_epochs=6,
                       eval_interval=100)
    m_l = train_model(ssplit, cfg_l, np.random.default_rng(13))
    m_d = train_model(ssplit, cfg_d, np.random.default_rng(13))
    equiv = (np.allclose(m_l.user_embeddings, m_d.user_embeddings, atol=1e-9)
             and np.allclose(m_l.item_embeddings, m_d.item_embeddings,
                             atol=1e-9))
    E0 = np.random.default_rng(0).normal(size=(80, 8)).astype(base.DTYPE)
    prop = LightGCNPropagator(ssplit, LightGCNConfig(layers=0))
    identity = np.array_equal(prop.forward(E0), E0)

    elapsed = time.perf_counter() - start
    ok = (all(lift >= 3.0 for lift in lifts.values()) and equiv and identity
          and elapsed < 15 * 60)
    detail = ", ".join(f"{kind} {lift:.1f}x" for kind, lift in lifts.items())
    _verdict(6, "model capability", ok, f"{detail}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7./8. planted topology signal and the mixing sweep

@pytest.fixture(scope="module")
def planted_pool():
    g = largest_connected_component(
        heavy_tailed_graph(num_users=1600, num_items=400,
                           num_interactions=12000, user_exponent=0.5,
                           item_exponent=1.0, seed=9))
    samples = generate_samples(g, 60, master_seed=123)
    vectors = {s.spec.sample_id: compute_vector(s.graph) for s in samples}
    noise = np.random.default_rng(0)
    density, gini_item = (SHORTHAND_NAMES.index(name)
                          for name in ("Density_log", "Gini-I"))
    y = {sid: 0.3 * vec[density] + 0.5 * vec[gini_item]
         + float(noise.normal(scale=0.02))
         for sid, vec in vectors.items()}
    return samples, vectors, y


def test_acceptance_7_planted_signal_recovered(planted_pool):
    start = time.perf_counter()
    samples, vectors, y = planted_pool
    design, target = build_design(vectors, y)
    report = fit_ols(design, target)
    names = list(report.column_names)
    i_density = names.index("Density_log")
    i_gini = names.index("Gini-I")
    coef_ok = (report.coefficients[i_density] > 0
               and report.coefficients[i_gini] > 0)
    p_ok = (report.p_values[i_density + 1] <= 0.05
            and report.p_values[i_gini + 1] <= 0.05)
    # exactly the five count-derived columns are not identified; Gini-I
    # and the other five characteristics are
    not_identified = {name for name, flag
                      in zip(names, report.identified[1:]) if not flag}
    identified_ok = not_identified == set(COUNT_DERIVED)
    elapsed = time.perf_counter() - start
    ok = (coef_ok and p_ok and identified_ok and report.r2 >= 0.8
          and elapsed < 10 * 60)
    _verdict(7, "planted signal", ok,
             f"p(Density_log)={report.p_values[i_density + 1]:.1e}, "
             f"p(Gini-I)={report.p_values[i_gini + 1]:.1e}, "
             f"R2={report.r2:.3f}, not identified: "
             f"{', '.join(sorted(not_identified))}")


def test_acceptance_8_mixing_sweep(planted_pool, tmp_path):
    samples, vectors, y = planted_pool
    cfg = parse_config([f"out_dir={tmp_path}", "models=lightgcn"])
    metric_rows = [MetricRow(sample_id=sid, model="lightgcn", recall=y[sid],
                             ndcg=y[sid], epochs_trained=1,
                             stopped_early=False, best_epoch=1)
                   for sid in sorted(y)]
    result = RunResult(RunLedger(str(tmp_path / "ledger.json"), False))
    reports = rq2_sweep(cfg, samples, vectors, metric_rows, result)

    node_pool = [s for s in samples if s.spec.strategy == NODE_DROPOUT]
    edge_pool = [s for s in samples if s.spec.strategy == EDGE_DROPOUT]
    total = min(len(node_pool), len(edge_pool))
    counts_ok = True
    for alpha in cfg.alphas:
        n_node = round_half_up((1.0 - alpha) * total)
        want = ([s.spec.sample_id for s in node_pool[:n_node]]
                + [s.spec.sample_id for s in edge_pool[:total - n_node]])
        with open(tmp_path / "rq2" / f"alpha_{alpha:g}_lightgcn.csv") as fh:
            lines = fh.read().splitlines()
        stats = dict(line.split(",", 1) for line in lines[:5])
        mean_users = np.mean([s.graph.num_users for s in samples
                              if s.spec.sample_id in set(want)])
        counts_ok &= float(stats["alpha"]) == alpha
        counts_ok &= abs(float(stats["mean_users"]) - mean_users) < 1e-9
        counts_ok &= reports[(alpha, "lightgcn")].num_rows == total

    ok = not result.failures and len(reports) == 4 and counts_ok
    _verdict(8, "mixing sweep", ok,
             f"pools {len(node_pool)}/{len(edge_pool)}, total {total}")
