"""Sub-dataset generation: dropout mechanics, determinism, pool mixing."""

import numpy as np
import pytest

from topocf.config import parse_config
from topocf.pipeline import prepare_samples
from topocf.sampling import (DegenerateSampleError, SamplePoolError,
                             edge_dropout, generate_samples, mix_for_alpha,
                             node_dropout, round_half_up, write_sample_edges)
from topocf.seeds import stable_seed
from topocf.synthetic import heavy_tailed_graph

from conftest import load_graph, make_graph, random_bipartite, read_manifest


def test_stable_seed_is_deterministic_and_order_sensitive():
    assert stable_seed(1, "sample", 2) == stable_seed(1, "sample", 2)
    assert stable_seed(1, "sample", 2) != stable_seed(2, "sample", 1)
    assert stable_seed("a", "bc") != stable_seed("ab", "c")
    assert 0 <= stable_seed(0) < 2 ** 64


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(3.5) == 4
    assert round_half_up(0.0) == 0


def test_node_dropout_exact_node_count(rng):
    for _ in range(20):
        g = random_bipartite(rng, max_users=20, max_items=20, p=0.5)
        mu = float(rng.uniform(0.3, 0.7))
        expected = round_half_up((g.num_users + g.num_items) * (1 - mu))
        try:
            sub = node_dropout(g, mu, rng)
        except DegenerateSampleError:
            continue
        # pruning can only remove nodes isolated by the masking
        assert sub.num_users + sub.num_items <= expected
        assert min(sub.user_degrees.min(), sub.item_degrees.min()) >= 1


def test_node_dropout_retains_masked_edges_only():
    g = make_graph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    rng = np.random.default_rng(3)
    sub = node_dropout(g, 0.5, rng)
    # every surviving edge must connect surviving original tokens
    originals = set(map(tuple, g.edge_array()))
    tokens = {(sub.user_ids[u], sub.item_ids[i])
              for u, i in sub.edge_array()}
    for ut, it in tokens:
        assert (int(ut[1:]), int(it[1:])) in originals


def test_edge_dropout_exact_edge_count(rng):
    for _ in range(20):
        g = random_bipartite(rng, max_users=20, max_items=20, p=0.5)
        mu = float(rng.uniform(0.3, 0.7))
        expected = round_half_up(g.num_interactions * (1 - mu))
        if expected == 0:
            continue
        sub = edge_dropout(g, mu, rng)
        assert sub.num_interactions == expected
        assert min(sub.user_degrees.min(), sub.item_degrees.min()) >= 1


def test_edge_dropout_is_subset(rng):
    g = random_bipartite(rng, max_users=15, max_items=15, p=0.5)
    sub = edge_dropout(g, 0.5, rng)
    originals = set(map(tuple, g.edge_array()))
    for u, i in sub.edge_array():
        orig = (int(sub.user_ids[u][1:]), int(sub.item_ids[i][1:]))
        assert orig in originals


def test_mu_zero_returns_graph_unchanged(small_graph, rng):
    assert node_dropout(small_graph, 0.0, rng) is small_graph
    assert edge_dropout(small_graph, 0.0, rng) is small_graph


def test_mu_validation(small_graph, rng):
    with pytest.raises(ValueError):
        node_dropout(small_graph, 1.0, rng)
    with pytest.raises(ValueError):
        edge_dropout(small_graph, -0.1, rng)


def test_degenerate_sample_raises():
    g = make_graph([(0, 0)])
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateSampleError):
        node_dropout(g, 0.9, rng)  # round(2 * 0.1) = 0 nodes


def test_generate_samples_replay_is_identical():
    g = heavy_tailed_graph(num_users=80, num_items=60, num_interactions=600,
                           seed=4)
    a = generate_samples(g, 12, master_seed=99)
    b = generate_samples(g, 12, master_seed=99)
    for sa, sb in zip(a, b):
        assert sa.spec == sb.spec
        assert np.array_equal(sa.graph.edge_array(), sb.graph.edge_array())
        assert sa.graph.user_ids == sb.graph.user_ids
    c = generate_samples(g, 12, master_seed=100)
    assert any(sa.spec != sc.spec for sa, sc in zip(a, c))


def test_generate_samples_mu_and_strategy_ranges():
    g = heavy_tailed_graph(num_users=80, num_items=60, num_interactions=600,
                           seed=4)
    samples = generate_samples(g, 40, mu_range=(0.7, 0.9), master_seed=7)
    strategies = {s.spec.strategy for s in samples}
    assert strategies == {"node_dropout", "edge_dropout"}
    for s in samples:
        assert 0.7 <= s.spec.mu <= 0.9


def test_samples_independent_of_generation_order():
    from topocf.sampling import generate_one_sample

    g = heavy_tailed_graph(num_users=80, num_items=60, num_interactions=600,
                           seed=4)
    full = generate_samples(g, 8, master_seed=5)
    solo = generate_one_sample(g, 6, (0.7, 0.9),
                               ("node_dropout", "edge_dropout"), 5)
    assert solo.spec == full[6].spec
    assert np.array_equal(solo.graph.edge_array(), full[6].graph.edge_array())


def test_node_dropout_loses_more_interactions_than_edge_dropout():
    """Hub removal under node dropout takes whole neighborhoods with it,
    so at matched mu the surviving interaction count is smaller on
    average for heavy-tailed graphs."""
    g = heavy_tailed_graph(num_users=300, num_items=200,
                           num_interactions=3000, seed=11)
    node_counts, edge_counts = [], []
    master = np.random.default_rng(2)
    for trial in range(100):
        mu = float(master.uniform(0.7, 0.9))
        node_counts.append(node_dropout(
            g, mu, np.random.default_rng(1000 + trial)).num_interactions)
        edge_counts.append(edge_dropout(
            g, mu, np.random.default_rng(2000 + trial)).num_interactions)
    assert np.mean(node_counts) < np.mean(edge_counts)


def test_mix_for_alpha_counts():
    node_pool = list("NNNNNNNNNN")
    edge_pool = list("EEEEEEEEEE")
    assert mix_for_alpha(node_pool, edge_pool, 0.0, 10).count("N") == 10
    assert mix_for_alpha(node_pool, edge_pool, 1.0, 10).count("E") == 10
    mixed = mix_for_alpha(node_pool, edge_pool, 0.3, 10)
    assert mixed.count("N") == 7 and mixed.count("E") == 3
    mixed = mix_for_alpha(node_pool, edge_pool, 0.7, 10)
    assert mixed.count("N") == 3 and mixed.count("E") == 7


def test_mix_for_alpha_pool_exhaustion():
    with pytest.raises(SamplePoolError, match="needs 7"):
        mix_for_alpha(list("NNN"), list("EEE"), 0.3, 10)
    with pytest.raises(ValueError):
        mix_for_alpha(list("NNN"), list("EEE"), 1.5, 2)


def test_manifest_round_trip(tmp_path):
    g = heavy_tailed_graph(num_users=60, num_items=40, num_interactions=400,
                           seed=8)
    cfg = parse_config([f"out_dir={tmp_path}", "num_samples=5",
                        "master_seed=3"])
    samples, *_ = prepare_samples(cfg, g)
    path = tmp_path / "manifest.csv"
    header = path.read_text().splitlines()[0]
    assert header == ("sample_id,strategy,mu,seed,num_users,num_items,"
                      "num_interactions")
    rows = read_manifest(path)
    assert len(rows) == 5
    for (spec, nu, ni, ne), s in zip(rows, samples):
        assert spec == s.spec
        assert (nu, ni, ne) == (s.graph.num_users, s.graph.num_items,
                                s.graph.num_interactions)


def test_write_sample_edges_round_trip(tmp_path):
    g = heavy_tailed_graph(num_users=60, num_items=40, num_interactions=400,
                           seed=8)
    sample = generate_samples(g, 1, master_seed=3)[0]
    path = write_sample_edges(sample, tmp_path)
    back = load_graph(path)
    assert back.num_interactions == sample.graph.num_interactions
    assert set(back.user_ids) == set(sample.graph.user_ids)
