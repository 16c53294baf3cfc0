"""Synthetic generators against the per-edge loops they replace."""

import numpy as np
import pytest

from topocf.graph import BipartiteGraph
from topocf.synthetic import _token_maps, _zipf_weights, heavy_tailed_graph


def _heavy_tailed_graph_loop(num_users, num_items, num_interactions,
                             user_exponent=0.8, item_exponent=1.1, seed=0):
    """heavy_tailed_graph with one Python set of edges and a draw per
    untouched node: the reference the array version must match edge for
    edge, since the benchmark's input digests rest on it."""
    rng = np.random.default_rng(seed)
    p_user = _zipf_weights(num_users, user_exponent)
    p_item = _zipf_weights(num_items, item_exponent)
    user_perm = rng.permutation(num_users)
    item_perm = rng.permutation(num_items)
    edges = set()
    target = num_interactions
    while len(edges) < target:
        n = int((target - len(edges)) * 1.4) + 16
        us = user_perm[rng.choice(num_users, size=n, p=p_user)]
        its = item_perm[rng.choice(num_items, size=n, p=p_item)]
        for u, i in zip(us, its):
            edges.add((int(u), int(i)))
            if len(edges) >= target:
                break
    touched_u = {u for u, _ in edges}
    touched_i = {i for _, i in edges}
    for u in range(num_users):
        if u not in touched_u:
            edges.add((u, int(item_perm[rng.choice(num_items, p=p_item)])))
    for i in range(num_items):
        if i not in touched_i:
            edges.add((int(user_perm[rng.choice(num_users, p=p_user)]), i))
    edge_array = np.array(sorted(edges), dtype=np.int64)
    user_ids, item_ids = _token_maps(num_users, num_items)
    return BipartiteGraph.from_edge_array(edge_array, user_ids, item_ids)


@pytest.mark.parametrize("shape", [
    (1500, 750, 12000, 0.8, 1.1),   # the benchmark's two input shapes
    (800, 3200, 8000, 0.6, 0.8),
])
def test_heavy_tailed_graph_matches_loop_at_bench_shapes(shape):
    for seed in range(50):
        got = heavy_tailed_graph(*shape, seed=seed)
        want = _heavy_tailed_graph_loop(*shape, seed=seed)
        assert np.array_equal(got.indptr, want.indptr), seed
        assert np.array_equal(got.indices, want.indices), seed
        assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)


@pytest.mark.parametrize("shape", [
    (300, 200, 50), (20, 500, 30), (500, 20, 30), (30, 20, 150), (5, 5, 25),
])
def test_heavy_tailed_graph_matches_loop_with_fill_draws(shape):
    """Shapes where the draws leave nodes untouched, so the per-node fill
    edges are drawn, and one where every pair is an edge."""
    filled = 0
    for seed in range(10):
        got = heavy_tailed_graph(*shape, seed=seed)
        want = _heavy_tailed_graph_loop(*shape, seed=seed)
        assert np.array_equal(got.indptr, want.indptr), seed
        assert np.array_equal(got.indices, want.indices), seed
        assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)
        filled += got.num_interactions > shape[2]
        assert (got.user_degrees > 0).all() and (got.item_degrees > 0).all()
    assert filled or shape[2] == shape[0] * shape[1]


def test_heavy_tailed_graph_rejects_more_interactions_than_pairs():
    with pytest.raises(ValueError, match="exceed"):
        heavy_tailed_graph(3, 3, 10, seed=0)
    full = heavy_tailed_graph(3, 3, 9, seed=0)
    assert full.num_interactions == 9
