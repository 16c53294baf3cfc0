"""The eleven graph characteristics against independent oracles."""

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from topocf.characteristics import (SHORTHAND_NAMES,
                                    average_clustering_coefficient,
                                    average_degree, classical_from_counts,
                                    compute_vector, degree_assortativity,
                                    gini, pearson_matrix,
                                    write_degree_histogram)
from topocf import graph
from topocf.graph import ProjectionCapError, project
from topocf.models.base import SvdGcnConfig
from topocf.models.split import Split
from topocf.models.svdgcn import SvdGcn
from topocf.synthetic import heavy_tailed_graph

from conftest import adjacency, make_graph, random_bipartite


# ---------------------------------------------------------------------------
# Gini coefficient

def _gini_pairwise(values):
    """O(n^2) oracle: sum of absolute pairwise differences."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    total = sum(abs(a - b) for a in x for b in x)
    return total / (2 * n * n * x.mean())


def test_gini_known_value():
    assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)


def test_gini_uniform_is_zero():
    assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)


def test_gini_concentration_limit():
    # one node holding everything approaches (n-1)/n
    values = [0.0] * 9 + [100.0]
    assert gini(values) == pytest.approx(0.9, abs=1e-12)


def test_gini_matches_pairwise_oracle(rng):
    for _ in range(50):
        x = rng.integers(1, 50, size=int(rng.integers(2, 40)))
        assert gini(x) == pytest.approx(_gini_pairwise(x), abs=1e-9)


def test_gini_rejects_degenerate_input():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([0, 0])


# ---------------------------------------------------------------------------
# classical characteristics

def test_classical_from_counts_values():
    space_size_log, shape_log, density_log = classical_from_counts(100, 50,
                                                                   1000)
    assert 10 ** shape_log == pytest.approx(2.0)
    assert 10 ** density_log == pytest.approx(0.2)
    assert 10 ** space_size_log == pytest.approx(math.sqrt(0.1 * 0.05))
    assert density_log == pytest.approx(math.log10(0.2))


def test_classical_counts_vs_adjacency(rng):
    for _ in range(10):
        g = random_bipartite(rng)
        out = classical_from_counts(g.num_users, g.num_items,
                                    g.num_interactions)
        # recompute the counts from the adjacency lists themselves
        user_adj, item_adj = adjacency(g)
        U = len(user_adj)
        I = len(item_adj)
        E = sum(len(a) for a in user_adj)
        again = classical_from_counts(U, I, E)
        for got, expected in zip(out, again):
            assert got == pytest.approx(expected, abs=1e-12)


def test_average_degree(small_graph):
    log_u = average_degree(small_graph, "user")
    log_i = average_degree(small_graph, "item")
    assert 10 ** log_u == pytest.approx(8 / 4)
    assert 10 ** log_i == pytest.approx(8 / 5)
    assert log_u == pytest.approx(math.log10(2.0))
    assert log_i == pytest.approx(math.log10(1.6))


# ---------------------------------------------------------------------------
# clustering coefficient

def _clustering_bruteforce(g, partition):
    """All-pairs Jaccard oracle over explicit neighbor sets."""
    user_adj, item_adj = adjacency(g)
    adj = ([set(map(int, a)) for a in user_adj] if partition == "user"
           else [set(map(int, a)) for a in item_adj])
    n = len(adj)
    values = []
    for v in range(n):
        neighbors2 = [w for w in range(n)
                      if w != v and adj[v] & adj[w]]
        if not neighbors2:
            values.append(0.0)
            continue
        jac = [len(adj[v] & adj[w]) / len(adj[v] | adj[w])
               for w in neighbors2]
        values.append(sum(jac) / len(jac))
    return sum(values) / n


@pytest.mark.parametrize("partition", ["user", "item"])
def test_clustering_matches_jaccard_oracle(rng, partition):
    zeros = 0
    for _ in range(40):
        g = random_bipartite(rng)
        log10_value = average_clustering_coefficient(
            g, partition, project(g, partition))
        expected = _clustering_bruteforce(g, partition)
        if expected == 0:
            assert math.isnan(log10_value)
            zeros += 1
        else:
            assert 10 ** log10_value == pytest.approx(expected, abs=1e-9)
    assert zeros < 40


def _clustering_add_at(g, partition):
    """average_clustering_coefficient with each node's Jaccard sum made by
    two np.add.at scatters: the reference the one bincount must match
    exactly."""
    proj = project(g, partition)
    bipartite_deg = g.user_degrees if partition == "user" else g.item_degrees
    if proj.num_edges == 0:
        return math.nan
    union = bipartite_deg[proj.v] + bipartite_deg[proj.w] - proj.weight
    jaccard = proj.weight / union
    sums = np.zeros(proj.n)
    np.add.at(sums, proj.v, jaccard)
    np.add.at(sums, proj.w, jaccard)
    per_node = np.where(proj.degrees > 0,
                        sums / np.maximum(proj.degrees, 1), 0.0)
    mean = float(per_node.mean())
    return math.log10(mean) if mean > 0 else math.nan


@pytest.mark.parametrize("partition", ["user", "item"])
def test_clustering_matches_add_at_exactly(partition):
    for seed in range(30):
        g = heavy_tailed_graph(num_users=40 + 5 * seed, num_items=30 + seed,
                               num_interactions=200 + 20 * seed, seed=seed)
        got = average_clustering_coefficient(g, partition,
                                             project(g, partition))
        want = _clustering_add_at(g, partition)
        assert got == want or (math.isnan(got) and math.isnan(want)), seed


def test_src_has_no_add_at():
    """np.bincount is the one scatter-add in the package."""
    src = Path(__file__).resolve().parent.parent / "src" / "topocf"
    calls = [f"{path.name}:{n}" for path in sorted(src.rglob("*.py"))
             for n, line in enumerate(path.read_text("utf-8").splitlines(), 1)
             if "add.at(" in line]
    assert calls == []


def test_clustering_k22_is_one(k22_graph):
    log10_value = average_clustering_coefficient(
        k22_graph, "user", project(k22_graph, "user"))
    assert 10 ** log10_value == pytest.approx(1.0)
    assert log10_value == pytest.approx(0.0)


def test_clustering_three_user_path():
    # u0-i0, u1-i0, u1-i1, u2-i1: every Jaccard overlap is 1/2
    g = make_graph([(0, 0), (1, 0), (1, 1), (2, 1)])
    log10_value = average_clustering_coefficient(g, "user",
                                                 project(g, "user"))
    assert 10 ** log10_value == pytest.approx(0.5)
    assert log10_value == pytest.approx(math.log10(0.5))


def test_clustering_disconnected_projection_is_nan_log():
    # two users with disjoint items: no co-occurrence at all
    g = make_graph([(0, 0), (1, 1)])
    assert math.isnan(average_clustering_coefficient(g, "user",
                                                     project(g, "user")))


# ---------------------------------------------------------------------------
# assortativity

def _assortativity_pearson_oracle(proj):
    """Independent two-pass Pearson over the symmetric endpoint pairs."""
    deg = proj.degrees.astype(float)
    x = np.concatenate([deg[proj.v], deg[proj.w]])
    y = np.concatenate([deg[proj.w], deg[proj.v]])
    if x.std() == 0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


def test_assortativity_matches_pearson_oracle(rng):
    checked = 0
    for _ in range(200):
        g = random_bipartite(rng)
        proj = project(g, "user")
        if proj.num_edges == 0:
            continue
        got = degree_assortativity(proj)
        expected = _assortativity_pearson_oracle(proj)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(expected, abs=1e-9)
            checked += 1
    assert checked >= 50


@dataclass(frozen=True)
class DegreeMixingTable:
    """Joint degree-degree fractions over directed edge endpoints.

    ``e[h, k]`` is the fraction of directed edges whose endpoints have
    degrees ``degrees[h]`` and ``degrees[k]``; ``q`` is the marginal and
    ``std_q`` its standard deviation.
    """

    degrees: np.ndarray
    e: np.ndarray
    q: np.ndarray
    std_q: float


def degree_mixing_table(proj):
    """Degree-mixing fractions of a projection's symmetric edge list."""
    if proj.num_edges < 1:
        raise ValueError("projection has no edges")
    deg = proj.degrees
    degrees = np.unique(np.concatenate([deg[proj.v], deg[proj.w]]))
    index = {int(d): k for k, d in enumerate(degrees)}
    D = len(degrees)
    e = np.zeros((D, D))
    for a, b in ((proj.v, proj.w), (proj.w, proj.v)):
        for dv, dw in zip(deg[a], deg[b]):
            e[index[int(dv)], index[int(dw)]] += 1.0
    e /= e.sum()
    q = e.sum(axis=1)
    mean_q = float((degrees * q).sum())
    var_q = float((degrees.astype(np.float64) ** 2 * q).sum() - mean_q ** 2)
    return DegreeMixingTable(degrees=degrees.astype(np.float64), e=e, q=q,
                             std_q=math.sqrt(max(var_q, 0.0)))


def assortativity_from_mixing(table):
    """Evaluate assortativity from the degree-mixing form."""
    if table.std_q == 0:
        return math.nan
    d = table.degrees
    outer = np.outer(d, d)
    return float((outer * (table.e - np.outer(table.q, table.q))).sum()
                 / table.std_q ** 2)


def test_assortativity_matches_mixing_matrix_route(rng):
    checked = 0
    for _ in range(200):
        g = random_bipartite(rng)
        proj = project(g, "item")
        if proj.num_edges == 0:
            continue
        got = degree_assortativity(proj)
        via_mixing = assortativity_from_mixing(degree_mixing_table(proj))
        if math.isnan(got):
            assert math.isnan(via_mixing)
        else:
            assert got == pytest.approx(via_mixing, abs=1e-9)
            checked += 1
    assert checked >= 50


def test_assortativity_path_is_minus_one():
    # user projection is a 3-node path: perfectly disassortative
    g = make_graph([(0, 0), (1, 0), (1, 1), (2, 1)])
    proj = project(g, "user")
    assert degree_assortativity(proj) == pytest.approx(-1.0)


def test_assortativity_regular_projection_is_nan(k22_graph):
    proj = project(k22_graph, "user")
    assert math.isnan(degree_assortativity(proj))


# ---------------------------------------------------------------------------
# full vector and downstream helpers

def test_compute_vector_field_order():
    g = heavy_tailed_graph(num_users=60, num_items=40, num_interactions=500,
                           seed=0)
    row = compute_vector(g)
    assert row.shape == (len(SHORTHAND_NAMES),) == (11,)
    assert row.dtype == np.float64
    space_size_log, *_ = classical_from_counts(g.num_users, g.num_items,
                                               g.num_interactions)
    assert row[SHORTHAND_NAMES.index("SpaceSize_log")] == space_size_log
    assert row[SHORTHAND_NAMES.index("Gini-I")] == gini(g.item_degrees)
    assert row[SHORTHAND_NAMES.index("Assort-I")] == \
        degree_assortativity(project(g, "item"))


def test_compute_vector_undefined_fields():
    # star graph: every co-occurring user has identical degree
    g = make_graph([(u, 0) for u in range(5)])
    row = compute_vector(g)
    undefined = [name for name, value in zip(SHORTHAND_NAMES, row)
                 if not np.isfinite(value)]
    assert "Assort-U" in undefined
    assert "Gini-U" not in undefined


def test_projection_cap_names_hub(monkeypatch):
    """project refuses a side past the cap before any product, for the
    characteristics and for SVD-GCN on the train graph alike."""
    # star: one item shared by 6 users -> 15 wedges on the user side, 0 on
    # the item side
    g = make_graph([(u, 0) for u in range(6)])
    split = Split(graph=g, train_edges=g.edge_array(),
                  valid_edges=np.zeros((0, 2), np.int64),
                  test_edges=np.zeros((0, 2), np.int64))
    cfg = SvdGcnConfig()
    monkeypatch.setattr(graph, "PROJECTION_EDGE_CAP", 10)
    for build in (compute_vector, lambda g: project(g, "user"),
                  lambda g: SvdGcn(split, cfg)):
        with pytest.raises(ProjectionCapError,
                           match="'user' side needs up to 15 .* 'i0' has "
                                 "degree 6"):
            build(g)
    assert project(g, "item").num_edges == 0
    monkeypatch.setattr(graph, "PROJECTION_EDGE_CAP", 15)
    row = compute_vector(g)
    # each of the 15 user pairs shares its only item: Jaccard 1, log 0
    assert row[SHORTHAND_NAMES.index("AvgClustC-U_log")] == 0.0
    assert len(SvdGcn(split, cfg).user_pairs[0]) == 15


def test_pearson_matrix_against_two_pass_oracle(rng):
    g = heavy_tailed_graph(num_users=120, num_items=80, num_interactions=900,
                           seed=1)
    from topocf.sampling import generate_samples

    vectors = [compute_vector(s.graph)
               for s in generate_samples(g, 12, master_seed=0)]
    matrix = pearson_matrix(vectors)
    rows = np.array(vectors)
    rows = rows[np.isfinite(rows).all(axis=1)]
    for a in range(11):
        for b in range(11):
            xa, xb = rows[:, a], rows[:, b]
            expected = (((xa - xa.mean()) * (xb - xb.mean())).sum()
                        / math.sqrt(((xa - xa.mean()) ** 2).sum()
                                    * ((xb - xb.mean()) ** 2).sum()))
            assert matrix[a, b] == pytest.approx(expected, abs=1e-9)
    assert np.allclose(np.diag(matrix), 1.0)
    assert np.allclose(matrix, matrix.T)


def test_pearson_matrix_needs_enough_rows():
    g = heavy_tailed_graph(num_users=60, num_items=40, num_interactions=400,
                           seed=2)
    vec = compute_vector(g)
    with pytest.raises(ValueError, match="at least 3"):
        pearson_matrix([vec, vec])


def _histogram_oracle(degrees):
    counts = Counter(int(d) for d in degrees)
    n = len(degrees)
    return [f"{d}\t{counts[d] / n!r}" for d in sorted(counts)]


def test_degree_histogram_matches_counter_oracle(k22_graph, tmp_path):
    g = heavy_tailed_graph(num_users=400, num_items=300,
                           num_interactions=4000, seed=3)
    path = tmp_path / "hist.tsv"
    for degrees in (g.user_degrees, g.item_degrees, k22_graph.user_degrees):
        write_degree_histogram(degrees, path)
        assert path.read_text().splitlines() == _histogram_oracle(degrees)
    # one distinct degree is written too
    assert path.read_text() == "2\t1.0\n"
