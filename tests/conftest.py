"""Shared fixtures and random-graph helpers for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from topocf.csr import CSR
from topocf.graph import BipartiteGraph, ingest_and_build
from topocf.pipeline import MANIFEST_HEADER, read_rows
from topocf.sampling import SampleSpec
from topocf.synthetic import _token_maps, _zipf_weights


def make_graph(edges, num_users=None, num_items=None):
    """Build a BipartiteGraph from integer (user, item) pairs."""
    edges = np.asarray(sorted(set(map(tuple, edges))), dtype=np.int64)
    nu = num_users if num_users is not None else int(edges[:, 0].max()) + 1
    ni = num_items if num_items is not None else int(edges[:, 1].max()) + 1
    return BipartiteGraph.from_edge_array(
        edges, [f"u{j}" for j in range(nu)], [f"i{j}" for j in range(ni)])


def load_graph(path):
    """Read an interaction file from disk and build the graph."""
    with open(path, "r", encoding="utf-8") as fh:
        return ingest_and_build(fh)


def read_manifest(path):
    """Parse a manifest back into a list of SampleSpec plus size columns."""
    def parse(fields):
        sid, strategy, mu, seed, nu, ni, ne = fields
        return (SampleSpec(int(sid), strategy, float(mu), int(seed)),
                int(nu), int(ni), int(ne))
    return read_rows(path, MANIFEST_HEADER, parse)


def to_scipy(A):
    """A ``topocf.csr.CSR`` as a scipy CSR matrix, for scipy as an oracle."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def from_scipy(A):
    """A scipy CSR matrix as a ``topocf.csr.CSR`` on the same arrays."""
    return CSR(A.indptr, A.indices, A.data, A.shape)


def adjacency(g):
    """Per-user item arrays read from the CSR rows, and per-item user
    arrays from the transpose of the interaction matrix."""
    user_adj = [g.indices[g.indptr[u]:g.indptr[u + 1]]
                for u in range(g.num_users)]
    RT = g.to_sparse().T
    item_adj = [RT.indices[RT.indptr[i]:RT.indptr[i + 1]]
                for i in range(g.num_items)]
    return user_adj, item_adj


def row_items(g, u):
    """Items of user ``u`` in a graph's CSR, e.g. one of a Split's parts."""
    return g.indices[g.indptr[u]:g.indptr[u + 1]]


def random_bipartite(rng, max_users=10, max_items=10, p=0.3):
    """Random dense-ish bipartite graph with at least one edge."""
    while True:
        nu = int(rng.integers(1, max_users + 1))
        ni = int(rng.integers(1, max_items + 1))
        mask = rng.random((nu, ni)) < p
        if mask.any():
            us, its = np.nonzero(mask)
            return make_graph(list(zip(us, its)), nu, ni)


def two_block_graph(num_users=300, num_items=300, interactions_per_user=30,
                    cross_interactions=2, popularity_exponent=1.0, seed=0):
    """Two-community graph with popularity-skewed within-block interactions.

    Users and items split into two equal blocks. Each user draws most
    interactions from their own block's items, with item popularity
    following a rank-``popularity_exponent`` power law inside the block,
    plus a few uniform cross-block interactions that keep the graph
    connected. The block plus popularity structure makes held-out items
    predictable from the observed ones.
    """
    rng = np.random.default_rng(seed)
    half_items = num_items // 2
    edges = set()
    within = interactions_per_user - cross_interactions
    for u in range(num_users):
        block = 0 if u < num_users // 2 else 1
        base = block * half_items
        block_size = half_items if block == 0 else num_items - half_items
        probs = _zipf_weights(block_size, popularity_exponent)
        own = rng.choice(block_size, size=min(within, block_size),
                         replace=False, p=probs)
        for i in own:
            edges.add((u, base + int(i)))
        other_base = (half_items - base) if block else half_items
        other_size = num_items - block_size
        for i in rng.choice(other_size, size=min(cross_interactions, other_size),
                            replace=False):
            edges.add((u, other_base + int(i)))
    edge_array = np.array(sorted(edges), dtype=np.int64)
    user_ids, item_ids = _token_maps(num_users, num_items)
    return BipartiteGraph.from_edge_array(edge_array, user_ids, item_ids)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_graph():
    """Hand-checkable graph: 4 users, 5 items, 8 interactions.

        u0: i0 i1 i2     u1: i1 i2     u2: i3     u3: i3 i4
    """
    return make_graph([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2),
                       (2, 3), (3, 3), (3, 4)])


@pytest.fixture
def k22_graph():
    """Complete bipartite K_{2,2}."""
    return make_graph([(0, 0), (0, 1), (1, 0), (1, 1)])
