"""Bipartite user-item graph: ingestion, connected components, projections.

:func:`project` is the one co-occurrence build, for the characteristics
and, on a split's train graph, for SVD-GCN and UltraGCN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSR

PROJECTION_EDGE_CAP = 50_000_000


class GraphError(Exception):
    """Raised when a graph cannot be built or processed."""


class ProjectionCapError(GraphError):
    """Raised when a projection would exceed PROJECTION_EDGE_CAP edges."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable user-item graph stored as a user-side CSR.

    User ``u`` interacted with the strictly increasing item indices
    ``indices[indptr[u]:indptr[u + 1]]``; ``indptr`` has one entry per user
    plus one. ``user_ids`` / ``item_ids`` map compacted indices back to the
    original tokens. Item-side views (degrees, the transposed matrix) are
    derived from these arrays on demand.
    """

    indptr: np.ndarray
    indices: np.ndarray
    user_ids: tuple
    item_ids: tuple

    @property
    def num_users(self):
        return len(self.user_ids)

    @property
    def num_items(self):
        return len(self.item_ids)

    @property
    def num_interactions(self):
        return len(self.indices)

    @property
    def user_degrees(self):
        return np.diff(self.indptr)

    @property
    def item_degrees(self):
        return np.bincount(self.indices, minlength=self.num_items)

    def edge_array(self):
        """All (user, item) edges as an (E, 2) array, sorted by (u, i)."""
        users = np.repeat(np.arange(self.num_users, dtype=np.int64),
                          self.user_degrees)
        return np.column_stack([users, self.indices])

    def to_sparse(self, values=None):
        """Interaction matrix as a CSR of shape (num_users, num_items), with
        ``values`` in edge order, or ones, as its entries."""
        if values is None:
            values = np.ones(self.num_interactions)
        return CSR(self.indptr, self.indices, values,
                   (self.num_users, self.num_items))

    @classmethod
    def from_edge_array(cls, edges, user_ids, item_ids):
        """Build from a deduplicated (E, 2) index array, in any order, and
        token maps."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        # keys are distinct, so this is the (user, item) lexicographic order
        order = np.argsort(edges[:, 0] * len(item_ids) + edges[:, 1],
                           kind="stable")
        indptr = np.zeros(len(user_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges[:, 0], minlength=len(user_ids)),
                  out=indptr[1:])
        return cls(indptr=indptr, indices=edges[order, 1],
                   user_ids=tuple(user_ids), item_ids=tuple(item_ids))


@dataclass(frozen=True)
class ProjectedGraph:
    """Same-partition co-occurrence graph.

    Edges are stored off-diagonal only (v < w) with co-occurrence counts as
    weights; ``degrees`` counts distinct co-neighbors per node (binarized,
    self-loop-free structure).
    """

    n: int
    v: np.ndarray
    w: np.ndarray
    weight: np.ndarray
    degrees: np.ndarray

    @property
    def num_edges(self):
        return len(self.v)


def ingest_and_build(source):
    """Parse an iterable of interaction lines into a BipartiteGraph.

    Each non-comment line carries ``user_id<TAB>item_id`` (any whitespace
    works, extra columns are ignored). Duplicate pairs collapse to a single
    implicit-feedback edge. Users and items are numbered in the order they
    first appear.
    """
    # each token's index, numbered in order of first appearance, and each
    # interaction's user and item index
    user_index, item_index = {}, {}
    users, items = [], []
    for lineno, line in enumerate(source, start=1):
        fields = line.split(None, 2)
        if fields and fields[0][0] != "#":
            if len(fields) == 1:
                raise GraphError(f"malformed interaction at line {lineno}: "
                                 f"{line.strip()!r}")
            users.append(user_index.setdefault(fields[0], len(user_index)))
            items.append(item_index.setdefault(fields[1], len(item_index)))
    if not users:
        raise GraphError("no interactions")
    user_ids, item_ids = list(user_index), list(item_index)
    # distinct pairs by sorted u*I+i keys; np.unique's hash path is ~40x
    # slower than this sort on 300k int64 keys
    keys = np.sort(np.array(users, np.int64) * len(item_ids)
                   + np.array(items, np.int64))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    edges = np.column_stack([keys // len(item_ids), keys % len(item_ids)])
    return BipartiteGraph.from_edge_array(edges, user_ids, item_ids)


def write_interactions(g, path):
    """Write edges as token pairs, re-readable by :func:`ingest_and_build`."""
    edges = g.edge_array()
    users = np.array([str(t) for t in g.user_ids], dtype=object)
    items = np.array([str(t) for t in g.item_ids], dtype=object)
    text = "\n".join(map("\t".join, zip(users[edges[:, 0]], items[edges[:, 1]])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n" if len(edges) else "")


def induced_subgraph(g, edges):
    """Compacted subgraph on a subset of g's (u, i) edges.

    Nodes not incident to any retained edge are dropped, so every node in
    the result has degree >= 1; kept nodes keep their relative order.
    """
    # the sorted distinct ids of each column; np.unique's hash path is
    # ~10x slower on such columns
    kept_users = np.flatnonzero(np.bincount(edges[:, 0],
                                            minlength=g.num_users))
    kept_items = np.flatnonzero(np.bincount(edges[:, 1],
                                            minlength=g.num_items))
    new_edges = np.column_stack([np.searchsorted(kept_users, edges[:, 0]),
                                 np.searchsorted(kept_items, edges[:, 1])])
    return BipartiteGraph.from_edge_array(
        new_edges,
        [g.user_ids[u] for u in kept_users],
        [g.item_ids[i] for i in kept_items],
    )


def _component_roots(g, edges):
    """Per combined node (users first, then items), the smallest node index
    in its connected component.

    Min-label hooking with full shortcutting: every round hooks each tree
    root onto the smallest root it shares an edge with, then points every
    node at its root, until no edge joins two trees. Roots only ever move
    to smaller indices, so each component ends at its minimum node.
    """
    src, dst = edges[:, 0], g.num_users + edges[:, 1]
    root = np.arange(g.num_users + g.num_items)
    while True:
        a, b = root[src], root[dst]
        cross = a != b
        if not cross.any():
            return root
        a, b = a[cross], b[cross]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def largest_connected_component(g):
    """Restrict the graph to its largest connected component.

    Components are compared by node count, then edge count, then lowest
    minimum combined node index (users first, then items), so the result
    is deterministic even under ties. Indices are re-compacted while
    preserving the original relative order.
    """
    if g.num_interactions < 1:
        raise GraphError("graph has no edges")
    edges = g.edge_array()
    root = _component_roots(g, edges)
    node_counts = np.bincount(root, minlength=len(root))
    edge_counts = np.bincount(root[edges[:, 0]], minlength=len(root))
    # roots are the components' minimum indices: among the largest by
    # (nodes, edges), the first in index order wins
    best = np.lexsort((-np.arange(len(root)), edge_counts, node_counts))[-1]
    return induced_subgraph(g, edges[root[edges[:, 0]] == best])


def project(g, partition):
    """Project the bipartite graph onto one partition.

    Weights are exact co-occurrence counts (off-diagonal entries of
    R.R^T or R^T.R), pairs sorted by (v, w); degrees count distinct
    co-neighbors. Nodes of degree 0 stay, with no pairs.

    The side's wedge count, the sum of d(d-1)/2 over the other side's
    degrees, bounds the pair count; past ``PROJECTION_EDGE_CAP`` this
    raises ``ProjectionCapError``, naming the other side's largest hub,
    before any product is formed.
    """
    if partition not in ("user", "item"):
        raise ValueError(f"unknown partition {partition!r}")
    R = g.to_sparse()
    hubs, hub_ids = g.item_degrees, g.item_ids
    if partition == "item":
        R = R.T
        hubs, hub_ids = g.user_degrees, g.user_ids
    wedges = int((hubs * (hubs - 1) // 2).sum())
    if wedges > PROJECTION_EDGE_CAP:
        hub = int(np.argmax(hubs))
        raise ProjectionCapError(
            f"projection on {partition!r} side needs up to {wedges} "
            f"edges, over the cap {PROJECTION_EDGE_CAP}; hub node "
            f"{hub_ids[hub]!r} has degree {int(hubs[hub])}")
    # the upper triangle's rows, each sorted by column, list the pairs in
    # (v, w) order
    P = (R @ R.T).strict_upper()
    v = np.repeat(np.arange(R.shape[0], dtype=np.int64), np.diff(P.indptr))
    w = P.indices
    wt = P.data
    degrees = (np.bincount(v, minlength=R.shape[0])
               + np.bincount(w, minlength=R.shape[0]))
    return ProjectedGraph(n=R.shape[0], v=v, w=w, weight=wt, degrees=degrees)
