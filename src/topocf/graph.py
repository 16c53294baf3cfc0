"""Bipartite user-item graph: ingestion, connected components, projections.

:func:`project` is the one co-occurrence build, for the characteristics
and, on a split's train graph, for SVD-GCN and UltraGCN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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

    def to_sparse(self):
        """Interaction matrix as a CSR of shape (num_users, num_items)."""
        data = np.ones(self.num_interactions, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_users, self.num_items))

    @classmethod
    def from_edge_array(cls, edges, user_ids, item_ids):
        """Build from a deduplicated (E, 2) index array and token maps."""
        edges, indptr = sort_rows(edges, len(user_ids))
        return cls(indptr=indptr, indices=np.ascontiguousarray(edges[:, 1]),
                   user_ids=tuple(user_ids), item_ids=tuple(item_ids))


def sort_rows(edges, num_rows):
    """(row, col) pairs sorted by row then column, and the CSR row pointers
    (``num_rows + 1`` entries) over them."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges[:, 0], minlength=num_rows), out=indptr[1:])
    return edges, indptr


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
    lines = list(source)
    text = "\n".join(lines)
    # where each line ends in text: at its newline, or at the end
    ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1)
    ends -= 1
    del lines
    # per line, its token count and the index in text.split() of its first
    # token, from where tokens start: a non-space after a space or at 0
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)
    # str.split()'s whitespace, one code point at a time
    space = np.char.isspace(code.view("<U1"))
    starts = np.flatnonzero(~space & np.append(True, space)[:-1])
    count = np.bincount(np.searchsorted(ends, starts), minlength=len(ends))
    first = np.cumsum(count) - count
    comment = count > 0
    comment[comment] = code[starts[first[comment]]] == ord("#")
    bad = np.flatnonzero((count == 1) & ~comment)
    if len(bad):
        k = bad[0]
        stripped = text[ends[k - 1] + 1 if k else 0:ends[k]].strip()
        raise GraphError(f"malformed interaction at line {k + 1}: "
                         f"{stripped!r}")
    first = first[(count >= 2) & ~comment]
    if not len(first):
        raise GraphError("no interactions")
    # every token at once is most of the memory this parse takes, so the
    # arrays before and after it are not kept alongside it
    del code, space, starts
    tokens = np.array(text.split(), dtype=object)
    user_ids, users = first_seen_index(tokens[first])
    item_ids, items = first_seen_index(tokens[first + 1])
    del text, tokens
    # distinct pairs by sorted u*I+i keys; np.unique's hash path is ~40x
    # slower than this sort on 300k int64 keys
    keys = np.sort(users * len(item_ids) + items)
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    edges = np.column_stack([keys // len(item_ids), keys % len(item_ids)])
    return BipartiteGraph.from_edge_array(edges, user_ids, item_ids)


def first_seen_index(tokens):
    """The distinct tokens in order of first appearance, and each token's
    index among them."""
    ids = list(dict.fromkeys(tokens))
    index = dict(zip(ids, range(len(ids))))
    return ids, np.fromiter(map(index.__getitem__, tokens), np.int64,
                            len(tokens))


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
    co-neighbors. Nodes of degree 0 stay, with no pairs. The size is not
    bounded here; ``compute_vector`` checks ``PROJECTION_EDGE_CAP``.
    """
    if partition not in ("user", "item"):
        raise ValueError(f"unknown partition {partition!r}")
    R = g.to_sparse()
    if partition == "item":
        R = R.T.tocsr()
    # the upper triangle's rows, each sorted by column, list the pairs in
    # (v, w) order
    P = sp.triu(R @ R.T, k=1, format="csr")
    P.sort_indices()
    v = np.repeat(np.arange(R.shape[0], dtype=np.int64), np.diff(P.indptr))
    w = P.indices.astype(np.int64)
    wt = P.data
    degrees = (np.bincount(v, minlength=R.shape[0])
               + np.bincount(w, minlength=R.shape[0]))
    return ProjectedGraph(n=R.shape[0], v=v, w=w, weight=wt, degrees=degrees)
