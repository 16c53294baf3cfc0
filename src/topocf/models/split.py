"""Train/validation/test edge splits with the 80/20 then 90/10 protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph import BipartiteGraph, sort_rows
from ..sampling import round_half_up


class SplitError(Exception):
    pass


@dataclass
class Split:
    """Train/validation/test edges of one graph, each a user-side CSR.

    ``train_edges``, ``valid_edges`` and ``test_edges`` are (E, 2)
    ``(user, item)`` arrays, sorted by user then item on construction;
    ``train_indptr`` (likewise ``valid_``/``test_``) holds their row
    pointers, so user ``u``'s train items are the slice
    ``train_edges[train_indptr[u]:train_indptr[u + 1], 1]``.
    ``train`` is the train CSR as a graph over all of ``graph``'s users
    and items; those with no train edge stay in it with degree 0.
    ``train_keys`` holds the sorted ``user * num_items + item`` keys of the
    train edges, closed by a sentinel above any key so that every search
    lands on a valid position.
    """

    graph: object
    train_edges: np.ndarray
    valid_edges: np.ndarray
    test_edges: np.ndarray
    train_indptr: np.ndarray = field(init=False)
    valid_indptr: np.ndarray = field(init=False)
    test_indptr: np.ndarray = field(init=False)
    train: BipartiteGraph = field(init=False)
    train_user_degrees: np.ndarray = field(init=False)
    train_keys: np.ndarray = field(init=False)
    test_users: np.ndarray = field(init=False)
    valid_users: np.ndarray = field(init=False)

    def __post_init__(self):
        U = self.graph.num_users
        self.train_edges, self.train_indptr = sort_rows(self.train_edges, U)
        self.valid_edges, self.valid_indptr = sort_rows(self.valid_edges, U)
        self.test_edges, self.test_indptr = sort_rows(self.test_edges, U)
        self.train = BipartiteGraph(
            indptr=self.train_indptr,
            indices=np.ascontiguousarray(self.train_edges[:, 1]),
            user_ids=self.graph.user_ids, item_ids=self.graph.item_ids)
        self.train_user_degrees = self.train.user_degrees
        self.train_keys = np.append(
            self.train_edges[:, 0] * self.graph.num_items
            + self.train_edges[:, 1], np.iinfo(np.int64).max)
        # users with no train edge cannot be learned and are not evaluated
        has_train = self.train_user_degrees > 0
        has_valid = np.diff(self.valid_indptr) > 0
        has_test = np.diff(self.test_indptr) > 0
        self.test_users = np.flatnonzero(has_train & has_test)
        self.valid_users = np.flatnonzero(has_train & has_valid)


def split_dataset(g, rng):
    """Uniform random edge split: 20% test, then 10% of the remainder as
    validation, rest train."""
    edges = g.edge_array()
    E = len(edges)
    if E < 10:
        raise SplitError(f"need at least 10 edges to split, got {E}")
    perm = rng.permutation(E)
    n_test = round_half_up(0.2 * E)
    test_idx = perm[:n_test]
    rest = perm[n_test:]
    n_valid = round_half_up(0.1 * len(rest))
    valid_idx = rest[:n_valid]
    train_idx = rest[n_valid:]
    if n_test == 0:
        raise SplitError("empty test set")
    return Split(graph=g,
                 train_edges=edges[np.sort(train_idx)],
                 valid_edges=edges[np.sort(valid_idx)],
                 test_edges=edges[np.sort(test_idx)])
