"""Train/validation/test edge splits with the 80/20 then 90/10 protocol."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from ..graph import BipartiteGraph
from ..sampling import round_half_up


class SplitError(Exception):
    pass


@dataclass
class Split:
    """Train, validation and test parts of one graph's edges.

    Each part is a :class:`BipartiteGraph` over all of ``graph``'s users
    and items, built from that part's (E, 2) ``(user, item)`` edges, given
    in any order; a node with no edge in a part stays in it with degree 0.
    ``train_keys`` holds the sorted ``user * num_items + item`` keys of the
    train edges, closed by a sentinel above any key so that every search
    lands on a valid position.
    """

    graph: object
    train_edges: InitVar[np.ndarray]
    valid_edges: InitVar[np.ndarray]
    test_edges: InitVar[np.ndarray]
    train: BipartiteGraph = field(init=False)
    valid: BipartiteGraph = field(init=False)
    test: BipartiteGraph = field(init=False)
    train_keys: np.ndarray = field(init=False)
    test_users: np.ndarray = field(init=False)
    valid_users: np.ndarray = field(init=False)

    def __post_init__(self, train_edges, valid_edges, test_edges):
        g = self.graph
        self.train, self.valid, self.test = (
            BipartiteGraph.from_edge_array(edges, g.user_ids, g.item_ids)
            for edges in (train_edges, valid_edges, test_edges))
        edges = self.train.edge_array()
        self.train_keys = np.append(edges[:, 0] * g.num_items + edges[:, 1],
                                    np.iinfo(np.int64).max)
        # users with no train edge cannot be learned and are not evaluated
        has_train = self.train.user_degrees > 0
        self.test_users = np.flatnonzero(has_train
                                         & (self.test.user_degrees > 0))
        self.valid_users = np.flatnonzero(has_train
                                          & (self.valid.user_degrees > 0))


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
    return Split(graph=g, train_edges=edges[train_idx],
                 valid_edges=edges[valid_idx], test_edges=edges[test_idx])
