"""Linear message-passing recommender without transforms or nonlinearities."""

from __future__ import annotations

import numpy as np

from ..csr import from_coo
from .base import PropagationModel


def normalized_operator(edges, weights, num_users, num_items):
    """Symmetric operator over combined (users then items) node indices,
    with each edge weight divided by sqrt of both endpoints' weighted
    degrees. Zero-degree rows stay zero."""
    n = num_users + num_items
    rows = np.concatenate([edges[:, 0], num_users + edges[:, 1]])
    cols = np.concatenate([num_users + edges[:, 1], edges[:, 0]])
    data = np.concatenate([weights, weights]).astype(np.float64)
    inv_sqrt = inverse_sqrt(np.bincount(rows, weights=data, minlength=n))
    vals = data * inv_sqrt[rows] * inv_sqrt[cols]
    return from_coo(rows, cols, vals, (n, n))


def inverse_sqrt(deg, out=None, positive=None):
    """1 / sqrt(deg), and 0 where deg is 0. Written into ``out``, with
    ``positive`` (a bool array) receiving deg > 0, when they are given."""
    positive = np.greater(deg, 0, out=positive)
    out = np.empty(deg.shape) if out is None else out
    out.fill(0)
    np.sqrt(deg, out=out, where=positive)
    return np.divide(1.0, out, out=out, where=positive)


class LightGCNPropagator(PropagationModel):
    """Mean of layer-0..L embeddings under the fixed normalized adjacency
    A, one chunk per node: every layer's operator is A."""

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        edges = split.train.edge_array()
        self.A = normalized_operator(edges, np.ones(len(edges)),
                                     self.num_users, self.num_items)

    def layer_operator(self, layer, X, Y):
        return self.A
