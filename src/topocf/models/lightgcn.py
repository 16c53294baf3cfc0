"""Linear message-passing recommender without transforms or nonlinearities."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import PropagationModel, spare, spmm


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
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def inverse_sqrt(deg):
    """1 / sqrt(deg), and 0 where deg is 0."""
    with np.errstate(divide="ignore"):
        return np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)


class LightGCNPropagator(PropagationModel):
    """Mean of layer-0..L embeddings under the fixed normalized adjacency.

    The operator is symmetric, so the backward pass reuses it to route
    gradients on the final embeddings back to layer 0. Both passes run in
    three node x dim buffers: the layer sum and two layers in turn.
    """

    num_tables = 3

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        edges = split.train_edges
        self.A = normalized_operator(edges, np.ones(len(edges)),
                                     self.num_users, self.num_items)
        self.layers = cfg.layers

    def forward(self, E0):
        """E, as a view of a model buffer that is valid until the next
        ``forward`` or ``backward``."""
        acc, *layers = self.propagation_tables(E0.shape)
        np.copyto(acc, E0)
        X = E0
        for _ in range(self.layers):
            X = spmm(self.A, X, spare(layers, X))
            acc += X
        return np.divide(acc, self.layers + 1, out=acc)

    def backward(self, G):
        tables = self.propagation_tables(G.shape)
        B = G
        for _ in range(self.layers):
            T = spmm(self.A, B, spare(tables, G, B))
            B = np.add(G, T, out=T)
        return np.divide(B, self.layers + 1, out=spare(tables, G, B))
