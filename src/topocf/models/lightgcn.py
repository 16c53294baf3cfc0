"""Linear message-passing recommender without transforms or nonlinearities."""

from __future__ import annotations

import numpy as np

from ..csr import CSR
from . import base
from .base import PropagationModel


def normalized_operator(g):
    """LightGCN's operator over combined (users then items) node indices:
    the block matrix [[0, R~], [R~^T, 0]] for the train graph ``g``, whose
    R~ holds 1 / sqrt(d_u) * 1 / sqrt(d_i) at each edge (u, i), in the
    models' ``DTYPE``: the operations by which DGCF normalizes an intent's
    unit weights, so that the two agree bit for bit. Zero-degree rows stay
    zero. Its user rows are R~'s rows and its item rows those of R~'s
    transpose, so each row lists its columns ascending."""
    U = g.num_users
    inv_u, inv_i = (inverse_sqrt(deg.astype(base.DTYPE))
                    for deg in (g.user_degrees, g.item_degrees))
    R = g.to_sparse(np.repeat(inv_u, g.user_degrees) * inv_i[g.indices])
    indptr = np.concatenate([R.indptr, R.nnz + R.T.indptr[1:]])
    indices = np.concatenate([U + R.indices, R.T.indices])
    n = U + g.num_items
    return CSR(indptr, indices, np.concatenate([R.data, R.T.data]), (n, n))


def inverse_sqrt(deg, out=None, positive=None):
    """1 / sqrt(deg), and 0 where deg is 0, in deg's float dtype. Written
    into ``out``, with ``positive`` (a bool array) receiving deg > 0, when
    they are given."""
    positive = np.greater(deg, 0, out=positive)
    out = np.empty_like(deg) if out is None else out
    out.fill(0)
    np.sqrt(deg, out=out, where=positive)
    return np.divide(1.0, out, out=out, where=positive)


class LightGCNPropagator(PropagationModel):
    """Mean of layer-0..L embeddings under the fixed normalized adjacency
    A, one chunk per node: every layer's operator is A."""

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        self.A = normalized_operator(split.train)

    def layer_operator(self, layer, X, Y):
        return self.A
