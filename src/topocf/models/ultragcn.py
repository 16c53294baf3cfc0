"""Infinite-layer approximation trained with degree-weighted sigmoid losses.

No explicit propagation: the objective weights each positive/negative
user-item pair by a degree-derived coefficient, and adds an item-item term
over each positive item's top-k weighted co-occurrence neighbors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .base import softplus


def beta_coefficient(deg_u, deg_i):
    """Constraint-loss weight (1/sigma_u) * sqrt((sigma_u+1)/(sigma_i+1))."""
    deg_u = np.asarray(deg_u, dtype=np.float64)
    deg_i = np.asarray(deg_i, dtype=np.float64)
    return (1.0 / deg_u) * np.sqrt((deg_u + 1.0) / (deg_i + 1.0))


def item_cooccurrence_topk(split, k):
    """Per-item top-k co-occurrence neighbors and their omega weights.

    Built from the train interactions only. For item i with weighted
    co-occurrence row sum sigma_i (diagonal included), neighbor j gets
    omega = (w_ij / (sigma_i - w_ii)) * sqrt(sigma_i / sigma_j); items with
    no off-diagonal co-occurrence mass are skipped and counted. Neighbors
    are ordered by weight descending, then index ascending.
    """
    g = split.graph
    edges = split.train_edges
    R = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                      shape=(g.num_users, g.num_items))
    RI = (R.T @ R).tocoo()
    sigma = np.asarray(RI.sum(axis=1)).ravel()
    denom = sigma - RI.diagonal()

    off = RI.row != RI.col
    row, col, dat = RI.row[off], RI.col[off], RI.data[off]
    order = np.lexsort((col, -dat, row))
    row, col, dat = row[order], col[order], dat[order]
    per_row = np.bincount(row, minlength=g.num_items)
    rank = np.arange(len(row)) - (np.cumsum(per_row) - per_row)[row]
    keep = rank < k
    row, col, dat, rank = row[keep], col[keep], dat[keep], rank[keep]

    neighbors = np.zeros((g.num_items, k), dtype=np.int64)
    omega = np.zeros((g.num_items, k))
    mask = np.zeros((g.num_items, k), dtype=bool)
    neighbors[row, rank] = col
    omega[row, rank] = (dat / denom[row]) * np.sqrt(sigma[row] / sigma[col])
    mask[row, rank] = True
    skipped = int(np.count_nonzero((per_row == 0) & (sigma > 0)))
    return neighbors, omega, mask, skipped


class UltraGCN:
    """User and item embeddings stacked as P = [Eu; Ei] and scored directly,
    so forward and backward are the identity."""

    def __init__(self, split, cfg):
        self.cfg = cfg
        self.num_users = split.graph.num_users
        self.num_items = split.graph.num_items
        self.deg_u = np.maximum(split.train_user_degrees, 1).astype(np.float64)
        self.deg_i = split.train_item_degrees.astype(np.float64)
        self.neighbors, self.omega, self.nb_mask, self.skipped_items = \
            item_cooccurrence_topk(split, cfg.item_topk)

    def init_params(self, rng):
        return rng.normal(0.0, 0.1, size=(self.num_users + self.num_items,
                                          self.cfg.embedding_dim))

    def forward(self, P):
        return P

    def backward(self, G):
        return G

    def batch_pairs(self, rng, batch, split, E):
        """Weighted positive, uniform negative and item-neighbor constraint
        losses, all over (user, item) pairs."""
        cfg = self.cfg
        users, pos = batch[:, 0], batch[:, 1]
        B = len(batch)
        Ei = E[self.num_users:]
        eu = E[users]

        s_pos = (eu * Ei[pos]).sum(axis=1)
        w_pos = beta_coefficient(self.deg_u[users], self.deg_i[pos])
        loss = float((w_pos * softplus(-s_pos)).sum())
        c_pos = -w_pos * expit(-s_pos) / B

        negs = rng.integers(self.num_items, size=(B, cfg.negatives))
        w_neg = beta_coefficient(self.deg_u[users][:, None], self.deg_i[negs])
        # Scores against every item, then picks the drawn ones: gathering
        # Ei[negs] instead is B x negatives x d doubles (39 MB at 256 x 300 x
        # 64), while eu @ Ei.T is B x I doubles and one BLAS product whose
        # time grows with I; the two take about as long at ~20k items.
        s_neg = np.take_along_axis(eu @ Ei.T, negs, axis=1)
        loss += float((w_neg * softplus(s_neg)).sum()) / cfg.negatives
        c_neg = w_neg * expit(s_neg) / (B * cfg.negatives)

        nb = self.neighbors[pos]
        om = self.omega[pos] * self.nb_mask[pos]
        s_ii = np.einsum("bd,bkd->bk", eu, Ei[nb])
        loss += cfg.item_loss_weight * float((om * softplus(-s_ii)).sum())
        c_ii = -cfg.item_loss_weight * om * expit(-s_ii) / B

        return loss / B, [
            (users, self.num_users + pos, c_pos),
            (np.repeat(users, cfg.negatives), self.num_users + negs.ravel(),
             c_neg.ravel()),
            (np.repeat(users, nb.shape[1]), self.num_users + nb.ravel(),
             c_ii.ravel()),
        ]

    def extras(self, P):
        return {"skipped_items": self.skipped_items}
