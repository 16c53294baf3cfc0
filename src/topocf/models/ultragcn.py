"""Infinite-layer approximation trained with degree-weighted sigmoid losses.

No explicit propagation: the objective weights each positive/negative
user-item pair by a degree-derived coefficient, and adds an item-item term
over each positive item's top-k weighted co-occurrence neighbors, read
from ``graph.project`` on the train graph as the characteristics are.
"""

from __future__ import annotations

import numpy as np

from ..csr import scatter_add
from ..graph import project
from . import base
from .base import EmbeddingModel, take_rows


def beta_factors(deg_u, deg_i):
    """Per-node factors a, r of the constraint-loss weight
    beta(u, i) = (1/sigma_u) * sqrt((sigma_u+1)/(sigma_i+1)) = a[u] * r[i]:
    a = sqrt(sigma_u+1)/sigma_u and r = 1/sqrt(sigma_i+1)."""
    deg_u = np.asarray(deg_u, dtype=np.float64)
    deg_i = np.asarray(deg_i, dtype=np.float64)
    return np.sqrt(deg_u + 1.0) / deg_u, 1.0 / np.sqrt(deg_i + 1.0)


def item_cooccurrence_topk(split, k):
    """Per-item top-k co-occurrence neighbors and their omega weights.

    Built from the train interactions only. For item i with weighted
    co-occurrence row sum sigma_i (diagonal included), neighbor j gets
    omega = (w_ij / (sigma_i - w_ii)) * sqrt(sigma_i / sigma_j); items with
    no off-diagonal co-occurrence mass are skipped and counted. Neighbors
    are ordered by weight descending, then index ascending. An empty slot
    holds item 0 with omega 0; a filled one has omega > 0 (w_ij >= 1).

    The w_ij are the item projection's counts, taken both ways; row i of
    R^T.R sums deg(u) over the users u of item i, so sigma_i is that sum
    and w_ii = deg(i), exact integers in float64.
    """
    g = split.train
    proj = project(g, "item")
    row = np.concatenate([proj.v, proj.w])
    col = np.concatenate([proj.w, proj.v])
    dat = np.concatenate([proj.weight, proj.weight])
    per_row = proj.degrees
    del proj  # its pair arrays, before the sort allocates
    deg_u = g.user_degrees
    sigma = np.bincount(g.indices, weights=np.repeat(deg_u, deg_u),
                        minlength=g.num_items)
    denom = sigma - g.item_degrees

    # row i holds per_row[i] entries, its projection degree, so in sorted
    # order they start at the sum of the degrees before it
    order = np.lexsort((col, -dat, row))
    rank = np.arange(len(order)) - np.repeat(np.cumsum(per_row) - per_row,
                                             per_row)
    keep = rank < k
    kept, rank = order[keep], rank[keep]
    row, col, dat = row[kept], col[kept], dat[kept]

    neighbors = np.zeros((g.num_items, k), dtype=np.int64)
    omega = np.zeros((g.num_items, k))
    neighbors[row, rank] = col
    omega[row, rank] = (dat / denom[row]) * np.sqrt(sigma[row] / sigma[col])
    skipped = int(np.count_nonzero((per_row == 0) & (sigma > 0)))
    return neighbors, omega, skipped


class UltraGCN(EmbeddingModel):
    """User and item embeddings stacked as P = [Eu; Ei] and scored directly,
    so forward and backward are the identity.

    A batch's r distinct users (r <= batch size) are scored against every
    item as one r x I block S = Eu[rows] @ Ei.T of the models' ``DTYPE``.
    Its positive, negative and item-neighbor pairs read their scores from
    S, then add their loss slopes into the same block, now D, so the
    gradient is D @ Ei for those users and D.T @ Eu[rows] for the items.
    The block is used at every catalogue size, with no switch to a sparse
    path; at float32 it takes r * I * 4 bytes, at most 0.48 MB on the
    samples of a 12k-edge graph.
    It, the gradient and the batch-by-pair work arrays are model buffers,
    sized by the batch, not by r, and reused until ``release``.
    """

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        # the weights are taken in float64 and cast once
        self.a, self.r = (x.astype(base.DTYPE) for x in beta_factors(
            np.maximum(split.train.user_degrees, 1),
            split.train.item_degrees))
        self.neighbors, omega, self.skipped_items = \
            item_cooccurrence_topk(split, cfg.item_topk)
        self.omega = omega.astype(base.DTYPE)

    def forward(self, P):
        return P

    def backward(self, G):
        return G

    def batch_gradient(self, rng, batch, split, E):
        """Weighted positive, uniform negative and item-neighbor constraint
        losses, all over (user, item) pairs. Row b of the pair arrays holds
        batch edge b's negatives, then its positive, then its positive's
        neighbors."""
        N, I = self.cfg.negatives, self.num_items
        users, pos = batch[:, 0], batch[:, 1]
        B = len(batch)
        negs = rng.integers(I, size=(B, N))
        # requested after the negatives, so that the first batch allocates
        # them above the negatives' block, which every batch then draws
        # into again instead of growing the heap
        width = N + 1 + self.neighbors.shape[1]
        J = self.table("J", (B, width), np.int64)
        W, Z, T = (self.table(key, (B, width)) for key in "WZT")
        J[:, :N] = negs
        rows, inv = np.unique(users, return_inverse=True)
        S = self.table("S", (B, I))[:len(rows)]
        Eu, Gu = (self.table(key, (B, E.shape[1]))[:len(rows)]
                  for key in ("Eu", "Gu"))
        G = self.table("G", E.shape)
        Ei = E[self.num_users:]
        take_rows(E, rows, Eu)
        np.matmul(Eu, Ei.T, out=S)

        # pair weights: beta(u, i) / (B * N), beta(u, i) / B, lambda omega / B
        J[:, N] = pos
        J[:, N + 1:] = self.neighbors[pos]
        np.take(self.r, J, out=W, mode="clip")
        au = self.a[users]
        W[:, :N] *= (au / (B * N))[:, None]
        W[:, N] *= au / B
        np.multiply(self.omega[pos], self.cfg.item_loss_weight / B,
                    out=W[:, N + 1:])

        # J -> flat indices into S; Z = score for negatives, -score otherwise
        J += (inv * I)[:, None]
        np.take(S.ravel(), J, out=Z, mode="clip")
        np.negative(Z[:, N:], out=Z[:, N:])
        # loss sum(W * softplus(Z)), in two passes through T: softplus(Z)
        # itself would allocate two more blocks of this size
        loss = float(np.vdot(W, np.maximum(Z, 0, out=T)))
        np.negative(np.abs(Z, out=T), out=T)
        loss += float(np.vdot(W, np.log1p(np.exp(T, out=T), out=T)))
        # slope in each score: W * sigmoid(Z), negated where Z = -score
        np.negative(Z, out=T)
        with np.errstate(over="ignore"):  # Z < -709: exp is inf, sigmoid 0
            np.exp(T, out=T)
        T += 1.0
        np.divide(W, T, out=T)
        np.negative(T[:, N:], out=T[:, N:])

        # D: S's block zeroed, then every slope added at its flat index in
        # pair order, the sum np.bincount makes, but in place
        S.fill(0.0)
        scatter_add(S, J, T)
        G[:self.num_users] = 0.0
        G[rows] = np.matmul(S, Ei, out=Gu)
        np.matmul(S.T, Eu, out=G[self.num_users:])
        return loss, G

    def extras(self, P):
        return {"skipped_items": self.skipped_items}
