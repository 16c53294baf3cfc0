"""Spectrum-transformed recommender on top of a truncated SVD.

Embeddings are fixed singular-vector features, rescaled per component by
exp(a1 * singular value) and mapped through a single trainable linear
transform. The features come from ``models.svd``'s numpy Lanczos solver
with each pair's sign fixed, so the data and the seed set them. The
interaction matrix is normalized with an additive degree damping a2 that
bounds the top singular value by d_max / (d_max + a2).
The user-user and item-item pair losses draw from the train graph's
co-occurring pairs, read from ``graph.project`` as the characteristics are.
E, the batch's gathered rows and the pair gradient live in model buffers.
"""

from __future__ import annotations

import numpy as np

from ..graph import project
from . import base
from .base import (EmbeddingModel, bpr_pairs, normal_init, pair_gradient,
                   sample_negative_items, sigmoid, softplus, take_rows)
from .svd import randomized_subspace_svd


def normalized_interactions(g, a2):
    """Sparse R~ with entries 1 / sqrt((sigma_u + a2) * (sigma_i + a2))."""
    deg_u, deg_i = g.user_degrees, g.item_degrees
    return g.to_sparse(1.0 / np.sqrt((np.repeat(deg_u, deg_u) + a2)
                                     * (deg_i[g.indices] + a2)))


class SvdGcn(EmbeddingModel):
    """Node embeddings F @ W for the fixed spectral features F = [Fu; Fi]
    (users, then items) and the trainable transform P = W."""

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        g = split.train
        self.rank = min(cfg.svd_rank, g.num_users, g.num_items)
        # distinct co-occurring pairs (v[t], w[t]), v < w, in (v, w) order
        users, items = project(g, "user"), project(g, "item")
        self.user_pairs = (users.v, users.w)
        self.item_pairs = (items.v, items.w)
        self.Rn = normalized_interactions(g, cfg.a2)

    def init_params(self, rng):
        """The draw of W, then the truncated SVD that fixes F (seeded from
        ``rng``), so that W does not depend on how many numbers the solver
        draws."""
        W = normal_init(rng, self.rank, self.cfg.embedding_dim)
        svd = randomized_subspace_svd(self.Rn, self.rank, rng=rng)
        P, s, Q = svd
        # the SVD runs in float64; each product is cast as it is written,
        # so no float64 copy of F is built
        scale = np.exp(self.cfg.a1 * s)
        self.F = np.empty((len(P) + len(Q), len(s)), base.DTYPE)
        np.multiply(P, scale, out=self.F[:len(P)])
        np.multiply(Q, scale, out=self.F[len(P):])
        self.singular_values = s
        self.svd_restarts = svd.restarts
        self.svd_max_residual = svd.max_residual
        return W

    def forward(self, W):
        """E, in the first of ``propagation_tables`` (so ``pair_tables``
        are the other two), valid until the next ``forward``."""
        return np.matmul(self.F, W, out=self.table(0, (len(self.F),
                                                       W.shape[1])))

    def backward(self, G):
        return self.F.T @ G

    def batch_gradient(self, rng, batch, split, E):
        """BPR, plus per partition sigmoid losses pulling co-occurring node
        pairs together and pushing each pair's first node away from a
        uniform random node of its partition."""
        users, pos = batch[:, 0], batch[:, 1]
        negs = sample_negative_items(rng, users, split)
        n = len(batch)
        gathers = self.gathers(E, n)
        loss, terms = bpr_pairs(users, pos, negs, E, self.num_users, gathers)
        for (v, w), offset, size in ((self.user_pairs, 0, self.num_users),
                                     (self.item_pairs, self.num_users,
                                      self.num_items)):
            if len(v) == 0:
                continue
            draw = rng.integers(len(v), size=n)
            a, b = offset + v[draw], offset + w[draw]
            others = offset + rng.integers(size, size=n)
            ea, eb = (take_rows(E, index, out) for index, out in
                      zip((a, b), gathers))
            s_pos = np.multiply(ea, eb, out=eb).sum(axis=1)
            en = take_rows(E, others, eb)
            s_neg = np.multiply(ea, en, out=en).sum(axis=1)
            loss += (float(softplus(-s_pos).sum()) / n
                     + float(softplus(s_neg).sum()) / n)
            terms += [(a, b, -sigmoid(-s_pos) / n),
                      (a, others, sigmoid(s_neg) / n)]
        return loss, pair_gradient(terms, E, self.pair_tables(E))

    def extras(self, P):
        return {"singular_values": self.singular_values.copy(),
                "svd_rank_used": self.rank,
                "svd_restarts": self.svd_restarts,
                "svd_max_residual": self.svd_max_residual}
