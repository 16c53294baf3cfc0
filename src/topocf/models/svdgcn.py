"""Spectrum-transformed recommender on top of a truncated SVD.

Embeddings are fixed singular-vector features, rescaled per component by
exp(a1 * singular value) and mapped through a single trainable linear
transform. The interaction matrix is normalized with an additive degree
damping a2 that bounds the top singular value by d_max / (d_max + a2).
The user-user and item-item pair losses draw from the train graph's
co-occurring pairs, read from ``graph.project`` as the characteristics are.
E, the batch's gathered rows and the pair gradient live in model buffers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..graph import project
from .base import (EmbeddingModel, bpr_pairs, normal_init, pair_gradient,
                   sample_negative_items, softplus, take_rows)
from .svd import randomized_subspace_svd


def normalized_interactions(g, a2):
    """Sparse R~ with entries 1 / sqrt((sigma_u + a2) * (sigma_i + a2))."""
    R = g.to_sparse()
    deg_u, deg_i = g.user_degrees, g.item_degrees
    R.data = 1.0 / np.sqrt((np.repeat(deg_u, deg_u) + a2)
                           * (deg_i[R.indices] + a2))
    return R


class SvdGcn(EmbeddingModel):
    """Node embeddings F @ W for the fixed spectral features F = [Fu; Fi]
    (users, then items) and the trainable transform P = W."""

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        g = split.train
        self.rank = min(cfg.svd_rank, g.num_users, g.num_items)
        # distinct co-occurring pairs (v, w), v < w, in (v, w) order
        users, items = project(g, "user"), project(g, "item")
        self.user_pairs = np.column_stack([users.v, users.w])
        self.item_pairs = np.column_stack([items.v, items.w])
        self.Rn = normalized_interactions(g, cfg.a2)

    def init_params(self, rng):
        """The truncated SVD that fixes F (ARPACK, seeded from ``rng``),
        then the draw of W."""
        P, s, Q = randomized_subspace_svd(self.Rn, self.rank, rng=rng)
        self.F = np.vstack([P, Q]) * np.exp(self.cfg.a1 * s)
        self.singular_values = s
        return normal_init(rng, self.rank, self.cfg.embedding_dim)

    def forward(self, W):
        """E, as a view of a model buffer that is valid until the next
        ``forward`` or ``backward``."""
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
        for pairs, offset, size in ((self.user_pairs, 0, self.num_users),
                                    (self.item_pairs, self.num_users,
                                     self.num_items)):
            if len(pairs) == 0:
                continue
            sel = offset + pairs[rng.integers(len(pairs), size=n)]
            others = offset + rng.integers(size, size=n)
            ea, eb = (take_rows(E, index, out) for index, out in
                      zip((sel[:, 0], sel[:, 1]), gathers))
            s_pos = np.multiply(ea, eb, out=eb).sum(axis=1)
            en = take_rows(E, others, eb)
            s_neg = np.multiply(ea, en, out=en).sum(axis=1)
            loss += (float(softplus(-s_pos).sum()) / n
                     + float(softplus(s_neg).sum()) / n)
            terms += [(sel[:, 0], sel[:, 1], -expit(-s_pos) / n),
                      (sel[:, 0], others, expit(s_neg) / n)]
        return loss, pair_gradient(terms, E, self.pair_tables(E))

    def pair_tables(self, E):
        return self.table(1, E.shape), self.table(2, E.shape)

    def extras(self, P):
        return {"singular_values": self.singular_values.copy(),
                "svd_rank_used": self.rank,
                "transform": P.copy()}
