"""Spectrum-transformed recommender on top of a truncated SVD.

Embeddings are fixed singular-vector features, rescaled per component by
exp(a1 * singular value) and mapped through a single trainable linear
transform. The interaction matrix is normalized with an additive degree
damping a2 that bounds the top singular value by d_max / (d_max + a2).
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .base import (Adam, TrainedModel, bpr_loss_and_coeff,
                   sample_negative_items, train_loop)
from .svd import randomized_subspace_svd


def normalized_interactions(edges, num_users, num_items, a2):
    """Sparse R~ with entries 1 / sqrt((sigma_u + a2) * (sigma_i + a2))."""
    deg_u = np.bincount(edges[:, 0], minlength=num_users).astype(np.float64)
    deg_i = np.bincount(edges[:, 1], minlength=num_items).astype(np.float64)
    vals = 1.0 / np.sqrt((deg_u[edges[:, 0]] + a2) * (deg_i[edges[:, 1]] + a2))
    return sp.csr_matrix((vals, (edges[:, 0], edges[:, 1])),
                         shape=(num_users, num_items))


def cooccurrence_pairs(edges, num_users, num_items):
    """Distinct user-user and item-item pairs sharing at least one train
    interaction, each as an (n, 2) array with first index < second."""
    R = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                      shape=(num_users, num_items))
    pairs = []
    for M in (R @ R.T, R.T @ R):
        C = sp.triu(M.tocsr(), k=1).tocoo()
        pairs.append(np.column_stack([C.row, C.col]).astype(np.int64))
    return pairs[0], pairs[1]


class SvdGcnTrainer:
    def __init__(self, split, cfg, rng):
        self.split = split
        self.cfg = cfg
        self.rng = rng
        g = split.graph
        self.num_users = g.num_users
        self.num_items = g.num_items
        edges = split.train_edges
        rank = min(cfg.svd_rank, g.num_users, g.num_items)
        Rn = normalized_interactions(edges, g.num_users, g.num_items, cfg.a2)
        P, s, Q = randomized_subspace_svd(Rn, rank, rng=rng)
        scale = np.exp(cfg.a1 * s)
        self.Fu = P * scale
        self.Fi = Q * scale
        self.singular_values = s
        self.rank = rank
        self.W = rng.normal(0.0, 0.1, size=(rank, cfg.embedding_dim))
        self.adam = Adam(self.W.shape, cfg.learning_rate)
        self.user_pairs, self.item_pairs = cooccurrence_pairs(
            edges, g.num_users, g.num_items)

    def _pair_grads(self, pairs, F, num_nodes, n, G):
        """Sigmoid losses pulling co-occurring same-partition nodes together
        and pushing each sampled node away from a uniform random one.
        Gradients accumulate into G (same shape as F); returns the loss."""
        if len(pairs) == 0 or n == 0:
            return 0.0
        sel = pairs[self.rng.integers(len(pairs), size=n)]
        ea = F[sel[:, 0]] @ self.W
        eb = F[sel[:, 1]] @ self.W
        s_pos = (ea * eb).sum(axis=1)
        loss = float(np.logaddexp(0.0, -s_pos).sum()) / n
        c = -expit(-s_pos) / n
        np.add.at(G, sel[:, 0], c[:, None] * eb)
        np.add.at(G, sel[:, 1], c[:, None] * ea)
        negs = self.rng.integers(num_nodes, size=n)
        en = F[negs] @ self.W
        s_neg = (ea * en).sum(axis=1)
        loss += float(np.logaddexp(0.0, s_neg).sum()) / n
        cn = expit(s_neg) / n
        np.add.at(G, sel[:, 0], cn[:, None] * en)
        np.add.at(G, negs, cn[:, None] * ea)
        return loss

    def run_epoch(self, epoch):
        cfg = self.cfg
        edges = self.split.train_edges
        order = self.rng.permutation(len(edges))
        total, count = 0.0, 0
        for start in range(0, len(edges), cfg.batch_size):
            batch = edges[order[start:start + cfg.batch_size]]
            users, pos = batch[:, 0], batch[:, 1]
            negs = sample_negative_items(self.rng, users, self.split,
                                         self.num_items)
            Eu = self.Fu @ self.W
            Ei = self.Fi @ self.W
            eu, ei, ej = Eu[users], Ei[pos], Ei[negs]
            loss, coeff = bpr_loss_and_coeff(eu, ei, ej, len(batch))
            Gu = np.zeros_like(Eu)
            Gi = np.zeros_like(Ei)
            np.add.at(Gu, users, coeff[:, None] * (ei - ej))
            np.add.at(Gi, pos, coeff[:, None] * eu)
            np.add.at(Gi, negs, -coeff[:, None] * eu)
            loss += self._pair_grads(self.user_pairs, self.Fu,
                                     self.num_users, len(batch), Gu)
            loss += self._pair_grads(self.item_pairs, self.Fi,
                                     self.num_items, len(batch), Gi)
            grad_w = self.Fu.T @ Gu + self.Fi.T @ Gi + cfg.l2_weight * self.W
            self.adam.step(self.W, grad_w)
            total += loss * len(batch)
            count += len(batch)
        return total / max(count, 1)

    def materialize(self):
        return TrainedModel(user_embeddings=self.Fu @ self.W,
                            item_embeddings=self.Fi @ self.W,
                            config=self.cfg,
                            extras={"singular_values": self.singular_values.copy(),
                                    "svd_rank_used": self.rank,
                                    "transform": self.W.copy()})

    def params_copy(self):
        return (self.W.copy(), copy.deepcopy(self.adam))

    def set_params(self, params):
        self.W = params[0].copy()
        self.adam = copy.deepcopy(params[1])


def train_svdgcn(split, cfg, rng):
    if cfg.kind != "svdgcn":
        raise ValueError(f"config kind {cfg.kind!r} is not svdgcn")
    rng = np.random.default_rng(rng)
    trainer = SvdGcnTrainer(split, cfg, rng)
    return train_loop(trainer, split, cfg)
