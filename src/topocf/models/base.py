"""Shared training machinery: configs, optimizer, ranking, early stopping."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from ..evaluation import evaluate


MODEL_KINDS = ("lightgcn", "dgcf", "ultragcn", "svdgcn")


class TrainingDivergedError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    embedding_dim: int = 64
    layers: int = 3                 # LightGCN / DGCF propagation depth
    intents: int = 4                # DGCF
    routing_iterations: int = 2     # DGCF
    negatives: int = 1              # negatives per positive
    item_topk: int = 10             # UltraGCN co-occurrence neighbors
    item_loss_weight: float = 1.0   # UltraGCN lambda_I
    svd_rank: int = 64              # SVD-GCN
    a1: float = 1.0                 # SVD-GCN spectrum sharpening
    a2: float = 2.0                 # SVD-GCN degree damping
    learning_rate: float = 1e-3
    l2_weight: float = 1e-4
    batch_size: int = 1024
    max_epochs: int = 200
    patience: int = 5
    eval_interval: int = 5


def default_config(kind, **overrides):
    """Desk-scale defaults per model kind."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cfg = ModelConfig(kind=kind)
    if kind == "ultragcn":
        cfg = replace(cfg, negatives=300, batch_size=256)
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class TrainedModel:
    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    config: ModelConfig
    extras: dict = field(default_factory=dict)
    epochs_trained: int = 0
    stopped_early: bool = False


class Adam:
    """Adaptive-moment estimation with the standard defaults."""

    def __init__(self, shape, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, param, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def rank_items(model, split, u, k, phase="test"):
    """Top-k items for user u by dot product, excluding the user's train
    (and, at test time, validation) items; ties break by item index."""
    scores = model.item_embeddings @ model.user_embeddings[u]
    candidates = np.ones(len(scores), dtype=bool)
    candidates[split.train_items(u)] = False
    if phase == "test":
        candidates[split.valid_items(u)] = False
    cand_idx = np.flatnonzero(candidates)
    order = np.argsort(-scores[cand_idx], kind="stable")
    return cand_idx[order][:k]


def sample_negative_items(rng, users, split, num_items):
    """One uniform negative per row, resampled on collision with the
    user's train positives (skipped for users with a full positive set)."""
    # sorted u*I+i keys of the train edges, closed by a sentinel above any
    # key so that every search lands on a valid position
    keys = np.append(split.train_edges[:, 0] * num_items
                     + split.train_edges[:, 1], np.iinfo(np.int64).max)
    negs = rng.integers(num_items, size=len(users))

    def collides(rows):
        wanted = users[rows] * num_items + negs[rows]
        return keys[np.searchsorted(keys, wanted)] == wanted

    idx = np.flatnonzero(split.train_user_degrees[users] < num_items)
    idx = idx[collides(idx)]
    while len(idx):
        negs[idx] = rng.integers(num_items, size=len(idx))
        idx = idx[collides(idx)]
    return negs


def bpr_loss_and_coeff(eu, ei, ej, batch_size):
    """Sampled pairwise ranking loss -log sigmoid(s+ - s-) and d/ds of its
    batch mean."""
    s = (eu * (ei - ej)).sum(axis=1)
    loss = float(np.logaddexp(0.0, -s).mean())
    coeff = -expit(-s) / batch_size
    return loss, coeff


def train_loop(trainer, split, cfg):
    """Generic epoch loop with early stopping on validation Recall@20.

    The trainer owns all mutable state and exposes run_epoch/materialize
    plus parameter snapshot/restore used to keep the best checkpoint.
    """
    best_recall = -np.inf
    best_params = None
    bad_evals = 0
    stopped_early = False
    epochs_trained = 0
    can_validate = len(split.valid_users) > 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss = trainer.run_epoch(epoch)
        epochs_trained = epoch
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"diverged at epoch {epoch}")
        if can_validate and epoch % cfg.eval_interval == 0:
            result = evaluate(trainer.materialize(), split, k=20, phase="valid")
            if result.recall > best_recall + 1e-12:
                best_recall = result.recall
                best_params = trainer.params_copy()
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= cfg.patience:
                    stopped_early = True
                    break
    if best_params is not None:
        trainer.set_params(best_params)
    model = trainer.materialize()
    model.epochs_trained = epochs_trained
    model.stopped_early = stopped_early
    return model


class PropagationTrainer:
    """BPR trainer for models whose embeddings are a linear propagation of
    the layer-0 matrix (LightGCN, DGCF). L2 applies to layer-0 embeddings;
    the propagation adjoint routes ranking gradients back to layer 0."""

    def __init__(self, split, cfg, rng, propagator):
        self.split = split
        self.cfg = cfg
        self.rng = rng
        self.propagator = propagator
        g = split.graph
        self.num_users = g.num_users
        self.num_items = g.num_items
        self.E0 = rng.normal(0.0, 0.1,
                             size=(self.num_users + self.num_items,
                                   cfg.embedding_dim))
        self.adam = Adam(self.E0.shape, cfg.learning_rate)
        self.train_edges = split.train_edges

    def run_epoch(self, epoch):
        cfg = self.cfg
        edges = self.train_edges
        order = self.rng.permutation(len(edges))
        total, count = 0.0, 0
        for start in range(0, len(edges), cfg.batch_size):
            batch = edges[order[start:start + cfg.batch_size]]
            users, pos = batch[:, 0], batch[:, 1]
            negs = sample_negative_items(self.rng, users, self.split,
                                         self.num_items)
            final = self.propagator.forward(self.E0)
            eu = final[users]
            ei = final[self.num_users + pos]
            ej = final[self.num_users + negs]
            loss, coeff = bpr_loss_and_coeff(eu, ei, ej, len(batch))
            grad_final = np.zeros_like(final)
            np.add.at(grad_final, users, coeff[:, None] * (ei - ej))
            np.add.at(grad_final, self.num_users + pos, coeff[:, None] * eu)
            np.add.at(grad_final, self.num_users + negs, -coeff[:, None] * eu)
            grad0 = self.propagator.backward(grad_final)
            grad0 += cfg.l2_weight * self.E0
            self.adam.step(self.E0, grad0)
            total += loss * len(batch)
            count += len(batch)
        return total / max(count, 1)

    def materialize(self):
        final = self.propagator.forward(self.E0)
        return TrainedModel(user_embeddings=final[:self.num_users].copy(),
                            item_embeddings=final[self.num_users:].copy(),
                            config=self.cfg,
                            extras=dict(self.propagator.extras))

    def params_copy(self):
        return (self.E0.copy(), copy.deepcopy(self.adam))

    def set_params(self, params):
        self.E0, self.adam = params[0].copy(), copy.deepcopy(params[1])


def train_model(split, cfg, rng):
    """Dispatch to the trainer for cfg.kind."""
    from . import dgcf, lightgcn, svdgcn, ultragcn

    trainers = {
        "lightgcn": lightgcn.train_lightgcn,
        "dgcf": dgcf.train_dgcf,
        "ultragcn": ultragcn.train_ultragcn,
        "svdgcn": svdgcn.train_svdgcn,
    }
    if cfg.kind not in trainers:
        raise ValueError(f"unknown model kind {cfg.kind!r}")
    return trainers[cfg.kind](split, cfg, rng)

