"""Shared training machinery: configs, optimizer, early stopping,
and the one Trainer that runs every model.

Every model's loss is a sum of sigmoid terms over sampled node pairs, so a
model supplies only the map from its parameters P to node embeddings E,
the adjoint of that map, and a batch's loss and gradient in E. LightGCN,
DGCF and SVD-GCN list the batch's pairs with each pair's loss slope and
``pair_gradient`` turns them into that gradient; UltraGCN scores and
scatters its pairs on one dense user x item block.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
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
    """Adaptive-moment estimation with the standard defaults, on the
    gradient plus the L2 term ``l2 * param``.

    ``step`` updates param, m and v in place and allocates nothing after
    its first call. That call allocates the two scratch arrays while the
    step's temporaries are live, so they sit above them in the heap: the
    allocator then keeps the temporaries' pages for the next step instead
    of returning them to the system and faulting them in again. Snapshots
    leave the scratch arrays out.
    """

    def __init__(self, shape, lr, l2=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.l2 = l2
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.scratch = None

    def __getstate__(self):
        return {**self.__dict__, "scratch": None}

    def step(self, param, grad):
        """param -= lr * m_hat / (sqrt(v_hat) + eps), with the operands of
        every product and quotient in that order."""
        self.t += 1
        if self.scratch is None:
            self.scratch = np.empty((2,) + self.m.shape)
        a, b = self.scratch
        np.multiply(self.l2, param, out=a)
        a += grad
        np.multiply(1 - self.beta1, a, out=b)
        self.m *= self.beta1
        self.m += b
        np.multiply(1 - self.beta2, a, out=b)
        b *= a
        self.v *= self.beta2
        self.v += b
        np.divide(self.v, 1 - self.beta2 ** self.t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(self.m, 1 - self.beta1 ** self.t, out=b)
        b *= self.lr
        b /= a
        param -= b


def normal_init(rng, rows, dim):
    """A (rows x dim) parameter matrix drawn from N(0, 0.1^2), as every
    model starts."""
    return rng.normal(0.0, 0.1, size=(rows, dim))


def sample_negative_items(rng, users, split):
    """One uniform negative item per row, resampled on collision with the
    user's train positives (skipped for users with a full positive set)."""
    num_items = split.graph.num_items
    keys = split.train_keys
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


def softplus(x):
    """log(1 + exp(x)) without overflow: the loss of every sigmoid term."""
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def bpr_loss_and_coeff(eu, ei, ej, batch_size):
    """Sampled pairwise ranking loss -log sigmoid(s+ - s-) and d/ds of its
    batch mean."""
    s = (eu * (ei - ej)).sum(axis=1)
    loss = float(softplus(-s).mean())
    coeff = -expit(-s) / batch_size
    return loss, coeff


def bpr_pairs(users, pos, negs, E, num_users):
    """Batch-mean BPR loss over (user, positive, negative) triples and its
    pair terms: the loss depends on E[u].E[i] with slope coeff and on
    E[u].E[j] with slope -coeff."""
    items = num_users + pos
    others = num_users + negs
    loss, coeff = bpr_loss_and_coeff(E[users], E[items], E[others], len(users))
    return loss, [(users, items, coeff), (users, others, -coeff)]


def pair_gradient(terms, E):
    """(C + C^T) @ E for the sparse n x n matrix C with C[rows, cols] =
    coeffs over every ``(rows, cols, coeffs)`` in ``terms``, duplicate pairs
    adding up: the gradient in E of a loss whose slope in
    E[rows[t]] . E[cols[t]] is coeffs[t]."""
    rows, cols, coeffs = (np.concatenate(t) for t in zip(*terms))
    C = sp.coo_matrix((coeffs, (rows, cols)), shape=(len(E), len(E)))
    return C @ E + C.T @ E


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


class Trainer:
    """Adam on one parameter matrix P, in shuffled train-edge batches.

    The model maps P to node embeddings E (users, then items) and back:
    - ``init_params(rng)`` draws P, and any other random state the model
      keeps fixed;
    - ``forward(P)`` returns E;
    - ``backward(G)`` returns the gradient in P for a gradient G in E from
      the latest ``forward``;
    - ``batch_gradient(rng, batch, split, E)`` draws the batch's negatives
      and returns ``(loss, G)``: the batch loss and its gradient in E;
    - ``release()`` drops any buffers the model keeps between batches;
      ``materialize`` calls it, so that the evaluation and parameter
      snapshots after it can reuse that memory;
    - ``extras(P)`` returns the diagnostics kept on the TrainedModel.

    L2 applies to P, inside the Adam step.
    """

    def __init__(self, model, split, cfg, rng):
        self.model = model
        self.split = split
        self.cfg = cfg
        self.rng = rng
        self.P = model.init_params(rng)
        self.adam = Adam(self.P.shape, cfg.learning_rate, cfg.l2_weight)

    def run_epoch(self, epoch):
        edges = self.split.train_edges
        order = self.rng.permutation(len(edges))
        total = 0.0
        for start in range(0, len(edges), self.cfg.batch_size):
            batch = edges[order[start:start + self.cfg.batch_size]]
            total += self.step(batch) * len(batch)
        return total / max(len(edges), 1)

    def step(self, batch):
        """One Adam step on a batch of train edges; returns the batch loss.
        Its temporaries are freed before the next batch draws its own."""
        E = self.model.forward(self.P)
        loss, G = self.model.batch_gradient(self.rng, batch, self.split, E)
        self.adam.step(self.P, self.model.backward(G))
        return loss

    def materialize(self):
        self.model.release()
        E = self.model.forward(self.P)
        num_users = self.split.graph.num_users
        return TrainedModel(user_embeddings=E[:num_users].copy(),
                            item_embeddings=E[num_users:].copy(),
                            config=self.cfg,
                            extras=self.model.extras(self.P))

    def params_copy(self):
        return (self.P.copy(), copy.deepcopy(self.adam))

    def set_params(self, params):
        self.P, self.adam = params[0].copy(), copy.deepcopy(params[1])


class EmbeddingModel:
    """What the four models share: the split's node counts, P drawn as one
    N(0, 0.1^2) row of embedding_dim per node, no buffers kept between
    batches and no diagnostics."""

    def __init__(self, split, cfg):
        self.cfg = cfg
        self.num_users = split.graph.num_users
        self.num_items = split.graph.num_items

    def init_params(self, rng):
        return normal_init(rng, self.num_users + self.num_items,
                           self.cfg.embedding_dim)

    def release(self):
        pass

    def extras(self, P):
        return {}


class PropagationModel(EmbeddingModel):
    """BPR on embeddings propagated linearly from the layer-0 matrix
    P = E0 (LightGCN, DGCF); subclasses supply forward/backward."""

    def batch_gradient(self, rng, batch, split, E):
        users, pos = batch[:, 0], batch[:, 1]
        negs = sample_negative_items(rng, users, split)
        loss, terms = bpr_pairs(users, pos, negs, E, self.num_users)
        return loss, pair_gradient(terms, E)


def train_model(split, cfg, rng):
    """Train the model for cfg.kind."""
    from .dgcf import DGCFPropagator
    from .lightgcn import LightGCNPropagator
    from .svdgcn import SvdGcn
    from .ultragcn import UltraGCN

    models = {"lightgcn": LightGCNPropagator, "dgcf": DGCFPropagator,
              "ultragcn": UltraGCN, "svdgcn": SvdGcn}
    if cfg.kind not in models:
        raise ValueError(f"unknown model kind {cfg.kind!r}")
    trainer = Trainer(models[cfg.kind](split, cfg), split, cfg,
                      np.random.default_rng(rng))
    return train_loop(trainer, split, cfg)
