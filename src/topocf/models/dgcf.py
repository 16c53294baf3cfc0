"""Intent-disentangled message passing with iterative edge routing.

Embeddings are chunked into equal-width intent sub-embeddings. Per layer,
per-edge intent scores start at zero and are refined for a configured
number of routing iterations: scores become softmax weights across
intents, each intent propagates its chunk under its weighted normalized
adjacency, and the scores are bumped by the endpoint chunk affinity.
Routing weights are treated as constants by the backward pass.
"""

from __future__ import annotations

import numpy as np
from scipy.special import softmax

from .base import PropagationModel
from .lightgcn import normalized_operator


class DGCFPropagator(PropagationModel):
    def __init__(self, split, cfg):
        if cfg.embedding_dim % cfg.intents:
            raise ValueError(
                f"embedding_dim {cfg.embedding_dim} not divisible by "
                f"intents {cfg.intents}")
        super().__init__(split, cfg)
        self.edges = split.train_edges
        self.layer_ops = []
        self.intent_weights = None

    def _build_ops(self, weights):
        return [normalized_operator(self.edges, weights[:, k],
                                    self.num_users, self.num_items)
                for k in range(self.cfg.intents)]

    def _apply(self, ops, X):
        chunk = X.shape[1] // self.cfg.intents
        Y = np.empty_like(X)
        for k, op in enumerate(ops):
            Y[:, k * chunk:(k + 1) * chunk] = op @ X[:, k * chunk:(k + 1) * chunk]
        return Y

    def forward(self, E0):
        cfg = self.cfg
        chunk = E0.shape[1] // cfg.intents
        eu = self.edges[:, 0]
        ei = self.num_users + self.edges[:, 1]
        X = E0
        acc = E0.copy()
        self.layer_ops = []
        weights = None
        for _ in range(cfg.layers):
            scores = np.zeros((len(self.edges), cfg.intents))
            for _ in range(cfg.routing_iterations):
                weights = softmax(scores, axis=1)
                ops = self._build_ops(weights)
                for k, op in enumerate(ops):
                    Yk = op @ X[:, k * chunk:(k + 1) * chunk]
                    scores[:, k] += (Yk[eu] * Yk[ei]).sum(axis=1)
            weights = softmax(scores, axis=1)
            ops = self._build_ops(weights)
            self.layer_ops.append(ops)
            X = self._apply(ops, X)
            acc += X
        self.intent_weights = weights
        return acc / (cfg.layers + 1)

    def backward(self, G):
        B = G
        for ops in reversed(self.layer_ops):
            B = G + self._apply(ops, B)
        return B / (self.cfg.layers + 1)

    def extras(self, P):
        return {"intent_weights": self.intent_weights}
