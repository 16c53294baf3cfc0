"""Intent-disentangled message passing with iterative edge routing.

Embeddings are chunked into equal-width intent sub-embeddings. Per layer,
per-edge intent scores start at zero and are refined for a configured
number of routing iterations: scores become softmax weights across
intents, each intent propagates its chunk under its weighted normalized
adjacency, and the scores are bumped by the endpoint chunk affinity.
Routing weights are treated as constants by the backward pass.

All K intents propagate as one block-diagonal product. Embeddings are kept
chunk-stacked, a (K*n, d/K) matrix whose block k is intent k's chunk for
every node, from ``forward`` entry to exit. The operator's sparsity
pattern is K copies of the normalized adjacency's CSR pattern, fixed once
per model; a routing iteration writes only its K*2E values. The train
edges are sorted by (user, item), so each CSR row lists its edges in the
order the weighted degrees sum them, and every value, degree and product
equals that of K separate per-intent operators bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import softmax

from .base import PropagationModel
from .lightgcn import inverse_sqrt, normalized_operator


class DGCFPropagator(PropagationModel):
    def __init__(self, split, cfg):
        if cfg.embedding_dim % cfg.intents:
            raise ValueError(
                f"embedding_dim {cfg.embedding_dim} not divisible by "
                f"intents {cfg.intents}")
        super().__init__(split, cfg)
        edges = split.train_edges
        K = cfg.intents
        n = self.num_users + self.num_items
        A = normalized_operator(edges, np.ones(len(edges)),
                                self.num_users, self.num_items)
        block = n * np.arange(K)[:, None]
        indptr = np.append((A.indptr[:-1] + A.nnz * np.arange(K)[:, None])
                           .ravel(), K * A.nnz)
        indices = (A.indices + block).ravel()
        # per operator value: its train edge (user rows list their edges in
        # order, item rows list theirs by user) and its row and column
        self.edge_of = np.concatenate([np.arange(len(edges)),
                                       np.argsort(edges[:, 1], kind="stable")])
        self.rows = np.repeat(np.arange(n), np.diff(A.indptr)) + block
        self.cols = indices.reshape(K, A.nnz)
        self.eu = edges[:, 0]
        self.ei = self.num_users + edges[:, 1]
        # one intent's endpoint chunks, reused by every routing iteration
        self.ends = np.empty((2, len(edges), cfg.embedding_dim // K))

        def operator():
            return sp.csr_matrix((np.empty(K * A.nnz), indices, indptr),
                                 shape=(K * n, K * n))

        self.routed_ops = [operator() for _ in range(cfg.layers)]
        # every layer's first routing iteration weighs the intents uniformly
        self.uniform_weights = softmax(np.zeros((len(edges), K)), axis=1)
        self.uniform_op = operator()
        self._route(self.uniform_op, self.uniform_weights)
        self.layer_ops = []
        self.intent_weights = None

    def _stack(self, M):
        K = self.cfg.intents
        return M.reshape(len(M), K, -1).transpose(1, 0, 2).reshape(
            K * len(M), -1)

    def _unstack(self, S):
        K = self.cfg.intents
        return S.reshape(K, -1, S.shape[1]).transpose(1, 0, 2).reshape(
            len(S) // K, -1)

    def _route(self, op, weights):
        """Write the weighted normalized values into op's fixed pattern."""
        w = np.take(weights.T, self.edge_of, axis=1)
        inv_sqrt = inverse_sqrt(np.bincount(self.rows.ravel(), weights=w.ravel(),
                                            minlength=op.shape[0]))
        w *= inv_sqrt[self.rows]
        np.multiply(w, inv_sqrt[self.cols], out=op.data.reshape(w.shape))

    def _affinity(self, Y, scores):
        """scores[:, k] += each edge's endpoint dot product in intent k."""
        u, i = self.ends
        # every index is in range; "clip" lets take write to out unbuffered
        for k, Yk in enumerate(np.split(Y, self.cfg.intents)):
            np.take(Yk, self.eu, axis=0, out=u, mode="clip")
            np.take(Yk, self.ei, axis=0, out=i, mode="clip")
            u *= i
            scores[:, k] += u.sum(axis=1)

    def forward(self, E0):
        cfg = self.cfg
        X = self._stack(E0)
        acc = X.copy()
        weights = None
        self.layer_ops = []
        for op in self.routed_ops:
            scores = np.zeros(self.uniform_weights.shape)
            weights, used = self.uniform_weights, self.uniform_op
            for _ in range(cfg.routing_iterations):
                self._affinity(used @ X, scores)
                weights = softmax(scores, axis=1)
                self._route(op, weights)
                used = op
            self.layer_ops.append(used)
            X = used @ X
            acc += X
        self.intent_weights = weights
        return self._unstack(acc / (cfg.layers + 1))

    def backward(self, G):
        Gs = self._stack(G)
        B = Gs
        for op in reversed(self.layer_ops):
            B = Gs + op @ B
        return self._unstack(B / (self.cfg.layers + 1))

    def extras(self, P):
        return {"intent_weights": self.intent_weights}
