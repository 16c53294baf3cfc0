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

Both passes run in four node x dim buffers: ``forward``'s unstacked
result, which ``backward`` leaves alone, and three chunk-stacked tables
for the layer sum and two layers in turn. The routing scores, weights and
per-value arrays have buffers of their own; a routing iteration still
allocates its K*n weighted degrees.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import PropagationModel, spare, spmm
from .lightgcn import inverse_sqrt, normalized_operator


def softmax_rows(x, out):
    """scipy.special.softmax(x, axis=1), by the same operations, written
    into ``out``."""
    np.subtract(x, x.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


class DGCFPropagator(PropagationModel):
    num_tables = 4

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
        self.uniform_weights = softmax_rows(np.zeros((len(edges), K)),
                                            np.empty((len(edges), K)))
        self.uniform_op = operator()
        self._route(self.uniform_op, self.uniform_weights)
        self.layer_ops = []
        self.intent_weights = None

    def _stacked_tables(self, shape):
        """The three chunk-stacked (K*n, d/K) views of the buffers that
        ``forward``'s result does not use."""
        K = self.cfg.intents
        return [T.reshape(K * shape[0], shape[1] // K)
                for T in self.propagation_tables(shape)[1:]]

    def _stack(self, M, out):
        """M (n x d) chunk-stacked into ``out`` (K*n x d/K)."""
        K = self.cfg.intents
        np.copyto(out.reshape(K, len(M), -1),
                  M.reshape(len(M), K, -1).transpose(1, 0, 2))
        return out

    def _unstack(self, S, out):
        """S (K*n x d/K) unstacked into ``out`` (n x d)."""
        K = self.cfg.intents
        np.copyto(out.reshape(len(out), K, -1),
                  S.reshape(K, len(out), -1).transpose(1, 0, 2))
        return out

    def _route(self, op, weights):
        """Write the weighted normalized values into op's fixed pattern."""
        w, t = (self.table(("route", j), self.rows.shape) for j in range(2))
        # every index is in range; "clip" lets take write to out unbuffered
        np.take(weights.T, self.edge_of, axis=1, out=w, mode="clip")
        inv_sqrt = inverse_sqrt(np.bincount(self.rows.ravel(), weights=w.ravel(),
                                            minlength=op.shape[0]))
        w *= np.take(inv_sqrt, self.rows, out=t, mode="clip")
        np.multiply(w, np.take(inv_sqrt, self.cols, out=t, mode="clip"),
                    out=op.data.reshape(w.shape))

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
        """E, as a view of a model buffer that is valid until the next
        ``forward`` or ``backward``."""
        cfg = self.cfg
        out = self.propagation_tables(E0.shape)[0]
        acc, *layers = self._stacked_tables(E0.shape)
        scores, routed = (self.table(("scores", j), self.uniform_weights.shape)
                          for j in range(2))
        # the stacked E0 is layer 0 and the sum's first term
        X = self._stack(E0, acc)
        weights = None
        self.layer_ops = []
        for op in self.routed_ops:
            Y = spare(layers, X)
            scores.fill(0)
            weights, used = self.uniform_weights, self.uniform_op
            for _ in range(cfg.routing_iterations):
                self._affinity(spmm(used, X, Y), scores)
                weights = softmax_rows(scores, routed)
                self._route(op, weights)
                used = op
            self.layer_ops.append(used)
            X = spmm(used, X, Y)
            acc += X
        self.intent_weights = weights
        acc /= cfg.layers + 1
        return self._unstack(acc, out)

    def backward(self, G):
        tables = self._stacked_tables(G.shape)
        Gs = self._stack(G, spare(tables, G))
        B = Gs
        for op in reversed(self.layer_ops):
            T = spmm(op, B, spare(tables, Gs, B))
            B = np.add(Gs, T, out=T)
        B /= self.cfg.layers + 1
        return self._unstack(B, spare(tables, B).reshape(G.shape))

    def extras(self, P):
        return {"intent_weights": self.intent_weights.copy()}
