"""Intent-disentangled message passing with iterative edge routing.

Embeddings are chunked into equal-width intent sub-embeddings. Per layer,
per-edge intent scores start at zero and are refined for a configured
number of routing iterations: scores become softmax weights across
intents, each intent propagates its chunk under its weighted normalized
adjacency, and the scores are bumped by the endpoint chunk affinity.
Routing weights are treated as constants by the backward pass.

All K intents propagate as one product on ``chunks``, the (n*K, d/K) view
of a node x dim table, whose row x*K + k is node x's intent-k chunk. The
operator's row x*K + k repeats the normalized adjacency's CSR row x, at
columns c*K + k; this pattern is fixed once per model, and a routing
iteration writes only its K*2E values. The train edges are sorted by
(user, item), so each CSR row lists its edges in the order the weighted
degrees sum them, and every value, degree and product equals that of K
separate per-intent operators bit for bit.

Propagation runs on ``PropagationModel``'s three node x dim buffers; a
layer's routing iterations use the buffer its output goes to as scratch.
The routing scores, weights and per-value arrays have buffers of their
own; a routing iteration still allocates its K*n weighted degrees.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import PropagationModel, spmm
from .lightgcn import inverse_sqrt, normalized_operator


def softmax_rows(x, out):
    """scipy.special.softmax(x, axis=1), by the same operations, written
    into ``out``."""
    np.subtract(x, x.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


class DGCFPropagator(PropagationModel):
    def __init__(self, split, cfg):
        if cfg.embedding_dim % cfg.intents:
            raise ValueError(
                f"embedding_dim {cfg.embedding_dim} not divisible by "
                f"intents {cfg.intents}")
        super().__init__(split, cfg)
        edges = split.train.edge_array()
        K = self.intents = cfg.intents
        n = self.num_users + self.num_items
        A = normalized_operator(edges, np.ones(len(edges)),
                                self.num_users, self.num_items)
        degrees = np.repeat(np.diff(A.indptr), K)
        indptr = np.append(0, np.cumsum(degrees))
        # per operator value: its row and column, the value of A it repeats
        # and that value's train edge (user rows list their edges in order,
        # item rows list theirs by user)
        self.rows = np.repeat(np.arange(K * n), degrees)
        intent = self.rows % K
        of_A = (np.arange(K * A.nnz) - indptr[self.rows]
                + A.indptr[self.rows // K])
        self.cols = A.indices[of_A] * K + intent
        edge_of = np.concatenate([np.arange(len(edges)),
                                  np.argsort(edges[:, 1], kind="stable")])
        # per value, its flat index into the (edge, intent) weights
        self.weight_of = edge_of[of_A] * K + intent
        # per intent, the chunk rows of each train edge's user and item
        self.end_rows = (K * np.stack([edges[:, 0],
                                       self.num_users + edges[:, 1]])
                         + np.arange(K)[:, None, None])
        # one intent's endpoint chunks, reused by every routing iteration
        self.ends = np.empty((2, len(edges), cfg.embedding_dim // K))

        def operator():
            return sp.csr_matrix((np.empty(K * A.nnz), self.cols, indptr),
                                 shape=(K * n, K * n))

        self.routed_ops = [operator() for _ in range(cfg.layers)]
        # every layer's first routing iteration weighs the intents uniformly
        self.uniform_weights = softmax_rows(np.zeros((len(edges), K)),
                                            np.empty((len(edges), K)))
        self.uniform_op = operator()
        self._route(self.uniform_op, self.uniform_weights)
        self.intent_weights = None

    def _route(self, op, weights):
        """Write the weighted normalized values into op's fixed pattern."""
        w, t = (self.table(("route", j), self.rows.shape) for j in range(2))
        # every index is in range; "clip" lets take write to out unbuffered
        np.take(weights, self.weight_of, out=w, mode="clip")
        inv_sqrt = inverse_sqrt(np.bincount(self.rows, weights=w,
                                            minlength=op.shape[0]))
        w *= np.take(inv_sqrt, self.rows, out=t, mode="clip")
        np.multiply(w, np.take(inv_sqrt, self.cols, out=t, mode="clip"),
                    out=op.data)

    def _affinity(self, Y, scores):
        """scores[:, k] += each edge's endpoint dot product in intent k."""
        u, i = self.ends
        chunks = self.chunks(Y)
        # every index is in range; "clip" lets take write to out unbuffered
        for k, rows in enumerate(self.end_rows):
            np.take(chunks, rows, axis=0, out=self.ends, mode="clip")
            u *= i
            scores[:, k] += u.sum(axis=1)

    def layer_operator(self, layer, X, Y):
        """Layer ``layer``'s routed operator for its input X; Y is scratch."""
        scores, routed = (self.table(("scores", j), self.uniform_weights.shape)
                          for j in range(2))
        scores.fill(0)
        weights, op = self.uniform_weights, self.uniform_op
        for _ in range(self.cfg.routing_iterations):
            spmm(op, self.chunks(X), self.chunks(Y))
            self._affinity(Y, scores)
            weights = softmax_rows(scores, routed)
            op = self.routed_ops[layer]
            self._route(op, weights)
        self.intent_weights = weights
        return op

    def extras(self, P):
        return {"intent_weights": self.intent_weights.copy()}
