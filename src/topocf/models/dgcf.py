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
columns c*K + k; this pattern is fixed once per model, every operator
shares its index arrays, and a routing iteration writes only its K*2E
values, normalizing them in place. The train edges are sorted by
(user, item), so each CSR row lists its edges in the order the weighted
degrees sum them.

Propagation runs on ``PropagationModel``'s three node x dim buffers; a
layer's routing iterations use the buffer its output goes to as scratch.
The routing scores and weights are intent-major (K, E) arrays, so that the
softmax reduces over K contiguous rows of E. The affinity gathers each
train edge's full user and item rows of the layer output, ``AFFINITY_BLOCK``
edges at a time, into two (block, d) buffers that stay in cache, and sums
their product over each intent's d/K columns. The weighted degrees and
the block buffers are the model's, so a routing iteration allocates
nothing of size K*n or E*d/K.

With fewer than 8 intents every weight, value and product equals that of
K separate per-intent operators with (E, K) scores bit for bit. From 8
intents on, numpy sums each row of an (E, K) array pairwise, so the
softmax's sum over the K rows here may differ from that in the last bit.
"""

from __future__ import annotations

import numpy as np

from ..csr import CSR, spmm
from . import base
from .base import PropagationModel, take_rows
from .lightgcn import inverse_sqrt, normalized_operator


AFFINITY_BLOCK = 1024  # train edges whose endpoint rows are gathered at once


def softmax_intents(x, out):
    """scipy.special.softmax(x, axis=0) of (K, E) scores, by the same
    operations, written into ``out``."""
    np.subtract(x, x.max(axis=0), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=0)
    return out


class DGCFPropagator(PropagationModel):
    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        edges = split.train.edge_array()
        K = self.intents = cfg.intents
        n = self.num_users + self.num_items
        A = normalized_operator(split.train)
        degrees = np.repeat(np.diff(A.indptr), K)
        indptr = np.append(0, np.cumsum(degrees))
        # per operator value: its row and column, the value of A it repeats
        # and that value's train edge (user rows list their edges in order,
        # item rows list theirs by user)
        rows = np.repeat(np.arange(K * n), degrees)
        intent = rows % K
        of_A = np.arange(K * A.nnz) - indptr[rows] + A.indptr[rows // K]
        cols = A.indices[of_A] * K + intent
        edge_of = np.concatenate([np.arange(len(edges)),
                                  np.argsort(edges[:, 1], kind="stable")])
        # per value, its flat index into the (intent, edge) weights
        self.weight_of = intent * len(edges) + edge_of[of_A]
        # each train edge's user and item rows of a node x dim table
        self.ends = np.stack([edges[:, 0], self.num_users + edges[:, 1]])
        # the operator times ones sums each row's values
        dtype = base.DTYPE
        self.ones = np.ones((K * n, 1), dtype)

        self.uniform_op = CSR(indptr, cols, np.empty(K * A.nnz, dtype),
                              (K * n, K * n))
        # the routed operators share its index arrays
        self.routed_ops = [CSR(indptr, cols, np.empty(K * A.nnz, dtype),
                               self.uniform_op.shape)
                           for _ in range(cfg.layers)]
        # every layer's first routing iteration weighs the intents uniformly
        shape = (K, len(edges))
        self.uniform_weights = softmax_intents(np.zeros(shape, dtype),
                                               np.empty(shape, dtype))
        self._route(self.uniform_op, self.uniform_weights)
        self.intent_weights = self.uniform_weights

    def _route(self, op, weights):
        """Write the weighted normalized values into op's fixed pattern."""
        deg, inv_sqrt = (self.table(("degree", j), self.ones.shape)
                         for j in range(2))
        # every index is in range; "clip" lets take write to out unbuffered
        np.take(weights, self.weight_of, out=op.data, mode="clip")
        # each row's weighted degree: csr_matvecs adds a row's values in
        # CSR order, as np.bincount over the values' rows does
        spmm(op, self.ones, deg)
        inverse_sqrt(deg, inv_sqrt,
                     self.table("positive", self.ones.shape, bool))
        # each value times inv_sqrt of its row, then of its column, in place
        op.scale(inv_sqrt.ravel(), inv_sqrt.ravel())

    def _affinity(self, Y, scores):
        """scores[k] += each edge's endpoint dot product in intent k."""
        K, num_edges = scores.shape
        block = min(AFFINITY_BLOCK, num_edges)
        gathers = [self.table(("affinity", j), (block, Y.shape[1]))
                   for j in range(2)]
        block_sums = self.table("affinity sums", (block, K))
        for start in range(0, num_edges, AFFINITY_BLOCK):
            stop = start + AFFINITY_BLOCK
            u, i = (take_rows(Y, rows, out[:len(rows)]) for rows, out in
                    zip(self.ends[:, start:stop], gathers))
            u *= i
            sums = u.reshape(len(u), K, -1).sum(axis=2,
                                                out=block_sums[:len(u)])
            # intent by intent: numpy buffers a 2-d add of transposed blocks
            for k, row in enumerate(scores):
                row[start:stop] += sums[:, k]

    def layer_operator(self, layer, X, Y):
        """Layer ``layer``'s routed operator for its input X; Y is scratch."""
        scores, routed = (self.table(("scores", j), self.uniform_weights.shape)
                          for j in range(2))
        scores.fill(0)
        weights, op = self.uniform_weights, self.uniform_op
        for _ in range(self.cfg.routing_iterations):
            spmm(op, self.chunks(X), self.chunks(Y))
            self._affinity(Y, scores)
            weights = softmax_intents(scores, routed)
            op = self.routed_ops[layer]
            self._route(op, weights)
        self.intent_weights = weights
        return op

    def extras(self, P):
        # one row of K weights per train edge
        return {"intent_weights": self.intent_weights.T.copy()}
