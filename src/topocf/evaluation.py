"""Top-K accuracy metrics (Recall@K, nDCG@K) over held-out interactions.

Users are ranked in blocks: one product scores a block of users against
every item, each user's excluded items are set to -inf, and one stable
sort ranks the rest, so ties break by ascending item index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


# entries of the (block users x items) score matrix ranked at a time
BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class EvaluationResult:
    k: int
    recall: float
    ndcg: float
    num_users: int


def _item_matrix(edges, indptr, num_items):
    """A Split's sorted (user, item) edges as a boolean user x item CSR."""
    return sp.csr_matrix((np.ones(len(edges), dtype=bool), edges[:, 1], indptr),
                         shape=(len(indptr) - 1, num_items))


def evaluate(model, split, k=20, phase="test"):
    """Macro-averaged Recall@K and nDCG@K over all evaluated users.

    phase="test" ranks against test items excluding train+validation;
    phase="valid" ranks against validation items excluding train only
    (the early-stopping setting, where validation items stay rankable).
    nDCG uses binary relevance with the ideal DCG cut at
    min(k, |held-out items|).
    """
    num_items = len(model.item_embeddings)
    train = _item_matrix(split.train_edges, split.train_indptr, num_items)
    valid = _item_matrix(split.valid_edges, split.valid_indptr, num_items)
    if phase == "test":
        users = split.test_users
        held_out = _item_matrix(split.test_edges, split.test_indptr, num_items)
        excluded = (train, valid)
    elif phase == "valid":
        users = split.valid_users
        held_out = valid
        excluded = (train,)
    else:
        raise ValueError(f"unknown phase {phase!r}")
    if len(users) == 0:
        raise ValueError(f"no evaluated users for phase {phase!r}")

    discount = np.array([1.0 / math.log2(pos + 1)
                         for pos in range(1, min(k, num_items) + 1)])
    ideal = np.cumsum(discount)
    sizes = np.diff(held_out.indptr)[users]
    recalls, dcgs = [], []
    block = max(1, BLOCK_ENTRIES // num_items)
    for start in range(0, len(users), block):
        rows = users[start:start + block]
        scores = model.user_embeddings[rows] @ model.item_embeddings.T
        for items in excluded:
            scores[items[rows].nonzero()] = -np.inf
        top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        hits = np.take_along_axis(held_out[rows].toarray(), top, axis=1)
        recalls.append(hits.sum(axis=1))
        # left to right, the order of a running sum over the ranks
        dcgs.append(np.cumsum(hits * discount, axis=1)[:, -1])
    recall = np.concatenate(recalls) / sizes
    ndcg = np.concatenate(dcgs) / ideal[np.minimum(k, sizes) - 1]
    return EvaluationResult(k=k, recall=float(np.mean(recall)),
                            ndcg=float(np.mean(ndcg)), num_users=len(users))
