"""Top-K accuracy metrics (Recall@K, nDCG@K) over held-out interactions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvaluationResult:
    k: int
    recall: float
    ndcg: float
    per_user_recall: dict
    per_user_ndcg: dict

    @property
    def num_users(self):
        return len(self.per_user_recall)


def recall_at_k(ranked, test_items, k):
    """Fraction of test items appearing in the top-k prefix."""
    if not test_items:
        raise ValueError("test_items must be nonempty")
    hits = sum(1 for item in ranked[:k] if item in test_items)
    return hits / len(test_items)


def ndcg_at_k(ranked, test_items, k):
    """Binary-relevance nDCG with the ideal DCG truncated at
    min(k, |test_items|)."""
    if not test_items:
        raise ValueError("test_items must be nonempty")
    dcg = 0.0
    for pos, item in enumerate(ranked[:k], start=1):
        if item in test_items:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(pos + 1)
                for pos in range(1, min(k, len(test_items)) + 1))
    return dcg / ideal


def evaluate(model, split, k=20, phase="test"):
    """Macro-averaged Recall@K and nDCG@K over all evaluated users.

    phase="test" ranks against test items excluding train+validation;
    phase="valid" ranks against validation items excluding train only
    (the early-stopping setting, where validation items stay rankable).
    """
    from .models.base import rank_items  # local import to avoid a cycle

    if phase == "test":
        users = split.test_users
        targets = split.test_items
    elif phase == "valid":
        users = split.valid_users
        targets = split.valid_items
    else:
        raise ValueError(f"unknown phase {phase!r}")
    if len(users) == 0:
        raise ValueError(f"no evaluated users for phase {phase!r}")

    per_recall = {}
    per_ndcg = {}
    for u in users:
        ranked = rank_items(model, split, u, k, phase=phase)
        test_set = set(targets(u).tolist())
        per_recall[u] = recall_at_k(ranked, test_set, k)
        per_ndcg[u] = ndcg_at_k(ranked, test_set, k)
    recall = float(np.mean(list(per_recall.values())))
    ndcg = float(np.mean(list(per_ndcg.values())))
    return EvaluationResult(k=k, recall=recall, ndcg=ndcg,
                            per_user_recall=per_recall, per_user_ndcg=per_ndcg)
