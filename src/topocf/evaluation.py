"""Top-K accuracy metrics (Recall@K, nDCG@K) over held-out interactions.

Users are ranked in blocks of about ``BLOCK_BYTES`` of scores, in the
embeddings' dtype: one product scores a block of users against every item,
a block holding a score that is not finite (an overflow) is refused, and
each user's excluded items, read from the split's user-side CSR slices,
are set to -inf. Each row's k-th largest score is found by partition; the
items scoring at least that much are sorted by (-score, item), so ties
break by ascending item index, and each row keeps its first k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# bytes of (block users x items) scores ranked at a time, in the embeddings'
# dtype: 2^18 float32 scores. 4 MiB blocks ranked 10k items up to ~20%
# faster, but raised the bench's run-all peak RSS by 0.7 MB
BLOCK_BYTES = 2 ** 20


@dataclass(frozen=True)
class EvaluationResult:
    recall: float
    ndcg: float
    num_users: int


def _block_entries(part, rows):
    """(block row, item) of every edge of users ``rows`` in one of a
    Split's parts."""
    starts = part.indptr[rows]
    counts = part.indptr[rows + 1] - starts
    block_rows = np.repeat(np.arange(len(rows)), counts)
    first = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return block_rows, part.indices[first + np.arange(len(block_rows))]


def evaluate(model, split, k=20, phase="test"):
    """Macro-averaged Recall@K and nDCG@K over all evaluated users.

    phase="test" ranks against test items excluding train+validation;
    phase="valid" ranks against validation items excluding train only
    (the early-stopping setting, where validation items stay rankable).
    nDCG uses binary relevance with the ideal DCG cut at
    min(k, |held-out items|).
    """
    if phase == "test":
        users = split.test_users
        held_out = split.test
        excluded = (split.train, split.valid)
    elif phase == "valid":
        users = split.valid_users
        held_out = split.valid
        excluded = (split.train,)
    else:
        raise ValueError(f"unknown phase {phase!r}")
    if len(users) == 0:
        raise ValueError(f"no evaluated users for phase {phase!r}")

    num_items = len(model.item_embeddings)
    kk = min(k, num_items)
    discount = np.array([1.0 / math.log2(pos + 1) for pos in range(1, kk + 1)])
    ideal = np.cumsum(discount)
    sizes = held_out.user_degrees[users]
    recalls, dcgs = [], []
    dtype = model.item_embeddings.dtype
    block = max(1, BLOCK_BYTES // (dtype.itemsize * num_items))
    for start in range(0, len(users), block):
        rows = users[start:start + block]
        # an overflow is refused below, by the block's min and max, which
        # allocate nothing
        with np.errstate(over="ignore", invalid="ignore"):
            scores = model.user_embeddings[rows] @ model.item_embeddings.T
        if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
            raise ValueError(f"non-finite {dtype} scores for users "
                             f"{rows[0]}..{rows[-1]}: the embeddings "
                             f"overflow in their products")
        for part in excluded:
            scores[_block_entries(part, rows)] = -np.inf
        kth = np.partition(scores, num_items - kk, axis=1)[:, num_items - kk]
        # every row has at least kk candidates; nonzero lists them row by
        # row, and sorting keeps the rows in place
        r, c = np.nonzero(scores >= kth[:, None])
        order = np.lexsort((c, -scores[r, c], r))
        first = np.searchsorted(r, np.arange(len(rows)))
        top = c[order][first[:, None] + np.arange(kk)]
        relevant = np.zeros(scores.shape, dtype=bool)
        relevant[_block_entries(held_out, rows)] = True
        hits = np.take_along_axis(relevant, top, axis=1)
        recalls.append(hits.sum(axis=1))
        # left to right, the order of a running sum over the ranks
        dcgs.append(np.cumsum(hits * discount, axis=1)[:, -1])
    recall = np.concatenate(recalls) / sizes
    ndcg = np.concatenate(dcgs) / ideal[np.minimum(k, sizes) - 1]
    return EvaluationResult(recall=float(np.mean(recall)),
                            ndcg=float(np.mean(ndcg)), num_users=len(users))
