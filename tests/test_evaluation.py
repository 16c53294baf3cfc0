"""Recall@K and nDCG@K semantics, exclusion rules, random baseline."""

import math

import numpy as np
import pytest

from topocf.evaluation import evaluate, ndcg_at_k, recall_at_k
from topocf.models.base import TrainedModel, default_config
from topocf.models.split import Split, split_dataset
from topocf.synthetic import two_block_graph

from conftest import make_graph


def test_recall_hand_cases():
    assert recall_at_k([1, 2, 3], {2}, 2) == pytest.approx(1.0)
    assert recall_at_k([1, 2, 3], {3}, 2) == pytest.approx(0.0)
    assert recall_at_k([1, 2, 3, 4], {2, 4, 9}, 4) == pytest.approx(2 / 3)


def test_ndcg_single_hit_at_rank_two():
    # one relevant item at position 2: DCG = 1/log2(3), IDCG = 1
    assert ndcg_at_k([5, 7], {7}, 2) == pytest.approx(1.0 / math.log2(3))


def test_ndcg_perfect_ranking_is_one():
    assert ndcg_at_k([1, 2, 3], {1, 2, 3}, 3) == pytest.approx(1.0)


def test_ndcg_ideal_truncated_at_test_size():
    # 2 test items, k=5: ideal places them at ranks 1 and 2
    got = ndcg_at_k([9, 1, 8, 2, 7], {1, 2}, 5)
    ideal = 1.0 + 1.0 / math.log2(3)
    expected = (1.0 / math.log2(3) + 1.0 / math.log2(5)) / ideal
    assert got == pytest.approx(expected)


def test_ndcg_ideal_truncated_at_k():
    # more test items than k: IDCG uses only k slots
    got = ndcg_at_k([1, 2], {1, 2, 3, 4}, 2)
    assert got == pytest.approx(1.0)


def test_metrics_reject_empty_test_set():
    with pytest.raises(ValueError):
        recall_at_k([1], set(), 1)
    with pytest.raises(ValueError):
        ndcg_at_k([1], set(), 1)


def _fixed_model(user_vecs, item_vecs):
    return TrainedModel(user_embeddings=np.asarray(user_vecs, dtype=float),
                        item_embeddings=np.asarray(item_vecs, dtype=float),
                        config=default_config("lightgcn"))


def test_evaluate_phase_exclusions():
    g = make_graph([(0, j) for j in range(5)])
    split = Split(graph=g,
                  train_edges=np.array([(0, 0)]),
                  valid_edges=np.array([(0, 1)]),
                  test_edges=np.array([(0, 2)]))
    # scores: i0 > i1 > i2 > i3 > i4
    model = _fixed_model([[1.0]], [[5.0], [4.0], [3.0], [2.0], [1.0]])
    test_result = evaluate(model, split, k=1, phase="test")
    # train i0 and valid i1 excluded -> top-1 is the test item i2
    assert test_result.recall == pytest.approx(1.0)
    valid_result = evaluate(model, split, k=1, phase="valid")
    # only train i0 excluded -> top-1 is the valid item i1
    assert valid_result.recall == pytest.approx(1.0)
    valid_at_2 = evaluate(model, split, k=2, phase="valid")
    assert valid_at_2.ndcg == pytest.approx(1.0)


def test_evaluate_macro_average():
    g = make_graph([(0, 0), (0, 1), (1, 0), (1, 2)])
    split = Split(graph=g,
                  train_edges=np.array([(0, 0), (1, 0)]),
                  valid_edges=np.empty((0, 2), dtype=int),
                  test_edges=np.array([(0, 1), (1, 2)]))
    # u0 ranks its test item first; u1 ranks its test item second
    model = _fixed_model([[1.0, 0.0], [0.0, 1.0]],
                         [[0.0, 0.0], [1.0, 0.5], [0.5, 0.5]])
    result = evaluate(model, split, k=1, phase="test")
    assert result.recall == pytest.approx(0.5)
    assert result.num_users == 2


def test_random_model_matches_analytic_baseline():
    """A random scorer's mean recall approaches K / candidate-count."""
    g = two_block_graph(num_users=80, num_items=120, interactions_per_user=20,
                       seed=3)
    split = split_dataset(g, np.random.default_rng(0))
    k = 10
    expected = float(np.mean(
        [k / (g.num_items - len(split.train_items(u))
              - len(split.valid_items(u)))
         for u in split.test_users]))
    rng = np.random.default_rng(8)
    recalls = []
    for _ in range(60):
        model = _fixed_model(rng.normal(size=(g.num_users, 4)),
                             rng.normal(size=(g.num_items, 4)))
        recalls.append(evaluate(model, split, k=k, phase="test").recall)
    assert np.mean(recalls) == pytest.approx(expected, rel=0.15)
