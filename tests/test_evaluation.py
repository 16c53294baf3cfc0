"""Recall@K and nDCG@K semantics, exclusion rules, random baseline."""

import math
import tracemalloc

import numpy as np
import pytest

from topocf import evaluation
from topocf.evaluation import evaluate
from topocf.models.base import TrainedModel
from topocf.models.split import Split, split_dataset
from topocf.synthetic import heavy_tailed_graph

from conftest import make_graph, random_bipartite, row_items, two_block_graph
from test_acceptance import _oracle_evaluate, _random_split


def _user_edges(items):
    return np.array([(0, i) for i in items], dtype=np.int64).reshape(-1, 2)


def _ranked(ranking, held_out, k):
    """evaluate() at test time on one user whose candidates rank exactly as
    ``ranking``, then the held-out items it leaves out; every other item,
    and one item past them all, is a train item."""
    order = list(ranking) + sorted(set(held_out) - set(ranking))
    num_items = max(order) + 2
    scores = np.zeros((num_items, 1))
    scores[order, 0] = np.arange(len(order), 0, -1)
    split = Split(graph=make_graph([(0, 0)], 1, num_items),
                  train_edges=_user_edges(sorted(set(range(num_items))
                                                 - set(order))),
                  valid_edges=_user_edges([]),
                  test_edges=_user_edges(sorted(held_out)))
    return evaluate(_fixed_model([[1.0]], scores), split, k=k, phase="test")


def test_recall_hand_cases():
    assert _ranked([1, 2, 3], {2}, 2).recall == pytest.approx(1.0)
    assert _ranked([1, 2, 3], {3}, 2).recall == pytest.approx(0.0)
    assert _ranked([1, 2, 3, 4], {2, 4, 9}, 4).recall == pytest.approx(2 / 3)


def test_ndcg_single_hit_at_rank_two():
    # one relevant item at position 2: DCG = 1/log2(3), IDCG = 1
    assert _ranked([5, 7], {7}, 2).ndcg == pytest.approx(1.0 / math.log2(3))


def test_ndcg_perfect_ranking_is_one():
    assert _ranked([1, 2, 3], {1, 2, 3}, 3).ndcg == pytest.approx(1.0)


def test_ndcg_ideal_truncated_at_test_size():
    # 2 test items, k=5: ideal places them at ranks 1 and 2
    got = _ranked([9, 1, 8, 2, 7], {1, 2}, 5).ndcg
    ideal = 1.0 + 1.0 / math.log2(3)
    expected = (1.0 / math.log2(3) + 1.0 / math.log2(5)) / ideal
    assert got == pytest.approx(expected)


def test_ndcg_ideal_truncated_at_k():
    # more test items than k: IDCG uses only k slots
    assert _ranked([1, 2], {1, 2, 3, 4}, 2).ndcg == pytest.approx(1.0)


def _fixed_model(user_vecs, item_vecs):
    return TrainedModel(user_embeddings=np.asarray(user_vecs, dtype=float),
                        item_embeddings=np.asarray(item_vecs, dtype=float))


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


def test_evaluate_breaks_ties_by_index():
    # all scores equal: candidates rank by ascending item index, so the
    # held-out item at rank 4 of k=4 gives nDCG = 1/log2(5)
    model = _fixed_model(np.ones((1, 2)), np.ones((6, 2)))
    g = make_graph([(0, j) for j in range(6)])
    split = Split(graph=g,
                  train_edges=np.array([(0, 2)]),
                  valid_edges=np.array([(0, 4)]),
                  test_edges=np.array([(0, 5)]))
    # test phase: 2 (train) and 4 (valid) excluded -> [0, 1, 3, 5]
    test_result = evaluate(model, split, k=4, phase="test")
    assert test_result.recall == 1.0
    assert test_result.ndcg == pytest.approx(1.0 / math.log2(5))
    # valid phase: only train excluded -> [0, 1, 3, 4]
    valid_result = evaluate(model, split, k=4, phase="valid")
    assert valid_result.recall == 1.0
    assert valid_result.ndcg == pytest.approx(1.0 / math.log2(5))


@pytest.mark.parametrize("users_per_block", [1, 7])
def test_evaluate_blocks_match_oracle(users_per_block, monkeypatch):
    """Exact ties at the k-th score, k above the candidate count, and user
    counts that leave a partial last block: every block size gives the
    brute-force oracle's values exactly."""
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        g = random_bipartite(rng, max_users=30, max_items=30, p=0.3)
        if g.num_interactions < 10:
            continue
        split = _random_split(g, rng)
        if len(split.test_users) == 0 or len(split.valid_users) == 0:
            continue
        model = _fixed_model(rng.integers(-1, 2, size=(g.num_users, 2)),
                             rng.integers(-1, 2, size=(g.num_items, 2)))
        monkeypatch.setattr(evaluation, "BLOCK_BYTES",
                            users_per_block * g.num_items * 8)
        k = int(rng.integers(1, 41))
        for phase in ("test", "valid"):
            got = evaluate(model, split, k=k, phase=phase)
            assert (got.recall, got.ndcg) == _oracle_evaluate(model, split,
                                                              k, phase)
            users = split.test_users if phase == "test" else split.valid_users
            assert got.num_users == len(users)
        checked += 1


def test_evaluate_holds_about_one_block_of_scores():
    """Ranking keeps one block's scores and the one partitioned copy of
    them alive, not the last block's copy or arrays while the next block is
    scored: the traced peak stays under 2.5 blocks, where keeping them
    reads about 3.7."""
    g = heavy_tailed_graph(num_users=3000, num_items=2000,
                           num_interactions=30000, seed=3)
    split = split_dataset(g, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    model = TrainedModel(*(rng.standard_normal((n, 16), dtype=np.float32)
                           for n in (g.num_users, g.num_items)))
    block = evaluation.BLOCK_BYTES // (4 * g.num_items)
    assert -(-len(split.test_users) // block) == 17
    expected = evaluate(model, split, phase="test")
    tracemalloc.start()
    try:
        got = evaluate(model, split, phase="test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak <= 2.5 * evaluation.BLOCK_BYTES, (
        peak / evaluation.BLOCK_BYTES)


def test_evaluate_refuses_scores_that_overflow():
    """Finite float32 embeddings whose products overflow to +inf, -inf or
    NaN (inf - inf): ranking such a block would report a recall of
    nothing, so evaluate refuses it, before the exclusions write -inf."""
    g = make_graph([(0, j) for j in range(5)])
    split = Split(graph=g, train_edges=np.array([(0, 0)]),
                  valid_edges=np.array([(0, 1)]),
                  test_edges=np.array([(0, 2)]))
    items = np.full((5, 2), 0.5, np.float32)
    for overflowing in ([1e30, 0.0], [-1e30, 0.0], [1e30, -1e30]):
        items[4] = overflowing
        for phase in ("test", "valid"):
            with pytest.raises(ValueError, match="non-finite float32"):
                evaluate(TrainedModel(np.full((1, 2), 1e20, np.float32),
                                      items), split,
                         k=2, phase=phase)
    # in float64 the same magnitudes rank: item 4's -1e50 comes last
    items[4] = [-1e30, 0.0]
    got = evaluate(_fixed_model([[1e20, 1e20]], items), split, k=1)
    assert got.recall == 1.0


def _oracle_cases(model, split, ks):
    for k in ks:
        for phase in ("test", "valid"):
            got = evaluate(model, split, k=k, phase=phase)
            assert (got.recall, got.ndcg) == _oracle_evaluate(model, split,
                                                              k, phase)


def test_evaluate_ties_straddling_kth_score():
    """Items 1-4 tie, so for several k the tie straddles the k-th place:
    the lowest-index tied items fill the places left, for every k and
    phase."""
    g = make_graph([(u, i) for u in range(2) for i in range(7)])
    split = Split(graph=g,
                  train_edges=np.array([(0, 6), (1, 0)]),
                  valid_edges=np.array([(0, 1), (1, 4)]),
                  test_edges=np.array([(0, 2), (0, 4), (1, 3), (1, 5)]))
    # user 0 scores [3, 2, 2, 2, 2, 1, 0]; user 1 the same, doubled
    model = _fixed_model([[1.0], [2.0]],
                         [[3.0], [2.0], [2.0], [2.0], [2.0], [1.0], [0.0]])
    # test phase, k=2: user 0 ranks [0, 2], user 1 ranks [1, 2]
    got = evaluate(model, split, k=2, phase="test")
    ideal = 1.0 + 1.0 / math.log2(3)
    assert got.recall == pytest.approx(0.25)
    assert got.ndcg == pytest.approx(0.5 / math.log2(3) / ideal)
    _oracle_cases(model, split, range(1, 9))


def test_evaluate_fewer_rankable_items_than_k():
    """A user with fewer rankable items than k has a k-th score of -inf:
    its rankable items come first, then the excluded ones by index, in
    the same block as a user with enough items."""
    g = make_graph([(u, i) for u in range(2) for i in range(6)])
    split = Split(graph=g,
                  train_edges=np.array([(0, 0), (0, 1), (0, 2), (0, 3),
                                        (1, 0)]),
                  valid_edges=np.array([(0, 4), (1, 1)]),
                  test_edges=np.array([(0, 5), (1, 2)]))
    # item scores fall with the index for user 0 and rise for user 1
    model = _fixed_model([[1.0], [-1.0]],
                         [[6.0], [5.0], [4.0], [3.0], [2.0], [1.0]])
    # test phase, k=4: user 0 ranks [5, 0, 1, 2] (one rankable item);
    # user 1 ranks [5, 4, 3, 2], its test item 2 last
    got = evaluate(model, split, k=4, phase="test")
    assert got.recall == pytest.approx(1.0)
    assert got.ndcg == pytest.approx((1.0 + 1.0 / math.log2(5)) / 2)
    _oracle_cases(model, split, range(1, 9))


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
        [k / (g.num_items
              - len(row_items(split.train, u))
              - len(row_items(split.valid, u)))
         for u in split.test_users]))
    rng = np.random.default_rng(8)
    recalls = []
    for _ in range(60):
        model = _fixed_model(rng.normal(size=(g.num_users, 4)),
                             rng.normal(size=(g.num_items, 4)))
        recalls.append(evaluate(model, split, k=k, phase="test").recall)
    assert np.mean(recalls) == pytest.approx(expected, rel=0.15)
