"""Recommender machinery: splits, propagation, the trainer and its four models, SVD."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit, softmax

from topocf.evaluation import EvaluationResult
from topocf.models import base
from topocf.models.base import (MODEL_KINDS, Adam, ModelConfig, TrainedModel,
                                Trainer, TrainingDivergedError,
                                bpr_pairs, default_config,
                                pair_gradient, sample_negative_items,
                                softplus, spmm, train_loop, train_model)
from topocf.models.dgcf import DGCFPropagator
from topocf.models.lightgcn import LightGCNPropagator, normalized_operator
from topocf.models.split import Split, SplitError, split_dataset
from topocf.models.svd import randomized_subspace_svd
from topocf.models.svdgcn import SvdGcn, normalized_interactions
from topocf.models.ultragcn import (UltraGCN, beta_factors,
                                    item_cooccurrence_topk)
from topocf.synthetic import heavy_tailed_graph, two_block_graph

from conftest import make_graph, random_bipartite


def _dense_graph(rng, nu=20, ni=15, p=0.5):
    return random_bipartite(rng, max_users=nu, max_items=ni, p=p)


def _split_of(graph, seed=0):
    return split_dataset(graph, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# splits

def test_split_sizes_100_edges(rng):
    g = random_bipartite(rng, max_users=25, max_items=25, p=0.9)
    edges = g.edge_array()
    while len(edges) < 100:
        g = random_bipartite(rng, max_users=25, max_items=25, p=0.9)
        edges = g.edge_array()
    g = make_graph(list(map(tuple, edges[:100])), g.num_users, g.num_items)
    split = _split_of(g)
    assert len(split.test_edges) == 20
    assert len(split.valid_edges) == 8
    assert len(split.train_edges) == 72


def test_split_partitions_are_disjoint_and_complete(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    parts = [set(map(tuple, split.train_edges)),
             set(map(tuple, split.valid_edges)),
             set(map(tuple, split.test_edges))]
    assert not (parts[0] & parts[1] or parts[0] & parts[2]
                or parts[1] & parts[2])
    assert parts[0] | parts[1] | parts[2] == set(map(tuple, g.edge_array()))


def test_split_rejects_tiny_graphs():
    g = make_graph([(0, 0), (0, 1), (1, 0)])
    with pytest.raises(SplitError):
        _split_of(g)


def test_split_untrained_user_not_evaluated():
    g = make_graph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    split = Split(graph=g,
                  train_edges=np.array([(0, 0), (1, 0), (1, 1)]),
                  valid_edges=np.array([(0, 1)]),
                  test_edges=np.array([(2, 2)]))
    # u2 has a test edge but no train edge
    assert list(split.test_users) == []
    assert list(split.valid_users) == [0]


def test_split_determinism(rng):
    g = _dense_graph(rng)
    a, b = _split_of(g, seed=5), _split_of(g, seed=5)
    assert np.array_equal(a.train_edges, b.train_edges)
    assert np.array_equal(a.test_edges, b.test_edges)


# ---------------------------------------------------------------------------
# normalized operator and propagation

def test_normalized_operator_k22():
    edges = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    A = normalized_operator(edges, np.ones(4), 2, 2).toarray()
    # every endpoint has weighted degree 2 -> each entry 1/2
    expected = np.zeros((4, 4))
    expected[:2, 2:] = 0.5
    expected[2:, :2] = 0.5
    np.testing.assert_allclose(A, expected)


def test_normalized_operator_single_edge():
    A = normalized_operator(np.array([(0, 0)]), np.ones(1), 2, 1).toarray()
    assert A[0, 2] == pytest.approx(1.0)
    assert A[2, 0] == pytest.approx(1.0)
    assert A[1].sum() == 0  # isolated user row stays zero


def test_normalized_operator_is_symmetric(rng):
    g = _dense_graph(rng)
    edges = g.edge_array()
    A = normalized_operator(edges, np.ones(len(edges)),
                            g.num_users, g.num_items)
    diff = (A - A.T).toarray()
    assert np.abs(diff).max() < 1e-12


def test_lightgcn_zero_layers_is_identity(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    prop = LightGCNPropagator(split, default_config("lightgcn", layers=0))
    E0 = rng.normal(size=(g.num_users + g.num_items, 8))
    np.testing.assert_array_equal(prop.forward(E0), E0)


def test_lightgcn_layer_norms_stay_bounded(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    prop = LightGCNPropagator(split, default_config("lightgcn", layers=4))
    X = rng.normal(size=(g.num_users + g.num_items, 8))
    bound = np.abs(X).max() * 1.01
    for _ in range(4):
        X = prop.A @ X
        assert np.abs(X).max() <= bound


def test_lightgcn_adjoint_identity(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    prop = LightGCNPropagator(split, default_config("lightgcn", layers=3))
    n = g.num_users + g.num_items
    E0 = rng.normal(size=(n, 6))
    G = rng.normal(size=(n, 6))
    lhs = float((prop.forward(E0) * G).sum())
    rhs = float((E0 * prop.backward(G)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dgcf_adjoint_identity(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    cfg = default_config("dgcf", embedding_dim=8, intents=2, layers=2)
    prop = DGCFPropagator(split, cfg)
    n = g.num_users + g.num_items
    E0 = rng.normal(size=(n, 8))
    G = rng.normal(size=(n, 8))
    out = prop.forward(E0)  # fixes the routed operators
    lhs = float((out * G).sum())
    rhs = float((E0 * prop.backward(G)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _dgcf_per_intent(split, cfg, E0, G):
    """DGCF with K separate per-intent operators, rebuilt at every routing
    iteration: the reference the block-diagonal propagator must match bit
    for bit. Returns (forward output, intent weights, backward of G)."""
    edges = split.train_edges
    num_users, num_items = split.graph.num_users, split.graph.num_items
    chunk = E0.shape[1] // cfg.intents

    def build(weights):
        return [normalized_operator(edges, weights[:, k], num_users, num_items)
                for k in range(cfg.intents)]

    def apply(ops, X):
        Y = np.empty_like(X)
        for k, op in enumerate(ops):
            Y[:, k * chunk:(k + 1) * chunk] = op @ X[:, k * chunk:(k + 1) * chunk]
        return Y

    eu = edges[:, 0]
    ei = num_users + edges[:, 1]
    X = E0
    acc = E0.copy()
    layer_ops = []
    weights = None
    for _ in range(cfg.layers):
        scores = np.zeros((len(edges), cfg.intents))
        for _ in range(cfg.routing_iterations):
            weights = softmax(scores, axis=1)
            for k, op in enumerate(build(weights)):
                Yk = op @ X[:, k * chunk:(k + 1) * chunk]
                scores[:, k] += (Yk[eu] * Yk[ei]).sum(axis=1)
        weights = softmax(scores, axis=1)
        ops = build(weights)
        layer_ops.append(ops)
        X = apply(ops, X)
        acc += X
    B = G
    for ops in reversed(layer_ops):
        B = G + apply(ops, B)
    return acc / (cfg.layers + 1), weights, B / (cfg.layers + 1)


def _split_with_untrained_nodes(seed):
    """A split whose graph has users and items with no train edge."""
    g = heavy_tailed_graph(num_users=30, num_items=20, num_interactions=150,
                           seed=seed)
    split = _split_of(g, seed=seed)
    edges = split.train_edges
    keep = ~np.isin(edges[:, 0], [0, 1]) & ~np.isin(edges[:, 1], [0, 2])
    return Split(graph=g, train_edges=edges[keep],
                 valid_edges=split.valid_edges, test_edges=split.test_edges)


@pytest.mark.parametrize("intents", [1, 2, 4])
@pytest.mark.parametrize("routing_iterations", [0, 1, 2])
@pytest.mark.parametrize("layers", [1, 3])
def test_dgcf_matches_per_intent_operators(intents, routing_iterations,
                                           layers):
    seed = 100 * intents + 10 * routing_iterations + layers
    rng = np.random.default_rng(seed)
    untrained = _split_with_untrained_nodes(seed)
    assert (untrained.train_user_degrees == 0).any()
    assert (untrained.train.item_degrees == 0).any()
    cfg = default_config("dgcf", embedding_dim=8, intents=intents,
                         routing_iterations=routing_iterations, layers=layers)
    for split in (_split_of(two_block_graph(12, 10, 4, seed=seed)), untrained):
        g = split.graph
        prop = DGCFPropagator(split, cfg)
        n = g.num_users + g.num_items
        E0 = rng.normal(0.0, 0.1, size=(n, 8))
        G = rng.normal(size=(n, 8))
        out = prop.forward(E0)
        back = prop.backward(G)
        out_ref, weights_ref, back_ref = _dgcf_per_intent(split, cfg, E0, G)
        assert np.array_equal(out, out_ref)
        assert np.array_equal(prop.extras(E0)["intent_weights"], weights_ref)
        assert np.array_equal(back, back_ref)


def test_dgcf_zero_routing_iterations_gives_uniform_weights(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    cfg = default_config("dgcf", embedding_dim=8, intents=4,
                         routing_iterations=0)
    prop = DGCFPropagator(split, cfg)
    E0 = rng.normal(size=(g.num_users + g.num_items, 8))
    prop.forward(E0)
    np.testing.assert_allclose(prop.extras(E0)["intent_weights"], 0.25)


def test_dgcf_requires_divisible_embedding(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    with pytest.raises(ValueError, match="divisible"):
        DGCFPropagator(split, default_config("dgcf", embedding_dim=10,
                                             intents=4))


def test_dgcf_single_intent_matches_lightgcn(rng):
    g = _dense_graph(rng, nu=15, ni=15)
    split = _split_of(g)
    kw = dict(embedding_dim=16, layers=2, max_epochs=6, eval_interval=100)
    m_light = train_model(split, default_config("lightgcn", **kw),
                          np.random.default_rng(13))
    m_dgcf = train_model(split, default_config("dgcf", intents=1,
                                               routing_iterations=2, **kw),
                         np.random.default_rng(13))
    np.testing.assert_allclose(m_light.user_embeddings,
                               m_dgcf.user_embeddings, atol=1e-9)
    np.testing.assert_allclose(m_light.item_embeddings,
                               m_dgcf.item_embeddings, atol=1e-9)


# ---------------------------------------------------------------------------
# shared training machinery

def test_adam_single_step_reference():
    opt = Adam((2,), lr=0.1)
    param = np.array([1.0, -1.0])
    grad = np.array([0.5, -0.25])
    opt.step(param, grad)
    # bias-corrected first step: m_hat = grad, v_hat = grad^2
    expected = np.array([1.0, -1.0]) - 0.1 * grad / (np.abs(grad) + 1e-8)
    np.testing.assert_allclose(param, expected, atol=1e-9)


def _adam_step_allocating(opt, param, grad):
    """The Adam step as one allocating expression per moment: the
    reference the in-place step must match bit for bit."""
    opt.t += 1
    opt.m = opt.beta1 * opt.m + (1 - opt.beta1) * grad
    opt.v = opt.beta2 * opt.v + (1 - opt.beta2) * grad * grad
    m_hat = opt.m / (1 - opt.beta1 ** opt.t)
    v_hat = opt.v / (1 - opt.beta2 ** opt.t)
    param -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def test_adam_in_place_matches_allocating_steps(rng):
    """The L2 term enters as ``grad + l2 * param``, added before the step."""
    shape = (37, 8)
    for l2 in (0.0, 1e-4, 0.7):
        opt, ref = Adam(shape, lr=1e-2, l2=l2), Adam(shape, lr=1e-2)
        param = rng.normal(size=shape)
        param_ref = param.copy()
        for _ in range(30):
            grad = (rng.normal(size=shape)
                    * rng.choice([1e-12, 1.0, 1e6], size=shape))
            opt.step(param, grad.copy())
            _adam_step_allocating(ref, param_ref, grad + l2 * param_ref)
            assert param.tobytes() == param_ref.tobytes()
            assert opt.m.tobytes() == ref.m.tobytes()
            assert opt.v.tobytes() == ref.v.tobytes()


def test_train_loop_returns_best_validation_model(monkeypatch):
    """The model materialized at the best validation is returned, not the
    state after a later, worse one."""
    g = two_block_graph(num_users=12, num_items=10, interactions_per_user=4,
                        seed=1)
    split = _split_of(g)
    cfg = default_config("lightgcn", embedding_dim=4, max_epochs=4,
                         eval_interval=1, patience=10)
    recalls = iter([0.2, 0.5, 0.1, 0.3])
    evaluated = []

    def scripted(model, split, k, phase):
        evaluated.append(model.user_embeddings.copy())
        return EvaluationResult(k=k, recall=next(recalls), ndcg=0.0,
                                num_users=1)

    monkeypatch.setattr(base, "evaluate", scripted)
    trainer = Trainer(LightGCNPropagator(split, cfg), split, cfg,
                      np.random.default_rng(0))
    model = train_loop(trainer, split, cfg)
    assert len(evaluated) == 4
    assert model.epochs_trained == 4 and not model.stopped_early
    np.testing.assert_array_equal(model.user_embeddings, evaluated[1])
    last = trainer.materialize()
    np.testing.assert_array_equal(last.user_embeddings, evaluated[3])
    assert not np.array_equal(model.user_embeddings, last.user_embeddings)


def test_softplus_matches_logaddexp(rng):
    x = np.concatenate([[0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0],
                        rng.normal(size=2000), 30 * rng.normal(size=2000)])
    got, expected = softplus(x), np.logaddexp(0.0, x)
    # within 2 ULP of the reference, and equal where it underflows to 0
    np.testing.assert_array_max_ulp(got, expected, maxulp=2)
    special = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(softplus(special),
                                      np.logaddexp(0.0, special))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_diverged_error_on_overflowing_loss(kind):
    g = two_block_graph(num_users=12, num_items=10, interactions_per_user=4,
                        seed=1)
    split = _split_of(g)
    cfg = default_config(kind, embedding_dim=4, svd_rank=3, negatives=3,
                         item_topk=3)
    trainer = Trainer(_MODEL_CLASSES[kind](split, cfg), split, cfg,
                      np.random.default_rng(0))
    trainer.P *= 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDivergedError, match="epoch 1"):
        train_loop(trainer, split, cfg)


def test_bpr_loss_hand_value():
    # user 0, positive item 0 (node 1), negative item 1 (node 2)
    E = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    gathers = [np.empty((1, 2)), np.empty((1, 2))]
    loss, terms = bpr_pairs(np.array([0]), np.array([0]), np.array([1]), E,
                            1, gathers)
    coeff = terms[0][2]
    assert loss == pytest.approx(math.log(1 + math.exp(-1.0)))
    assert coeff[0] == pytest.approx(-1.0 / (1.0 + math.exp(1.0)))
    np.testing.assert_array_equal(terms[1][2], -coeff)


def _train_only_split(pos_sets, num_items):
    """Split whose train edges are exactly the given per-user item sets."""
    edges = [(u, i) for u, items in enumerate(pos_sets) for i in items]
    g = make_graph(edges, len(pos_sets), num_items)
    return Split(graph=g, train_edges=g.edge_array(),
                 valid_edges=np.empty((0, 2), dtype=np.int64),
                 test_edges=np.empty((0, 2), dtype=np.int64))


def test_sample_negative_items_avoids_train_positives(rng):
    pos_sets = [{0, 1, 2}, {3}, set(range(9))]
    users = np.array([0, 1, 2] * 20)
    split = _train_only_split(pos_sets, 10)
    negs = sample_negative_items(rng, users, split)
    for u, j in zip(users, negs):
        assert int(j) not in pos_sets[u]


def _sample_negative_items_loop(rng, users, pos_sets, num_items):
    """Per-row resampling against Python sets: the reference the
    vectorized sampler must match draw for draw."""
    n = len(users)
    negs = rng.integers(num_items, size=n)
    resample = np.array([len(pos_sets[u]) < num_items for u in users])
    mask = np.array([resample[j] and int(negs[j]) in pos_sets[users[j]]
                     for j in range(n)])
    while mask.any():
        idx = np.flatnonzero(mask)
        negs[idx] = rng.integers(num_items, size=len(idx))
        mask[idx] = [int(negs[j]) in pos_sets[users[j]] for j in idx]
    return negs


def test_sample_negative_items_matches_set_loop(rng):
    for trial in range(40):
        num_items = int(rng.integers(1, 12))
        pos_sets = [set(np.flatnonzero(rng.random(num_items) < 0.6).tolist())
                    for _ in range(int(rng.integers(1, 8)))]
        pos_sets[0] = set(range(num_items))  # full: never resampled
        pos_sets.append(set())               # no train edge at all
        users = rng.integers(len(pos_sets), size=int(rng.integers(1, 50)))
        split = _train_only_split(pos_sets, num_items)
        seed = int(rng.integers(2**32))
        fast_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        got = sample_negative_items(fast_rng, users, split)
        expected = _sample_negative_items_loop(loop_rng, users, pos_sets,
                                               num_items)
        np.testing.assert_array_equal(got, expected)
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


def _pair_gradient_add_at(rows, cols, coeffs, E):
    """Row-by-row scatter: the reference pair_gradient must match."""
    G = np.zeros_like(E)
    np.add.at(G, rows, coeffs[:, None] * E[cols])
    np.add.at(G, cols, coeffs[:, None] * E[rows])
    return G


def test_pair_gradient_matches_add_at(rng):
    for trial in range(30):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(0, 200))
        rows = rng.integers(n, size=m)
        cols = rng.integers(n, size=m)
        cols[:m // 4] = rows[:m // 4]  # self pairs
        rows[m // 2:] = rows[:m - m // 2]  # repeated pairs
        cols[m // 2:] = cols[:m - m // 2]
        coeffs = rng.normal(size=m)
        E = rng.normal(size=(n, 5))
        cut = int(rng.integers(0, m + 1))
        terms = [(rows[:cut], cols[:cut], coeffs[:cut]),
                 (rows[cut:], cols[cut:], coeffs[cut:])]
        tables = (np.empty_like(E), np.empty_like(E))
        got = pair_gradient(terms, E, tables)
        np.testing.assert_allclose(got,
                                   _pair_gradient_add_at(rows, cols, coeffs, E),
                                   rtol=1e-12, atol=1e-12)
        # the same sums, in the same order, as the COO matrix's products
        C = sp.coo_matrix((coeffs, (rows, cols)), shape=(n, n))
        assert got.tobytes() == (C @ E + C.T @ E).tobytes()


def _assert_spmm_matches_matmul(A, X):
    out = np.full((A.shape[0], X.shape[1]), np.nan)
    got = spmm(A, X, out)
    assert got is out
    assert out.tobytes() == (A @ X).tobytes()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_spmm_matches_matmul(rng, index_dtype):
    """spmm runs the kernel A @ X runs, bit for bit, whatever ``out``
    held before; rows 0 and 3 of A are empty."""
    for trial in range(10):
        m, n = int(rng.integers(5, 40)), int(rng.integers(1, 40))
        A = sp.random(m, n, density=0.3, format="csr", random_state=trial)
        A.data = rng.normal(size=A.nnz) * rng.choice([1e-8, 1.0, 1e8],
                                                     size=A.nnz)
        for row in (0, 3):
            A.data[A.indptr[row]:A.indptr[row + 1]] = 0.0
        A.eliminate_zeros()
        A.indices = A.indices.astype(index_dtype)
        A.indptr = A.indptr.astype(index_dtype)
        assert A.indices.dtype == index_dtype
        assert not A.getnnz(axis=1)[[0, 3]].any()
        for width in (1, 2, 7, 64):
            _assert_spmm_matches_matmul(A, rng.normal(size=(n, width)))


def test_spmm_matches_matmul_on_dgcf_operators(rng):
    g = heavy_tailed_graph(num_users=60, num_items=30, num_interactions=400,
                           seed=2)
    split = _split_of(g)
    cfg = default_config("dgcf", embedding_dim=16, intents=4)
    prop = DGCFPropagator(split, cfg)
    n = g.num_users + g.num_items
    prop.forward(rng.normal(0.0, 0.1, size=(n, 16)))
    for op in [prop.uniform_op, *prop.layer_ops]:
        _assert_spmm_matches_matmul(op, rng.normal(size=(4 * n, 4)))


def test_spmm_rejects_bad_operands(rng):
    A = sp.random(6, 5, density=0.5, format="csr", random_state=0)
    X, out = rng.normal(size=(5, 4)), np.empty((6, 4))
    bad = [(A, np.asfortranarray(X), out), (A, X, np.asfortranarray(out)),
           (A, rng.normal(size=(5, 8))[:, ::2], out),
           (A, X, np.empty((6, 8))[:, ::2]),
           (A, rng.normal(size=(4, 4)), out), (A, X, np.empty((6, 3))),
           (A, X, np.empty((5, 4))), (A, X.astype(np.float32), out),
           (A.tocoo(), X, out), (sp.random(5, 5, format="csr"), X, X)]
    for args in bad:
        with pytest.raises(ValueError):
            spmm(*args)


_MODEL_CLASSES = {"lightgcn": LightGCNPropagator, "dgcf": DGCFPropagator,
                  "ultragcn": UltraGCN, "svdgcn": SvdGcn}


@pytest.mark.parametrize("kind", ["lightgcn", "dgcf", "svdgcn"])
def test_training_step_allocates_less_than_one_table(kind):
    """After two warm-up steps, a step's traced allocation peak stays below
    one node x dim float64 table: its tables are the model's buffers."""
    g = heavy_tailed_graph(num_users=900, num_items=450,
                           num_interactions=2500, seed=3)
    split = _split_of(g)
    cfg = default_config(kind)
    trainer = Trainer(_MODEL_CLASSES[kind](split, cfg), split, cfg,
                      np.random.default_rng(0))
    order = np.random.default_rng(1).permutation(len(split.train_edges))
    batch = split.train_edges[order[:cfg.batch_size]]
    trainer.step(batch)
    trainer.step(batch)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        trainer.step(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = (g.num_users + g.num_items) * cfg.embedding_dim * 8
    assert peak - start < table


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batch_gradient_matches_finite_differences(kind):
    """backward(G) for the G of batch_gradient is the gradient in P of the
    batch loss. DGCF routes with zero iterations because its backward pass
    treats the routing weights as constants."""
    g = two_block_graph(num_users=12, num_items=10, interactions_per_user=4,
                        seed=1)
    split = _split_of(g)
    cfg = default_config(kind, embedding_dim=4, layers=2, intents=2,
                         routing_iterations=0, negatives=3, item_topk=3,
                         svd_rank=3)
    model = _MODEL_CLASSES[kind](split, cfg)
    P = model.init_params(np.random.default_rng(0))
    batch = split.train_edges[::3]

    def batch_loss(P):
        E = model.forward(P)
        return model.batch_gradient(np.random.default_rng(5), batch, split,
                                    E)[0]

    E = model.forward(P)
    _, G = model.batch_gradient(np.random.default_rng(5), batch, split, E)
    grad = model.backward(G).copy()
    h = 1e-6
    numeric = np.zeros_like(P)
    for idx in np.ndindex(P.shape):
        step = np.zeros_like(P)
        step[idx] = h
        numeric[idx] = (batch_loss(P + step) - batch_loss(P - step)) / (2 * h)
    assert np.abs(grad).max() > 1e-3
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_train_loop_divergence_raises():
    class BadTrainer:
        def run_epoch(self, epoch):
            return float("nan")

    g = make_graph([(u, i) for u in range(4) for i in range(4)])
    split = _split_of(g)
    with pytest.raises(TrainingDivergedError, match="epoch 1"):
        train_loop(BadTrainer(), split, default_config("lightgcn"))


def test_training_is_deterministic(rng):
    g = _dense_graph(rng, nu=15, ni=15)
    split = _split_of(g)
    for kind in ("lightgcn", "dgcf", "ultragcn", "svdgcn"):
        cfg = default_config(kind, embedding_dim=16, svd_rank=8,
                            max_epochs=4, eval_interval=100, negatives=5,
                            batch_size=64)
        a = train_model(split, cfg, np.random.default_rng(21))
        b = train_model(split, cfg, np.random.default_rng(21))
        np.testing.assert_array_equal(a.user_embeddings, b.user_embeddings)
        np.testing.assert_array_equal(a.item_embeddings, b.item_embeddings)


def test_training_loss_decreases(rng):
    g = two_block_graph(num_users=40, num_items=40, interactions_per_user=10,
                        seed=6)
    split = _split_of(g)
    cfg = default_config("lightgcn", embedding_dim=16)
    trainer = Trainer(LightGCNPropagator(split, cfg), split, cfg,
                      np.random.default_rng(3))
    losses = [trainer.run_epoch(e) for e in range(1, 31)]
    assert losses[-1] < losses[0]


def test_early_stopping_restores_best(rng):
    g = two_block_graph(num_users=40, num_items=40, interactions_per_user=10,
                        seed=6)
    split = _split_of(g)
    cfg = default_config("lightgcn", embedding_dim=16, max_epochs=200,
                        eval_interval=1, patience=3)
    model = train_model(split, cfg, np.random.default_rng(5))
    assert model.stopped_early
    assert model.epochs_trained < 200


# ---------------------------------------------------------------------------
# UltraGCN specifics

def test_beta_coefficient_values():
    """beta(u, i) = (1/sigma_u) sqrt((sigma_u+1)/(sigma_i+1)) = a[u] r[i]."""
    a, r = beta_factors([1.0, 2.0, 1.0, 4.0], [3.0, 2.0, 1.0, 4.0])
    expected = [math.sqrt(0.5), 0.5, 1.0, 0.25]
    for got, want in zip(a * r, expected):
        assert got == pytest.approx(want, rel=1e-15)


def test_item_cooccurrence_topk_matches_bruteforce(rng):
    g = _dense_graph(rng)
    split = _split_of(g)
    k = 3
    neighbors, omega, mask, skipped = item_cooccurrence_topk(split, k)
    R = sp.csr_matrix(
        (np.ones(len(split.train_edges)),
         (split.train_edges[:, 0], split.train_edges[:, 1])),
        shape=(g.num_users, g.num_items))
    G = (R.T @ R).toarray()
    sigma = G.sum(axis=1)
    for i in range(g.num_items):
        row = G[i].copy()
        denom = sigma[i] - row[i]
        row[i] = 0.0
        if denom <= 0 or row.sum() == 0:
            assert not mask[i].any()
            continue
        # weight descending, index ascending on ties
        order = sorted(np.flatnonzero(row), key=lambda j: (-row[j], j))[:k]
        chosen = list(neighbors[i][mask[i]])
        assert chosen == order
        for slot, j in enumerate(order):
            expected = (row[j] / denom) * math.sqrt(sigma[i] / sigma[j])
            assert omega[i, slot] == pytest.approx(expected, abs=1e-12)


def _item_cooccurrence_topk_loop(split, k):
    """Per-item loop over co-occurrence rows: the reference the vectorized
    top-k must match exactly."""
    g = split.graph
    edges = split.train_edges
    R = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                      shape=(g.num_users, g.num_items))
    RI = (R.T @ R).tocsr()
    sigma = np.asarray(RI.sum(axis=1)).ravel()
    denom = sigma - RI.diagonal()
    neighbors = np.zeros((g.num_items, k), dtype=np.int64)
    omega = np.zeros((g.num_items, k))
    mask = np.zeros((g.num_items, k), dtype=bool)
    skipped = 0
    for i in range(g.num_items):
        row = RI.getrow(i)
        off = row.indices != i
        idx = row.indices[off]
        dat = row.data[off]
        if denom[i] <= 0 or len(idx) == 0:
            if sigma[i] > 0:
                skipped += 1
            continue
        order = np.lexsort((idx, -dat))[:k]
        sel = idx[order]
        neighbors[i, :len(sel)] = sel
        omega[i, :len(sel)] = (dat[order] / denom[i]) * np.sqrt(sigma[i] / sigma[sel])
        mask[i, :len(sel)] = True
    return neighbors, omega, mask, skipped


def test_item_cooccurrence_topk_matches_loop(rng):
    skipped_seen = 0
    for trial in range(40):
        num_items = int(rng.integers(1, 15))
        pos_sets = [set(np.flatnonzero(rng.random(num_items) < p).tolist())
                    for p in rng.uniform(0.05, 0.7, size=int(rng.integers(1, 12)))]
        pos_sets.append({num_items - 1})  # a single-item user
        split = _train_only_split(pos_sets, num_items)
        for k in (1, 3, 20):
            got = item_cooccurrence_topk(split, k)
            expected = _item_cooccurrence_topk_loop(split, k)
            for a, b in zip(got[:3], expected[:3]):
                np.testing.assert_array_equal(a, b)
            assert got[3] == expected[3]
        skipped_seen += expected[3]
    assert skipped_seen > 0


def _ultragcn_batch_gradient_gather(model, rng, batch, split, E):
    """UltraGCN's batch loss with each pair's embeddings gathered and scored
    by einsum, its beta weights computed per pair, and its gradient made by
    pair_gradient: the reference batch_gradient must match."""
    cfg = model.cfg
    deg_u = np.maximum(split.train_user_degrees, 1).astype(np.float64)
    deg_i = split.train.item_degrees.astype(np.float64)

    def beta(du, di):
        return (1.0 / du) * np.sqrt((du + 1.0) / (di + 1.0))

    users, pos = batch[:, 0], batch[:, 1]
    B = len(batch)
    Ei = E[model.num_users:]
    eu = E[users]

    s_pos = (eu * Ei[pos]).sum(axis=1)
    w_pos = beta(deg_u[users], deg_i[pos])
    loss = float((w_pos * np.logaddexp(0.0, -s_pos)).sum())
    c_pos = -w_pos * expit(-s_pos) / B

    negs = rng.integers(model.num_items, size=(B, cfg.negatives))
    w_neg = beta(deg_u[users][:, None], deg_i[negs])
    s_neg = np.einsum("bd,bnd->bn", eu, Ei[negs])
    loss += float((w_neg * np.logaddexp(0.0, s_neg)).sum()) / cfg.negatives
    c_neg = w_neg * expit(s_neg) / (B * cfg.negatives)

    neighbors, omega, mask, _ = item_cooccurrence_topk(split, cfg.item_topk)
    nb = neighbors[pos]
    om = omega[pos] * mask[pos]
    s_ii = np.einsum("bd,bkd->bk", eu, Ei[nb])
    loss += cfg.item_loss_weight * float((om * np.logaddexp(0.0, -s_ii)).sum())
    c_ii = -cfg.item_loss_weight * om * expit(-s_ii) / B

    return loss / B, pair_gradient([
        (users, model.num_users + pos, c_pos),
        (np.repeat(users, cfg.negatives), model.num_users + negs.ravel(),
         c_neg.ravel()),
        (np.repeat(users, nb.shape[1]), model.num_users + nb.ravel(),
         c_ii.ravel()),
    ], E, (np.empty_like(E), np.empty_like(E)))


def _assert_ultragcn_matches_gather(model, split, E, batches):
    """Consecutive batches on one model, so its reused buffers carry
    nothing from one batch into the next."""
    rng_got, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
    for batch in batches:
        loss, G = model.batch_gradient(rng_got, batch, split, E)
        loss_ref, G_ref = _ultragcn_batch_gradient_gather(model, rng_ref,
                                                          batch, split, E)
        assert rng_got.bit_generator.state == rng_ref.bit_generator.state
        assert loss == pytest.approx(loss_ref, rel=1e-12)
        np.testing.assert_allclose(G, G_ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(G_ref).max())


@pytest.mark.parametrize("num_items", [40, 700])
def test_ultragcn_batch_gradient_matches_gather(num_items):
    """Catalogues smaller and larger than the 300 default negatives; a full
    batch with repeated users, a short last batch, then a full one again."""
    g = heavy_tailed_graph(num_users=300, num_items=num_items,
                           num_interactions=3000, seed=4)
    split = _split_of(g)
    cfg = default_config("ultragcn")
    model = UltraGCN(split, cfg)
    E = model.forward(model.init_params(np.random.default_rng(1)))
    edges = split.train_edges
    first = edges[:cfg.batch_size]
    assert len(np.unique(first[:, 0])) < len(first)
    _assert_ultragcn_matches_gather(model, split, E, [
        first, edges[cfg.batch_size:cfg.batch_size + 37],
        edges[-cfg.batch_size:]])


def test_ultragcn_item_zero_neighbor_among_padding():
    """Item 5 co-occurs with item 0 only, so its first neighbor slot is a
    real item 0 and its other slots are padding that also holds item 0:
    the real slope must survive the padding's zero slopes."""
    split = _train_only_split([{0, 5}, {1, 2, 3}, {2, 3, 4}, {5}, {1, 4}], 6)
    cfg = default_config("ultragcn", embedding_dim=8, negatives=4)
    model = UltraGCN(split, cfg)
    assert list(model.neighbors[5]) == [0] * cfg.item_topk
    assert model.omega[5, 0] > 0 and not model.omega[5, 1:].any()
    E = model.forward(model.init_params(np.random.default_rng(2)))
    edges = split.train_edges
    _assert_ultragcn_matches_gather(model, split, E, [edges, edges[::2]])


def test_ultragcn_release_drops_buffers():
    g = heavy_tailed_graph(num_users=60, num_items=30, num_interactions=400,
                           seed=2)
    split = _split_of(g)
    cfg = default_config("ultragcn", batch_size=64, max_epochs=2,
                         eval_interval=1)
    trainer = Trainer(UltraGCN(split, cfg), split, cfg,
                      np.random.default_rng(0))
    trainer.run_epoch(1)
    assert trainer.model.buffers is not None
    trainer.materialize()
    assert trainer.model.buffers is None
    trainer.run_epoch(2)
    assert trainer.model.buffers is not None


# ---------------------------------------------------------------------------
# SVD machinery

def test_randomized_svd_matches_dense_svd(rng):
    for _ in range(5):
        A = rng.normal(size=(30, 20))
        U, s, V = randomized_subspace_svd(A, 6, rng=rng)
        U_ref, s_ref, Vt_ref = np.linalg.svd(A)
        np.testing.assert_allclose(s, s_ref[:6], atol=1e-8)
        # compare reconstructions (vectors may differ by sign)
        np.testing.assert_allclose((U * s) @ V.T,
                                   (U_ref[:, :6] * s_ref[:6]) @ Vt_ref[:6],
                                   atol=1e-7)


def test_randomized_svd_sparse_input(rng):
    A = sp.random(40, 30, density=0.2, random_state=7, format="csr")
    U, s, V = randomized_subspace_svd(A, 5, rng=rng)
    s_ref = np.linalg.svd(A.toarray(), compute_uv=False)
    np.testing.assert_allclose(s, s_ref[:5], atol=1e-8)
    np.testing.assert_allclose(U.T @ U, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-10)


def test_randomized_svd_rank_validation(rng):
    A = rng.normal(size=(5, 4))
    with pytest.raises(ValueError):
        randomized_subspace_svd(A, 0)
    with pytest.raises(ValueError):
        randomized_subspace_svd(A, 5)


def test_randomized_svd_full_rank_matches_dense_svd(rng):
    """k == min(shape), which ARPACK cannot compute."""
    for A in (rng.normal(size=(12, 9)),
              sp.random(9, 14, density=0.5, random_state=3, format="csr")):
        k = min(A.shape)
        U, s, V = randomized_subspace_svd(A, k, rng=rng)
        dense = A.toarray() if sp.issparse(A) else A
        np.testing.assert_allclose(s, np.linalg.svd(dense, compute_uv=False),
                                   atol=1e-12)
        np.testing.assert_allclose((U * s) @ V.T, dense, atol=1e-12)
        np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)


def test_randomized_svd_near_degenerate_cut(rng):
    """A slowly decaying spectrum whose k-th and (k+1)-th singular values
    are only 6e-5 apart."""
    m, n, k = 200, 150, 20
    s_true = np.geomspace(1.0, 0.5, n)
    s_true[k:] *= (s_true[k - 1] - 6e-5) / s_true[k]
    Uo, _ = np.linalg.qr(rng.normal(size=(m, n)))
    Vo, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = sp.csr_matrix((Uo * s_true) @ Vo.T)
    U, s, V = randomized_subspace_svd(A, k, rng=rng)
    U_ref, s_ref, Vt_ref = np.linalg.svd(A.toarray())
    assert s_ref[k - 1] - s_ref[k] == pytest.approx(6e-5, rel=1e-6)
    np.testing.assert_allclose(s, s_ref[:k], atol=1e-10)
    np.testing.assert_allclose((U * s) @ V.T,
                               (U_ref[:, :k] * s_ref[:k]) @ Vt_ref[:k],
                               atol=1e-10)


def test_randomized_svd_equal_seeds_are_identical():
    """Twelve disjoint K_{3,2} blocks: one singular value sqrt(6) twelve
    times over. ARPACK must restart from new vectors to find the repeats,
    and those must come from the seed too."""
    A = sp.csr_matrix(np.kron(np.eye(12), np.ones((3, 2))))
    first = randomized_subspace_svd(A, 6, rng=np.random.default_rng(11))
    second = randomized_subspace_svd(A, 6, rng=np.random.default_rng(11))
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()
    U, s, V = first
    np.testing.assert_allclose(s, np.sqrt(6.0), atol=1e-10)
    np.testing.assert_allclose(A @ V, U * s, atol=1e-10)
    np.testing.assert_allclose(U.T @ U, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-10)


def test_normalized_interactions_k22_rank_one():
    k22 = make_graph([(0, 0), (0, 1), (1, 0), (1, 1)])
    Rn = normalized_interactions(k22, a2=0.0)
    np.testing.assert_allclose(Rn.toarray(), 0.5)
    top = np.linalg.svd(Rn.toarray(), compute_uv=False)[0]
    assert top == pytest.approx(1.0, abs=1e-12)


def test_spectral_bound_on_random_graphs(rng):
    """Top singular value of the damped normalization stays below
    d_max / (d_max + a2)."""
    a2 = 2.0
    for _ in range(50):
        g = _dense_graph(rng)
        Rn = normalized_interactions(g, a2)
        top = np.linalg.svd(Rn.toarray(), compute_uv=False)[0]
        d_max = max(int(g.user_degrees.max()), int(g.item_degrees.max()))
        assert top <= d_max / (d_max + a2) + 1e-6


def test_svdgcn_features_without_sharpening(rng):
    g = _dense_graph(rng, nu=15, ni=15)
    split = _split_of(g)
    cfg = default_config("svdgcn", svd_rank=6, embedding_dim=6, a1=0.0)
    trainer = Trainer(SvdGcn(split, cfg), split, cfg, np.random.default_rng(2))
    # with a1=0 the features are the raw singular vectors; an identity
    # transform must return them unchanged
    trainer.P = np.eye(6)
    model = trainer.materialize()
    Rn = normalized_interactions(split.train, cfg.a2)
    s_ref = np.linalg.svd(Rn.toarray(), compute_uv=False)
    np.testing.assert_allclose(model.extras["singular_values"], s_ref[:6],
                               atol=1e-8)
    np.testing.assert_allclose(np.linalg.norm(model.user_embeddings, axis=0),
                               1.0, atol=1e-8)


def test_cooccurrence_pairs_symmetry(rng):
    """SVD-GCN's pair pools are the distinct co-occurring (v, w), v < w,
    of the train graph on each side, in (v, w) order."""
    g = _dense_graph(rng)
    split = _split_of(g)
    model = SvdGcn(split, default_config("svdgcn", svd_rank=4))
    user_sets = [set() for _ in range(g.num_users)]
    item_sets = [set() for _ in range(g.num_items)]
    for u, i in split.train_edges:
        user_sets[u].add(int(i))
        item_sets[i].add(int(u))
    for pairs, sets in ((model.user_pairs, user_sets),
                        (model.item_pairs, item_sets)):
        expected = {(v, w) for v in range(len(sets))
                    for w in range(v + 1, len(sets)) if sets[v] & sets[w]}
        assert len(expected) > 0
        assert set(map(tuple, pairs.tolist())) == expected
        assert len(pairs) == len(expected)
        assert np.array_equal(np.lexsort((pairs[:, 1], pairs[:, 0])),
                              np.arange(len(pairs)))
