"""topocf.csr against scipy.sparse as the oracle, comparing bytes."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from topocf import csr
from topocf.csr import CSR, coo_matmul_add, scatter_add
from topocf.graph import project

from conftest import from_scipy, make_graph, random_bipartite


def _random_csr(rng, trial):
    """A scipy CSR with empty rows and columns and values of mixed scale."""
    m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    A = sp.random(m, n, density=float(rng.uniform(0.0, 0.5)), format="csr",
                  random_state=trial)
    A.data = rng.normal(size=A.nnz) * rng.choice([1e-8, 1.0, 1e8], size=A.nnz)
    return A


def _assert_same(got, want):
    """A CSR equals a canonical scipy CSR: the same int64 index arrays and
    the same values, bit for bit."""
    assert got.shape == want.shape
    assert got.indptr.tobytes() == want.indptr.astype(np.int64).tobytes()
    assert got.indices.tobytes() == want.indices.astype(np.int64).tobytes()
    assert got.data.tobytes() == want.data.tobytes()


def test_transpose_matches_scipy(rng):
    for trial in range(30):
        A = _random_csr(rng, trial)
        got = from_scipy(A)
        _assert_same(got.T, A.T.tocsr())
        _assert_same(got.T.T, A)
        assert got.T is got.T  # built once


def test_coo_matmul_add_matches_scipy(rng):
    """Triples with repeated pairs, and none, sum as scipy's COO product
    sums them, added one by one to what ``out`` held: scipy's product whose
    first m triples copy that start into its zeroed result."""
    for trial in range(30):
        m, n = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        k = int(rng.integers(0, 80)) if trial else 0
        rows, cols = rng.integers(m, size=k), rng.integers(n, size=k)
        rows[k // 2:] = rows[:k - k // 2]  # repeated pairs
        cols[k // 2:] = cols[:k - k // 2]
        values = rng.normal(size=k)
        X = rng.normal(size=(n, int(rng.integers(1, 6))))
        start = (rng.normal(size=(m, X.shape[1])) if trial % 2
                 else np.zeros((m, X.shape[1])))
        out = start.copy()
        coo_matmul_add(rows, cols, values, X, out)
        C = sp.coo_matrix((np.append(np.ones(m), values),
                           (np.append(np.arange(m), rows),
                            np.append(n + np.arange(m), cols))),
                          shape=(m, n + m))
        assert out.tobytes() == (C @ np.vstack([X, start])).tobytes()


def test_matmul_matches_scipy_on_dense_operands(rng):
    """@ on 1-D and 2-D operands, contiguous or not, for A and for its
    transpose (which scipy multiplies as a CSC matrix)."""
    for trial in range(30):
        A = _random_csr(rng, trial)
        got = from_scipy(A)
        m, n = A.shape
        for mine, theirs, width in ((got, A, n), (got.T, A.T, m)):
            x = rng.normal(size=width)
            assert (mine @ x).tobytes() == (theirs @ x).tobytes()
            for cols in (1, 3, 16):
                X = rng.normal(size=(width, cols))
                assert (mine @ X).tobytes() == (theirs @ X).tobytes()
                F = np.asfortranarray(X)
                assert (mine @ F).tobytes() == (theirs @ F).tobytes()
    n = got.shape[1]
    for bad in (np.ones(n + 1), np.ones(n, np.float32), np.ones((n, 1, 1))):
        with pytest.raises(ValueError):
            got @ bad


def test_scale_matches_scipy(rng):
    for trial in range(10):
        A = _random_csr(rng, trial)
        r, c = rng.normal(size=A.shape[0]), rng.normal(size=A.shape[1])
        got = from_scipy(A.copy())
        got.scale(r, c)
        want = (sp.diags(r) @ A @ sp.diags(c)).tocsr()
        want.sort_indices()
        assert got.data.tobytes() == want.data.tobytes()


def test_scatter_add_matches_scipy(rng):
    for trial in range(10):
        size, k = int(rng.integers(1, 50)), int(rng.integers(0, 200))
        index, values = rng.integers(size, size=k), rng.normal(size=k)
        out = np.zeros(size)
        scatter_add(out, index, values)
        want = sp.coo_array((values, (index,)), shape=(size,)).toarray()
        assert out.tobytes() == want.tobytes()
        # into a block, from 2-D index and value tables, as UltraGCN adds
        flat = rng.integers(3 * size, size=k)
        block = np.zeros((size, 3))
        scatter_add(block, flat.reshape(-1, 1), values.reshape(-1, 1))
        want = sp.coo_array((values, (flat,)), shape=(3 * size,)).toarray()
        assert block.tobytes() == want.tobytes()


@pytest.mark.parametrize("partition", ["user", "item"])
def test_project_matches_scipy_triu(rng, partition):
    """project's pairs, weights and degrees against scipy's
    triu(R @ R.T, 1), on graphs with users and items of degree 0."""
    for _ in range(30):
        g = random_bipartite(rng, max_users=12, max_items=12, p=0.3)
        edges = g.edge_array()
        g = make_graph(edges, num_users=g.num_users + 2,
                       num_items=g.num_items + 3)
        R = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(g.num_users, g.num_items))
        if partition == "item":
            R = R.T.tocsr()
        P = sp.triu(R @ R.T, k=1, format="csr")
        P.sort_indices()
        v = np.repeat(np.arange(R.shape[0], dtype=np.int64), np.diff(P.indptr))
        w = P.indices.astype(np.int64)
        degrees = (np.bincount(v, minlength=R.shape[0])
                   + np.bincount(w, minlength=R.shape[0]))
        got = project(g, partition)
        assert got.n == R.shape[0]
        assert got.v.tobytes() == v.tobytes()
        assert got.w.tobytes() == w.tobytes()
        assert got.weight.tobytes() == P.data.tobytes()
        assert got.degrees.tobytes() == degrees.tobytes()


def test_csr_indices_are_int64():
    A = CSR(np.array([0, 1, 1], np.int32), np.array([2], np.int32),
            np.ones(1), (2, 3))
    assert A.indptr.dtype == A.indices.dtype == np.int64
    assert A.nnz == 1 and A.shape == (2, 3)


def test_kernels_load_without_scipy_and_are_scipys_module():
    code = ("import sys\n"
            "import topocf.csr\n"
            "assert 'scipy' not in sys.modules\n"
            "from scipy.sparse import _sparsetools\n"
            "assert _sparsetools is topocf.csr._sparsetools\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_missing_kernels_raise_import_error_naming_scipy(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy"):
        csr._load_sparsetools()


def test_kernels_reject_out_of_range_operands():
    """The kernels do not check bounds, so their callers do."""
    X, out = np.ones((2, 3)), np.zeros((2, 3))
    with pytest.raises(ValueError):
        coo_matmul_add(np.array([0, 2]), np.array([0, 0]), np.ones(2), X, out)
    with pytest.raises(ValueError):
        coo_matmul_add(np.array([0]), np.array([-1]), np.ones(1), X, out)
    with pytest.raises(ValueError):
        coo_matmul_add(np.array([0]), np.array([0, 1]), np.ones(1), X, out)
    with pytest.raises(ValueError):
        coo_matmul_add(np.array([0]), np.array([0]), np.ones(1), X, X)
    with pytest.raises(ValueError):
        scatter_add(np.zeros((2, 2)), np.array([4]), np.ones(1))
    with pytest.raises(ValueError):
        scatter_add(np.zeros(3), np.array([0, 1]), np.ones(1))
    A = CSR(np.array([0, 1, 1]), np.array([2]), np.ones(1), (2, 3))
    with pytest.raises(ValueError):
        A.scale(np.ones(2), np.ones(2))
