"""Truncated SVD of sparse matrices by ARPACK (implicitly restarted Lanczos)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def randomized_subspace_svd(A, k, rng=None):
    """Top-k singular triplets (U, s, V) of a sparse or dense matrix, with s
    in descending order.

    ARPACK's ``eigsh`` finds the top-k eigenvectors of the smaller Gram
    matrix, then a dense SVD of A times them gives the triplets, as
    ``scipy.sparse.linalg.svds`` does. It is called directly because
    ``svds`` leaves ARPACK's restart vectors, which repeated singular
    values need, to operating-system entropy; here the start vector and
    every restart vector come from ``rng``, so equal seeds give identical
    triplets. ARPACK cannot return all min(A.shape) triplets, so
    k == min(A.shape) takes a dense SVD. The name predates ARPACK;
    ``models.svdgcn`` and ``bench/trace_cli.py`` look it up.
    """
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, {min(m, n)}], got {k}")
    rng = np.random.default_rng(rng)
    v0 = rng.standard_normal(min(m, n))
    if k == min(m, n):
        U, s, Vt = np.linalg.svd(A.toarray() if sp.issparse(A) else A,
                                 full_matrices=False)
        return U, s, Vt.T
    # imported here, not at module level: scipy.sparse.linalg loads
    # scipy.linalg (about 9 MB and 75 ms per process), and train_model
    # imports this module for every model kind
    from scipy.sparse.linalg import LinearOperator, eigsh
    X = A if m >= n else A.T
    gram = LinearOperator((min(m, n),) * 2, matvec=lambda x: X.T @ (X @ x),
                          dtype=np.float64)
    _, W = eigsh(gram, k, v0=v0, rng=rng)
    W, _ = np.linalg.qr(W)  # ARPACK's vectors drift from orthonormal in clusters
    Y, s, Zt = np.linalg.svd(X @ W, full_matrices=False)
    Z = W @ Zt.T
    return (Y, s, Z) if m >= n else (Z, s, Y)
