"""Truncated SVD of sparse matrices by thick-restart Lanczos, in numpy.

The top-k eigenvectors of the smaller Gram matrix G = X^T X come from a
thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22(2),
2000) that reorthogonalizes against the whole basis and locks converged
pairs; each step applies G as two sparse products. The normalized
interactions of a split graph repeat singular values many times over
(each isolated edge, or pendant pair on a shared hub, adds a copy), and
one Krylov sequence holds one copy of each, so random probes of the
space the basis leaves out look for the copies it lacks. Nothing here
imports ``scipy.linalg`` or ``scipy.sparse.linalg``, which would add
about 28 MB to every process that trains SVD-GCN, or ``numpy.ma`` (1.3
MB), which ``np.unique`` without flags loads, and ``np.setdiff1d`` with
it. A sparse input needs only ``shape``, ``T`` and ``@``: SVD-GCN's
``topocf.csr.CSR`` builds its transpose once, at the first step, not at
every one.
"""

from __future__ import annotations

import numpy as np

# A Ritz pair has converged when its Lanczos residual |beta * s_{m,i}| is
# at most TOL times the scale: the largest projection seen so far.
TOL = np.finfo(np.float64).eps
# A residual vector below INVARIANT times the scale means the basis spans
# an invariant subspace (repeated singular values, disconnected graphs,
# rank < k), and the basis continues from a fresh random direction; Ritz
# values that close count as equal.
INVARIANT = 1e-12
# On split heavy-tailed graphs a solve takes up to about 100 restarts.
MAX_RESTARTS = 1000


class SvdConvergenceError(RuntimeError):
    """The top-k triplets did not converge within MAX_RESTARTS restarts."""


class Triplets(tuple):
    """``(U, s, V)``, and how the solver got there: ``restarts``, and
    ``max_residual``, the largest Lanczos residual of the k triplets
    relative to the scale of X^T X (at most TOL)."""

    def __new__(cls, U, s, V, restarts, max_residual):
        self = super().__new__(cls, (U, s, V))
        self.restarts, self.max_residual = restarts, max_residual
        return self


def randomized_subspace_svd(A, k, rng):
    """Top-k singular triplets (U, s, V) of a sparse or dense matrix, with s
    in descending order and each pair's sign fixed so that the largest-|.|
    entry of its right vector V[:, i] is positive.

    The start vector and every fresh direction come from ``rng`` (a
    Generator or a seed), so equal seeds give identical triplets. The Ritz
    vectors of X^T X are orthonormalized by QR, and a dense SVD of X times
    them gives the triplets. The name predates Lanczos; ``models.svdgcn`` and
    ``bench/trace_cli.py`` look it up. Raises SvdConvergenceError when the
    restarts run out.
    """
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, {min(m, n)}], got {k}")
    rng = np.random.default_rng(rng)
    X = A if m >= n else A.T
    W, restarts, residual = _lanczos(X, k, rng)
    W, _ = np.linalg.qr(W)
    Y, s, Zt = np.linalg.svd(X @ W, full_matrices=False)
    Z = W @ Zt.T
    U, V = (Y, Z) if m >= n else (Z, Y)
    flip = V[np.abs(V).argmax(axis=0), np.arange(k)] < 0
    U[:, flip] *= -1
    V[:, flip] *= -1
    return Triplets(U, s, V, restarts, residual)


def _lanczos(X, k, rng):
    """(W, restarts, max_residual): the top-k eigenvectors of X^T X as the
    columns of W, in descending order of eigenvalue.

    A converged Ritz pair that a top k needs is locked: it stays at the
    front of the basis, new vectors are still orthogonalized against it,
    and it leaves the Rayleigh-Ritz problem, so that a copy of its
    eigenvalue that has not converged cannot mix into it."""
    n = X.shape[1]
    m = min(n, max(2 * k + 1, 20))
    keep = k + (m - k) // 2
    V = np.empty((m + 1, n))        # basis vectors as rows
    T = np.zeros((m, m))            # V G V^T, less the locked rows
    V[0] = _fresh_direction(rng, V[:0])
    locked = np.empty(0)            # eigenvalues of V[:p], descending
    scale = max_residual = 0.0
    start = 0
    probed = None                   # the top k when the last probe began
    for restarts in range(MAX_RESTARTS + 1):
        p = len(locked)
        for j in range(start, m):
            w = X.T @ (X @ V[j])
            h = _orthogonalize(V[:j + 1], w)
            beta = np.linalg.norm(w)
            scale = max(scale, np.linalg.norm(h), beta)
            T[p:j + 1, j] = T[j, p:j + 1] = h[p:]
            if beta > INVARIANT * scale:
                V[j + 1] = w / beta
            else:
                beta = 0.0
                if j + 1 < m:
                    V[j + 1] = _fresh_direction(rng, V[:j + 1])
        theta, S = np.linalg.eigh(T[p:, p:])
        theta, S = theta[::-1], S[:, ::-1]
        scale = max(scale, theta[0])
        residual = np.abs(beta * S[-1]) / (scale or 1.0)
        tie = INVARIANT * scale
        # lock the converged pairs that a top k needs
        floor = locked[k - 1] + tie if p >= k else np.inf
        lock = np.flatnonzero((residual <= TOL) & (
            (np.arange(m - p) < k - p) | (theta > floor)))
        max_residual = max([max_residual, *residual[lock]])
        values = np.concatenate([locked, theta[lock]])
        rank = np.argsort(-values, kind="stable")
        locked = values[rank[:k]]
        free = np.ones(m - p, bool)
        free[lock] = False
        unlocked = np.flatnonzero(free)
        # the top k are locked when nothing unlocked is above the k-th: the
        # largest unlocked Ritz pair has converged below it or ties with it
        done = len(locked) == k and (len(unlocked) == 0 or (
            theta[unlocked[0]] <= locked[-1] + tie
            and (residual[unlocked[0]] <= TOL
                 or theta[unlocked[0]] >= locked[-1] - tie)))
        rows = np.vstack([V[:p], S[:, lock].T @ V[p:m]])[rank[:keep]]
        spanned = m + (beta > 0.0)
        if done and (spanned >= n or probed is not None
                     and np.abs(locked - probed).max() <= tie):
            return rows[:k].T, restarts, max_residual
        # The copies of a repeated eigenvalue that the basis lacks leave no
        # residual. So once the top k are locked, the next cycle starts
        # from a random probe of the space the basis leaves out, and they
        # stand when they are the same the next time they are locked.
        if done:
            probed = locked
        fresh = done or beta == 0.0
        nxt = _fresh_direction(rng, V[:spanned]) if fresh else V[m]
        # thick restart: the locked pairs, then the unlocked Ritz vectors in
        # descending order, at most `keep` in all, then the residual
        # direction, which G couples to each of them by beta * s_{m,i}. A
        # fresh direction replaces it only after the pairs it couples to
        # are dropped: those whose residual has not converged.
        active = unlocked[residual[unlocked] <= TOL] if fresh else unlocked
        active = active[:keep - len(rows)]
        start = len(rows) + len(active)
        V[len(rows):start] = S[:, active].T @ V[p:m]
        V[:len(rows)] = rows
        V[start] = nxt
        T[:] = 0.0
        T[np.diag_indices(start)] = np.concatenate([values[rank[:keep]],
                                                    theta[active]])
    raise SvdConvergenceError(
        f"top-{k} singular triplets not converged after {MAX_RESTARTS} "
        f"restarts ({len(locked)} of {k} locked)")


def _orthogonalize(B, w):
    """Project the rows of B out of w in place by two passes of classical
    Gram-Schmidt; returns the coefficients B w had."""
    h = B @ w
    w -= h @ B
    c = B @ w
    w -= c @ B
    return h + c


def _fresh_direction(rng, B):
    """A unit random vector orthogonal to the rows of B."""
    w = rng.standard_normal(B.shape[1])
    _orthogonalize(B, w)
    return w / np.linalg.norm(w)
