"""Compressed sparse rows over scipy's compiled sparse kernels.

This is the one module that knows scipy's sparse layout. It loads the
compiled extension ``scipy/sparse/_sparsetools`` straight from its file,
so no process imports ``scipy`` or ``scipy.sparse``: their package init
(``scipy._lib``'s array-API layer pulls in ``numpy.f2py``, ``numpy.testing``
and ``email``) costs about 17 MB and 0.2 s, and nothing here needs it.
Every product, conversion and scaling runs the kernel that scipy's own
method runs, in the same order, so each result equals scipy's bit for bit.
(row, col, value) triples are multiplied as they stand, by the COO kernel
(``coo_matmul_add``), so no caller converts them to a ``CSR``.

Index arrays are int64, the dtype of ``BipartiteGraph``'s arrays, so a
graph's CSR shares them without a copy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


INDEX = np.int64


def scipy_file(*names):
    """The first of ``names`` (paths relative to the installed scipy
    package) that is a file there, or None; found without importing
    ``scipy``."""
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec else None
    paths = [os.path.join(folder, name) for folder in folders or ()
             for name in names]
    return next(filter(os.path.isfile, paths), None)


def _load_sparsetools():
    """scipy.sparse._sparsetools, loaded from its file without importing
    ``scipy`` or running ``scipy/sparse/__init__.py``. It is registered
    under its own name, so a later ``from scipy.sparse import _sparsetools``
    returns this module."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    path = scipy_file(*(os.path.join("sparse", "_sparsetools" + suffix)
                        for suffix in importlib.machinery.EXTENSION_SUFFIXES))
    if path is None:
        raise ImportError("topocf needs scipy's compiled sparse kernels "
                          "(scipy/sparse/_sparsetools): is scipy installed?",
                          name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return sys.modules.setdefault(name, module)


_sparsetools = _load_sparsetools()


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix of ``shape`` whose row r stores its values
    ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``.

    The fields are never rebound, but ``data`` may be written in place;
    the transpose is built at its first use and does not follow such
    writes.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "indptr", np.asarray(self.indptr, INDEX))
        object.__setattr__(self, "indices", np.asarray(self.indices, INDEX))
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))

    @property
    def nnz(self):
        return len(self.indices)

    @property
    def dtype(self):
        return self.data.dtype

    @cached_property
    def T(self):
        """The transpose, each row's columns ascending (csr_tocsc)."""
        M, N = self.shape
        indptr = np.empty(N + 1, INDEX)
        indices = np.empty(self.nnz, INDEX)
        data = np.empty(self.nnz, self.dtype)
        _sparsetools.csr_tocsc(M, N, self.indptr, self.indices, self.data,
                               indptr, indices, data)
        return CSR(indptr, indices, data, (N, M))

    def __matmul__(self, other):
        """self @ other for a CSR, by the kernel scipy's ``@`` runs, or for
        a dense 1-D or 2-D operand of the same dtype, by ``spmm``: a 1-D
        operand as one column. A sparse product lists each row's columns in
        the kernel's order, not sorted."""
        if isinstance(other, CSR):
            return _matmat(self, other)
        X = np.ascontiguousarray(other)
        if X.ndim == 1:
            return (self @ X.reshape(-1, 1)).reshape(-1)
        return spmm(self, X, np.empty((self.shape[0], X.shape[1]), self.dtype))

    def scale(self, row_factors, column_factors):
        """Multiply each value by row_factors[its row], then by
        column_factors[its column], in place (csr_scale_rows, then
        csr_scale_columns)."""
        M, N = self.shape
        if row_factors.shape != (M,) or column_factors.shape != (N,):
            raise ValueError(f"scale factors {row_factors.shape} and "
                             f"{column_factors.shape} for shape {self.shape}")
        _sparsetools.csr_scale_rows(M, N, self.indptr, self.indices,
                                    self.data, row_factors)
        _sparsetools.csr_scale_columns(M, N, self.indptr, self.indices,
                                       self.data, column_factors)

    def strict_upper(self):
        """The entries above the diagonal of a symmetric matrix, each row's
        columns ascending: scipy's ``triu(A, 1, format="csr")`` with sorted
        indices. By symmetry it is the transpose of the strict lower
        triangle, which csr_tocsc lists in that order without a sort."""
        M = self.shape[0]
        rows = np.repeat(np.arange(M, dtype=INDEX), np.diff(self.indptr))
        lower = self.indices < rows
        indptr = np.zeros(M + 1, INDEX)
        np.cumsum(np.bincount(rows[lower], minlength=M), out=indptr[1:])
        indices, data = self.indices[lower], self.data[lower]
        del rows, lower  # before the transpose allocates its copy
        return CSR(indptr, indices, data, self.shape).T


def _matmat(A, B):
    """A @ B for two CSRs (csr_matmat_maxnnz, then csr_matmat)."""
    (M, K), (K2, N) = A.shape, B.shape
    if K != K2:
        raise ValueError(f"shapes: {A.shape} @ {B.shape}")
    nnz = _sparsetools.csr_matmat_maxnnz(M, N, A.indptr, A.indices,
                                         B.indptr, B.indices)
    indptr = np.empty(M + 1, INDEX)
    indices = np.empty(nnz, INDEX)
    data = np.empty(nnz, A.dtype)
    _sparsetools.csr_matmat(M, N, A.indptr, A.indices, A.data,
                            B.indptr, B.indices, B.data,
                            indptr, indices, data)
    return CSR(indptr, indices[:indptr[-1]], data[:indptr[-1]], (M, N))


def spmm(A, X, out):
    """A @ X for a CSR A and a dense X, written into ``out``.

    ``A @ X`` allocates its result. Here ``out`` is zeroed, then the
    ``csr_matvecs`` kernel that scipy's ``A @ X`` runs accumulates into it,
    so the result equals scipy's ``A @ X`` bit for bit. At one column
    scipy runs ``csr_matvec``, which makes the same multiply-adds in the
    same order. X and out are C-contiguous, do not overlap, and have A's
    dtype. Returns ``out``.
    """
    M, N = A.shape
    _check_product("spmm", A.shape, A.dtype, X, out)
    out.fill(0)
    _sparsetools.csr_matvecs(M, N, X.shape[1], A.indptr, A.indices, A.data,
                             X.ravel(), out.ravel())
    return out


def coo_matmul_add(rows, cols, values, X, out):
    """out[rows[t]] += values[t] * X[cols[t]] for every t, in order and in
    place: the kernel (coo_matmat_dense) that scipy's ``C @ X`` runs, after
    zeroing its result, for the COO matrix C of the same triples. X and
    out are C-contiguous, do not overlap, and have the values' dtype."""
    rows, cols = np.asarray(rows, INDEX), np.asarray(cols, INDEX)
    if not len(rows) == len(cols) == len(values):
        raise ValueError("coo_matmul_add needs as many rows and cols as "
                         "values")
    _check_product("coo_matmul_add", (len(out), len(X)), values.dtype, X, out)
    _check_range(rows, len(out))
    _check_range(cols, len(X))
    _sparsetools.coo_matmat_dense(len(values), X.shape[1], rows, cols, values,
                                  X.ravel(), out.ravel())


def scatter_add(out, index, values):
    """out.flat[index.flat[t]] += values.flat[t] for every t, in order and
    in place, for a C-contiguous ``out``: the kernel (coo_todense_nd) that
    scipy's ``coo_array((values, (index,))).toarray(out=...)`` runs after
    zeroing ``out``."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous out")
    index = np.asarray(index, INDEX).reshape(-1)
    if len(index) != values.size:
        raise ValueError("scatter_add needs one index per value")
    _check_range(index, out.size)
    _sparsetools.coo_todense_nd(np.ones(1, INDEX), len(index), 1, index,
                                values.reshape(-1), out.reshape(-1), 0)


def _check_product(name, shape, dtype, X, out):
    """Raise unless ``out`` can take the product of a ``shape`` matrix of
    ``dtype`` and X in place: both 2-D, C-contiguous and of that dtype,
    their shapes agreeing, and out not overlapping X."""
    M, N = shape
    if X.ndim != 2 or X.shape[0] != N or out.shape != (M, X.shape[1]):
        raise ValueError(f"{name} shapes: {shape} @ {X.shape} -> {out.shape}")
    if not (X.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError(f"{name} needs C-contiguous X and out")
    if not X.dtype == out.dtype == dtype:
        raise ValueError(f"{name} dtypes: {dtype} @ {X.dtype} -> {out.dtype}")
    if np.may_share_memory(X, out):
        raise ValueError(f"{name}'s out overlaps X")


def _check_range(index, size):
    """Raise unless every entry of ``index`` is in [0, size): the kernels
    index without bounds checks."""
    if len(index) and not (index.min() >= 0 and index.max() < size):
        raise ValueError(f"index out of range [0, {size})")
