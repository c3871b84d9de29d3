"""Dense symmetric and generalized symmetric-definite eigenproblems.

This is the linear-algebra substrate for the resolvent formulas: plain and
generalized eigendecompositions with a fixed normalization and sign
convention, the one eigenvalue-only solve of a pencil (``gen_sym_eigvals``),
and row/column-deleted submatrices. A matrix is checked finite where it
comes in. Everything here is a pure function; returned
arrays are frozen (non-writeable), so a SymMatrix or SpectralPair shared
by several consumers cannot be written through, just as the Gauss rules
cached in ``basis`` cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, InputError, OverlapNotSPDError

def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix, validated at construction.

    Symmetry must hold exactly (bitwise), not merely within round-off;
    callers that start from a nonsymmetric array should symmetrize with
    ``0.5 * (a + a.T)`` themselves, which is exactly symmetric in IEEE
    arithmetic.
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InputError("matrix dimension must be >= 1")
        _check_finite(a)
        if not np.array_equal(a, a.T):
            raise InputError("matrix is not exactly symmetric")
        object.__setattr__(self, "data", _freeze(a))

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class SpectralPair:
    """Solution of H Gamma = Omega Gamma diag(eps).

    ``eps`` ascending; ``gamma`` holds the eigenvectors as columns,
    normalized so that gamma^T Omega gamma = I, hence
    gamma^T H gamma = diag(eps). Both solvers below return that
    normalization, and the spectral form of the resolvent,
    G_nm(z) = sum_j gamma[n,j] gamma[m,j] / (eps_j - z), relies on it.
    """

    eps: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps", _freeze(np.asarray(self.eps, dtype=float)))
        object.__setattr__(self, "gamma", _freeze(np.asarray(self.gamma, dtype=float)))

    @property
    def n(self) -> int:
        return self.eps.shape[0]


def _check_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise InputError("matrix has non-finite (inf or NaN) entries")


def _as_sym_array(a) -> np.ndarray:
    if isinstance(a, SymMatrix):
        return a.data
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    _check_finite(a)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-13 * max(1.0, np.abs(a).max())):
        raise InputError("matrix is not symmetric")
    return a


def _fix_column_signs(gamma: np.ndarray) -> np.ndarray:
    """First component of each column that is nonzero (above 1e-12 of the
    column max) is made positive; an all-zero column is left alone. Gives
    a reproducible eigenvector matrix across LAPACK builds."""
    mag = np.abs(gamma)
    # an all-zero column has no entry above its threshold; its lead is its
    # first entry, a zero, which flips nothing
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    return np.where(gamma[lead, np.arange(gamma.shape[1])] < 0.0, -gamma, gamma)


def sym_eig(a) -> SpectralPair:
    """Eigendecomposition of a real symmetric matrix.

    Columns of gamma are orthonormal and eigenvalues ascend.
    """
    m = _as_sym_array(a)
    try:
        eps, gamma = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    return SpectralPair(eps=eps, gamma=_fix_column_signs(gamma))


def _has_cholesky(m: np.ndarray) -> bool:
    """Whether a matrix already checked symmetric has a Cholesky factor."""
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def _reduce_pencil(a: np.ndarray, b: np.ndarray):
    """Reduce a gamma = eps b gamma to the standard problem C v = eps v,
    C = L^-1 a L^-T with L the Cholesky factor of ``b``, so that
    gamma = L^-T v. Returns (C, back) with back(v) = L^-T v; the
    factorization is the only one, and its failure raises
    OverlapNotSPDError.

    A diagonal ``b`` (the identity overlap of every oscillator system)
    has a diagonal L = diag(l): C = a / (l l^T) and back(v) = v / l, which
    at l = 1 hand ``a`` and v back bit for bit, as ``sym_eig`` sees them.
    A tridiagonal ``b`` (every Laguerre overlap) has a lower bidiagonal
    L, diagonal l and sub-diagonal m, and (L^-1)_nk = q_n r_k for n >= k,
    with q_n = prod_(j<=n) (-m_j / l_j) and r_k = 1 / (q_k l_k): so
    L^-1 = diag(q) T diag(r), T the lower triangle of ones, C is two
    cumulative sums between diagonal scalings, and back one reversed
    cumulative sum, O(N^2) in all. Any other overlap is reduced through
    L^-1, formed once and applied by products, since numpy has no
    triangular solve. The bidiagonal and dense routes give the eigenvalues and last-row
    weights of the Laguerre pencils within the bounds of the 40-digit
    mpmath oracle in the tests."""
    try:
        factor = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise OverlapNotSPDError("overlap not SPD") from exc
    diag, sub = np.diagonal(factor), np.diagonal(factor, -1)
    nonzero = np.count_nonzero(factor)
    if nonzero == diag.size:
        return a / (diag[:, None] * diag), lambda v: v / diag[:, None]
    if nonzero == diag.size + sub.size:
        # l_j > 0, so L is bidiagonal unless some m_j = 0 frees the count
        # for a nonzero elsewhere. An m_j = 0 makes q_n = 0 from n = j on,
        # and a q_n out of the range of doubles makes r_k 0 or inf; either
        # leaves C not finite, as do scaled sums that overflow, and takes
        # the dense route
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            q = np.cumprod(np.concatenate(([1.0], -sub / diag[1:])))
            r = 1.0 / (q * diag)
            c = q[:, None] * np.cumsum(np.cumsum(r[:, None] * a * r, axis=0), axis=1) * q
        if np.isfinite(c).all():
            return c, lambda v: r[:, None] * np.cumsum(q[::-1, None] * v[::-1], axis=0)[::-1]
    inv = np.linalg.inv(factor)
    return inv @ a @ inv.T, lambda v: inv.T @ v


def _checked_pencil(a, b):
    """(a, b) as arrays of one shape, each checked for symmetry and
    finiteness, and not at all when it is a SymMatrix, which was checked
    when it was built."""
    ma = _as_sym_array(a)
    mb = _as_sym_array(b)
    if ma.shape != mb.shape:
        raise InputError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return ma, mb


def gen_sym_eig(a, b) -> SpectralPair:
    """Generalized eigendecomposition H gamma = eps Omega gamma.

    ``b`` must be symmetric positive definite. Columns are scaled so that
    gamma^T b gamma = I. Each of ``a`` and ``b`` is checked for symmetry
    and finiteness once, and not at all when it is a SymMatrix, which was
    checked when it was built. The Cholesky factorization of ``b`` in
    ``_reduce_pencil`` is the only one; a diagonal ``b`` is reduced by
    scaling, a tridiagonal one through its bidiagonal factor in O(N^2),
    any other through L^-1.
    """
    c, back = _reduce_pencil(*_checked_pencil(a, b))
    try:
        eps, v = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"generalized eigensolver did not converge: {exc}") from exc
    return SpectralPair(eps=eps, gamma=_fix_column_signs(back(v)))


def _pencil_eigvals(a: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
    """The eigenvalues alone of a pencil already checked, ascending and
    frozen; ``b=None`` is the identity overlap, and then ``a`` may be a
    stack of matrices. ``_reduce_pencil``'s C goes to numpy's
    ``eigvalsh``, which forms no eigenvectors."""
    try:
        return _freeze(np.linalg.eigvalsh(a if b is None else _reduce_pencil(a, b)[0]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"generalized eigensolver did not converge: {exc}") from exc


def gen_sym_eigvals(a, b=None) -> np.ndarray:
    """The eigenvalues alone of H gamma = eps Omega gamma, ascending and
    frozen; ``b=None`` is the identity overlap.

    The one eigenvalue-only route, for the bound energies and (through
    ``_pencil_eigvals``, on arrays already checked) the spectra of the
    eigenvalue-product forms: checked and reduced as in ``gen_sym_eig``,
    then ``eigvalsh``, which forms no eigenvector. Its eigenvalues may
    differ from ``eigh``'s in the last digits; both are within the bound
    of the tests' 40-digit mpmath oracle.
    """
    if b is None:
        return _pencil_eigvals(_as_sym_array(a), None)
    return _pencil_eigvals(*_checked_pencil(a, b))


def delete_row_col(a, n: int, m: int):
    """Submatrix with row n and column m removed.

    Entry (i, j) of the result is entry (i + [i >= n], j + [j >= m]) of
    the input. Accepts a SymMatrix or a real or complex array (the
    resolvent pencil H - z*Omega is complex) and returns an array of the
    same dtype.
    """
    arr = a.data if isinstance(a, SymMatrix) else np.asarray(a)
    rows, cols = arr.shape
    if rows < 2 or cols < 2:
        raise InputError("empty submatrix")
    if not (0 <= n < rows and 0 <= m < cols):
        raise InputError(f"indices ({n}, {m}) out of range for shape {arr.shape}")
    return np.delete(np.delete(arr, n, axis=0), m, axis=1)
