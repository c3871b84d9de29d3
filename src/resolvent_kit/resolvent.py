"""Finite-basis resolvent (Green's function) matrix elements.

Four interchangeable routes to G_{n,m}(z), the (n, m) element of
(H - z Omega)^{-1}:

* ``green_spectral``          -- spectral sum over the (generalized)
                                 eigenpairs; the reference route.
* ``green_cofactor``          -- signed ratio of determinants of the
                                 row/column-deleted and full matrices.
* ``green_eigprod_general``   -- ratio of eigenvalue products of the
                                 deleted and full pencils (non-orthogonal
                                 basis; undefined for some n != m).
* ``green_diag_orthonormal``  -- the same product form specialized to
                                 diagonal elements in an orthonormal basis.

The eigenvalue-product routes need the spectra of the full and the
row/column-deleted pencils but no eigenvectors; the scans evaluate their
elements through the pole/residue form below instead.

Also here: the pole/residue form of G, ``PartialFractions``, whose
``evaluate`` is the one evaluator of the sum and applies the one pole
rule (``POLE_RTOL``) for every consumer of the package; and the
closed-form identities that recover eigenvector component products from
eigenvalue spectra alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateSpectrumError,
    InputError,
    SingularMatrixError,
    SingularSubmatrixError,
    SpectrumEvaluationError,
)
from .matrix_core import (
    SpectralPair,
    _as_sym_array,
    delete_row_col,
    gen_sym_eig,
    is_spd,
    sym_eig,
)

# Two eigenvalues closer than this (relative to the spectral range) make
# the eigenvalue-only formulas ill-conditioned; they refuse and point the
# caller at the spectral sum.
DEGENERACY_RTOL = 1e-8

# The one pole rule of every resolvent consumer: z sits on the pole eps_j
# when |z - eps_j| < POLE_RTOL * max(1, |z|). Only essentially exact hits
# are refused, because narrow-resonance structure in S(E) lives at gaps of
# 1e-12 and below, which evaluate fine in floating point.
POLE_RTOL = 1e-15

# Points per batch of PartialFractions.evaluate and of
# ScatteringCalculator.s_values: the (points x basis size) arrays of a batch
# stay small (0.4 MB each at N = 100), so peak memory does not grow with the
# length of the grid. Each point is reduced on its own, so the batch size
# changes no value.
_BATCH_SIZE = 256


def _batches(n: int) -> list:
    """Slices of at most ``_BATCH_SIZE`` points covering ``range(n)``."""
    return [slice(lo, lo + _BATCH_SIZE) for lo in range(0, n, _BATCH_SIZE)]


def _on_pole(gaps: np.ndarray, z) -> np.ndarray:
    """The pole rule (see ``POLE_RTOL``) for ``gaps = eps - z``, with the
    poles along the last axis and z broadcasting against the rest."""
    return np.min(np.abs(gaps), axis=-1) < POLE_RTOL * np.maximum(1.0, np.abs(z))


def _pole_error(poles: np.ndarray, z) -> SpectrumEvaluationError:
    """The error for a point z that the pole rule puts on ``poles``."""
    pole = float(poles[np.argmin(np.abs(poles - z))])
    return SpectrumEvaluationError(f"evaluation at spectrum: z={z} sits on eigenvalue {pole}", pole=pole)


@dataclass(frozen=True)
class ResolventInput:
    """Evaluation request: pencil (H, Omega) and a complex point z.

    ``omega=None`` means an orthonormal basis (overlap = identity).
    """

    h: np.ndarray
    omega: Optional[np.ndarray]
    z: complex

    def __post_init__(self):
        h = _as_sym_array(self.h)
        object.__setattr__(self, "h", h)
        if self.omega is not None:
            om = _as_sym_array(self.omega)
            if om.shape != h.shape:
                raise InputError(f"H and Omega dimensions differ: {h.shape} vs {om.shape}")
            if not is_spd(om):
                raise InputError("overlap not SPD")
            object.__setattr__(self, "omega", om)
        object.__setattr__(self, "z", complex(self.z))

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def pencil(self) -> np.ndarray:
        """H - z*Omega as a complex array."""
        if self.omega is None:
            out = self.h.astype(complex).copy()
            out[np.diag_indices_from(out)] -= self.z
            return out
        return self.h - self.z * self.omega

    def spectral_pair(self) -> SpectralPair:
        return sym_eig(self.h) if self.omega is None else gen_sym_eig(self.h, self.omega)


@dataclass(frozen=True)
class PartialFractions:
    """Pole/residue form of one resolvent element: sum_j coeffs[j] / (poles[j] - z).

    Every resolvent consumer evaluates its element through ``evaluate``;
    this is the only place the sum is written out.
    """

    poles: np.ndarray
    coeffs: np.ndarray
    n: int
    m: int

    @classmethod
    def from_pair(cls, pair: SpectralPair, n: int, m: int) -> "PartialFractions":
        """G_{n,m} of any symmetric-definite pencil from its eigenpairs:
        residues gamma[n,j] gamma[m,j] / sigma_j."""
        return cls(poles=pair.eps, coeffs=pair.gamma[n] * pair.gamma[m] / pair.sigma, n=n, m=m)

    def evaluate(self, z):
        """(values, on_pole) at a scalar or an array of points z, both in
        the shape of z.

        Points the pole rule (``POLE_RTOL``) puts on a pole are True in
        ``on_pole`` and NaN in ``values``. Values keep the dtype of z, so
        real energies stay in real arithmetic. The points run in batches
        of at most ``_BATCH_SIZE``.
        """
        z = np.asarray(z)
        flat = z.ravel()
        values = np.empty(flat.size, dtype=np.result_type(self.coeffs, flat))
        on_pole = np.empty(flat.size, dtype=bool)
        for part in _batches(flat.size):
            gaps = self.poles[None, :] - flat[part, None]
            on_pole[part] = _on_pole(gaps, flat[part])
            with np.errstate(divide="ignore", invalid="ignore"):
                values[part] = np.sum(self.coeffs / gaps, axis=1)
        values[on_pole] = complex(math.nan, math.nan) if values.dtype.kind == "c" else math.nan
        return values.reshape(z.shape), on_pole.reshape(z.shape)


def _check_nondegenerate(eps: np.ndarray):
    if eps.size < 2:
        return
    spread = max(float(eps[-1] - eps[0]), np.finfo(float).tiny)
    if np.min(np.diff(eps)) < DEGENERACY_RTOL * spread:
        raise DegenerateSpectrumError("degenerate spectrum; use green_spectral")


def paired_product_ratio(num, den):
    """prod(num) / prod(den) evaluated as paired ratios.

    Factors are matched largest-magnitude-first so each ratio stays O(1)
    for interlacing spectra; unmatched denominator factors divide at the
    end. Avoids overflow of the raw products at dimension ~100.
    """
    num = np.asarray(num)
    den = np.asarray(den)
    if num.size > den.size:
        raise InputError("more numerator than denominator factors")
    ns = num[np.argsort(-np.abs(num))]
    ds = den[np.argsort(-np.abs(den))]
    out = np.prod(ns / ds[: ns.size]) if ns.size else (1.0 + 0j if np.iscomplexobj(den) else 1.0)
    for extra in ds[ns.size :]:
        out = out / extra
    return out


def _is_singular_submatrix(a: np.ndarray, rtol: float = 1e-12) -> bool:
    s = np.linalg.svd(a, compute_uv=False)
    return s[-1] <= rtol * max(s[0], np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Resolvent element routes
# ---------------------------------------------------------------------------


def green_spectral(inp: ResolventInput, n: int, m: int, pair: Optional[SpectralPair] = None) -> complex:
    """Spectral sum  sum_i gamma[n,i] gamma[m,i] / (sigma_i (eps_i - z)).

    ``pair`` may carry a precomputed decomposition of (H, Omega) for reuse
    across many z.
    """
    if pair is None:
        pair = inp.spectral_pair()
    value, on_pole = PartialFractions.from_pair(pair, n, m).evaluate(inp.z)
    if on_pole:
        raise _pole_error(pair.eps, inp.z)
    return complex(value)


def green_cofactor(inp: ResolventInput, n: int, m: int) -> complex:
    """(-1)^(n+m) det(pencil with row n, column m deleted) / det(pencil).

    Valid for every (n, m) and any basis; the universal fallback when the
    eigenvalue-product form is undefined. Determinant ratio is assembled
    in log space so dimension ~100 does not overflow.

    The determinant rarely rounds to exactly 0 on an eigenvalue, so a z
    within ``POLE_RTOL`` of the real axis is tested against the pencil's
    eigenvalues by the pole rule; a vanishing determinant is refused too.
    """
    c = inp.pencil()
    if abs(inp.z.imag) < POLE_RTOL * max(1.0, abs(inp.z)):
        eps = inp.spectral_pair().eps
        if _on_pole(eps - inp.z, inp.z):
            raise _pole_error(eps, inp.z)
    sign_full, log_full = np.linalg.slogdet(c)
    if sign_full == 0 or not np.isfinite(log_full):
        raise _pole_error(inp.spectral_pair().eps, inp.z)
    sub = delete_row_col(c, n, m)
    sign_sub, log_sub = np.linalg.slogdet(sub)
    if sign_sub == 0:
        return 0j
    return complex((-1.0) ** (n + m) * sign_sub / sign_full * np.exp(log_sub - log_full))


def _gen_eigvals(h: np.ndarray, om: np.ndarray) -> np.ndarray:
    """Real generalized eigenvalues of a symmetric-definite pencil, ascending."""
    return scipy.linalg.eigh(h, om, eigvals_only=True)


def _product_form(h: np.ndarray, om: Optional[np.ndarray], n: int, m: int):
    """The z-independent data of the eigenvalue-product form of G_{n,m}:
    (prefactor, deleted-pencil eigenvalues), the prefactor being

        (-1)^(n+m) det Omega^(n,m) / det Omega

    ``om=None`` is an orthonormal basis (Omega = I, n == m), with
    prefactor 1. A symmetric-definite deleted pencil (n == m) has real
    eigenvalues; otherwise it is a QZ problem with complex ones, and a
    singular deleted overlap or an infinite eigenvalue leaves the form
    undefined: SingularSubmatrixError, pointing at ``green_cofactor``.
    """
    if om is None:
        return 1.0, np.linalg.eigvalsh(delete_row_col(h, n, n))
    hs, os_ = delete_row_col(h, n, m), delete_row_col(om, n, m)
    sign_full, log_full = np.linalg.slogdet(om)
    sign_sub, log_sub = np.linalg.slogdet(os_)
    if sign_sub == 0 or (n != m and _is_singular_submatrix(os_)):
        raise SingularSubmatrixError(
            "eigenvalue-product form undefined: deleted overlap submatrix is "
            f"singular for (n, m)=({n}, {m}); use green_cofactor"
        )
    if n == m:
        sub = _gen_eigvals(hs, os_)
    else:
        alpha, beta = scipy.linalg.eig(hs, os_, right=False, homogeneous_eigvals=True)
        if np.any(np.abs(beta) < 1e-300):
            raise SingularSubmatrixError(
                f"deleted pencil for (n, m)=({n}, {m}) has an infinite eigenvalue; use green_cofactor"
            )
        sub = alpha / beta
    return (-1.0) ** (n + m) * sign_sub * sign_full * np.exp(log_sub - log_full), sub


def _green_product(h, om, eps: np.ndarray, z: complex, n: int, m: int) -> complex:
    """prefactor * prod_i (eps_sub_i - z) / prod_j (eps_j - z), refusing a
    z that the pole rule puts on ``eps``."""
    if _on_pole(eps - z, z):
        raise _pole_error(eps, z)
    pref, sub = _product_form(h, om, n, m)
    return complex(pref * paired_product_ratio(sub - z, eps - z))


def green_eigprod_general(inp: ResolventInput, n: int, m: int, pair: Optional[SpectralPair] = None) -> complex:
    """Eigenvalue-product form for a non-orthogonal basis.

    (-1)^(n+m) * (det Omega^(n,m) / det Omega)
               * prod_i (eps_sub_i - z) / prod_j (eps_j - z)

    ``pair`` may carry a precomputed decomposition of (H, Omega).
    """
    if inp.omega is None:
        raise InputError("green_eigprod_general requires an explicit overlap matrix")
    eps = pair.eps if pair is not None else _gen_eigvals(inp.h, inp.omega)
    return _green_product(inp.h, inp.omega, eps, inp.z, n, m)


def green_diag_orthonormal(h, z: complex, n: int) -> complex:
    """Diagonal element in an orthonormal basis as a pure eigenvalue ratio:

        prod_i (eps^(n,n)_i - z) / prod_j (eps_j - z)
    """
    hm = _as_sym_array(h)
    return _green_product(hm, None, np.linalg.eigvalsh(hm), z, n, n)


def inverse_oracle(inp: ResolventInput) -> np.ndarray:
    """Brute-force (H - z*Omega)^{-1} by pivoted solve; test oracle."""
    c = inp.pencil()
    try:
        return np.linalg.solve(c, np.eye(c.shape[0], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"pencil is singular at z={inp.z}: {exc}") from exc


# ---------------------------------------------------------------------------
# Partial fractions and eigenvector-from-eigenvalues identities
# ---------------------------------------------------------------------------


def _coeff_from_dets(h: np.ndarray, eps: np.ndarray, n: int, m: int, j: int) -> float:
    """Residue of G_{n,m} at eps_j in an orthonormal basis:

        (-1)^(n+m) det((H - eps_j I)^(n,m)) / prod_{k != j} (eps_k - eps_j)

    The identity is shifted in before the row/column deletion: the
    deleted identity is not an identity when n != m. The determinant
    comes from a pivoted factorization rather than eigenvalues of the
    (generally nonsymmetric) deleted matrix; assembled in log space.
    """
    shifted = delete_row_col(h - eps[j] * np.eye(h.shape[0]), n, m)
    sign_num, log_num = np.linalg.slogdet(shifted)
    if sign_num == 0:
        return 0.0
    gaps = np.delete(eps, j) - eps[j]
    sign_den = np.prod(np.sign(gaps))
    log_den = float(np.sum(np.log(np.abs(gaps))))
    return float((-1.0) ** (n + m) * sign_num * sign_den * np.exp(log_num - log_den))


def green_partial_fractions(h, n: int, m: int, pair: Optional[SpectralPair] = None) -> PartialFractions:
    """Pole/residue decomposition of G_{n,m}(z) in an orthonormal basis.

    Residues come from determinants of the shifted deleted matrix, so no
    eigenvectors are needed. Requires a non-degenerate spectrum.
    """
    hm = _as_sym_array(h)
    eps = pair.eps if pair is not None else np.linalg.eigvalsh(hm)
    eps = np.asarray(eps)
    _check_nondegenerate(eps)
    if hm.shape[0] == 1:
        coeffs = np.array([1.0 if n == m else 0.0])
        return PartialFractions(poles=eps.copy(), coeffs=coeffs, n=n, m=m)
    coeffs = np.array([_coeff_from_dets(hm, eps, n, m, j) for j in range(eps.size)])
    return PartialFractions(poles=eps.copy(), coeffs=coeffs, n=n, m=m)


def eigvec_prod_from_eigs(h, n: int, m: int, k: int) -> float:
    """gamma[n,k] * gamma[m,k] of a symmetric matrix from eigenvalues only.

    This is exactly the k-th partial-fraction residue of G_{n,m}.
    """
    hm = _as_sym_array(h)
    if hm.shape[0] == 1:
        return 1.0
    eps = np.linalg.eigvalsh(hm)
    _check_nondegenerate(eps)
    return _coeff_from_dets(hm, eps, n, m, k)


def _eigvec_product(hm: np.ndarray, om: Optional[np.ndarray], n: int, m: int, k: int) -> float:
    """prefactor * prod_i (eps_sub_i - eps_k) / prod_{j != k} (eps_j - eps_k)."""
    eps = np.linalg.eigvalsh(hm) if om is None else _gen_eigvals(hm, om)
    _check_nondegenerate(eps)
    pref, sub = _product_form(hm, om, n, m)
    return float(np.real(pref * paired_product_ratio(sub - eps[k], np.delete(eps, k) - eps[k])))


def eigvec_sq_from_eigs(h, n: int, k: int) -> float:
    """gamma[n,k]^2 from the spectra of H and its (n, n)-deleted principal
    submatrix:

        prod_i (eps^(n,n)_i - eps_k) / prod_{j != k} (eps_j - eps_k)

    Interlacing makes every paired ratio nonnegative and bounded.
    """
    hm = _as_sym_array(h)
    if hm.shape[0] == 1:
        return 1.0
    return _eigvec_product(hm, None, n, n, k)


def eigvec_from_eigs_general(h, omega, n: int, m: int, k: int) -> float:
    """gamma[n,k] * gamma[m,k] for a symmetric-definite pencil from
    eigenvalues and overlap determinants only, under the sigma = 1
    normalization:

        (-1)^(n+m) * (det Omega^(n,m) / det Omega)
                   * prod_i (eps_sub_i - eps_k) / prod_{j != k} (eps_j - eps_k)
    """
    hm = _as_sym_array(h)
    om = _as_sym_array(omega)
    if hm.shape != om.shape:
        raise InputError("H and Omega dimensions differ")
    if not is_spd(om):
        raise InputError("overlap not SPD")
    if hm.shape[0] == 1:
        return 1.0 / float(om[0, 0]) if n == m == 0 else 0.0
    return _eigvec_product(hm, om, n, m, k)
