"""Finite-basis resolvent (Green's function) matrix elements.

Four interchangeable routes to G_{n,m}(z), the (n, m) element of
(H - z Omega)^{-1}, for orthogonal and non-orthogonal bases alike;
``omega=None`` is an orthonormal basis (Omega = I):

* ``green_spectral``          -- spectral sum over the (generalized)
                                 eigenpairs; the reference route.
* ``green_cofactor``          -- signed ratio of determinants of the
                                 row/column-deleted and full matrices.
* ``green_eigprod_general``   -- ratio of eigenvalue products of the
                                 deleted and full pencils; undefined for
                                 some n != m, and for every n != m in an
                                 orthonormal basis.
* ``green_partial_fractions`` -- poles and residues of an element in an
                                 orthonormal basis, the residues from the
                                 eigenvector identity below, by
                                 polarization off the diagonal; defined
                                 for every (n, m).

The eigenvalue-product and partial-fraction routes need spectra but no
eigenvectors, and take them from the one eigenvalue-only solve of a
pencil, ``matrix_core.gen_sym_eigvals``'s unchecked core; the scans
evaluate their elements through the pole/residue form below instead.

Also here: the pole/residue form of G, ``PartialFractions``, whose
``evaluate`` is the one evaluator of the sum and applies the one pole
rule (``POLE_RTOL``) for every consumer of the package; and
``eigvec_from_eigs_general``, the closed-form identity that recovers
eigenvector component products from eigenvalue spectra alone: the
product form of G at z = eps_k with the k-th pole left out, for every k
from one full and one deleted spectrum. ``paired_product_ratio``
evaluates both, one element of G and the row of the identity. In an
orthonormal basis the row of products gamma[n,k] gamma[m,k] is also the
residues, ``green_partial_fractions(h, n, m).coeffs``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InputError,
    SingularMatrixError,
    SingularSubmatrixError,
    SpectrumEvaluationError,
)
from .matrix_core import (
    SpectralPair,
    SymMatrix,
    _as_sym_array,
    _has_cholesky,
    _pencil_eigvals,
    delete_row_col,
    gen_sym_eig,
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


def _check_indices(size: int, *indices: int):
    """InputError for a basis or eigenvalue index outside 0..size-1; a
    negative index would otherwise wrap around to the end."""
    for i in indices:
        if not 0 <= i < size:
            raise InputError(f"index {i} out of range 0..{size - 1}")


def _sym_matrix(a) -> SymMatrix:
    """A matrix symmetric within round-off as a SymMatrix, made exactly
    symmetric by 0.5 * (a + a^T), which leaves an exactly symmetric one
    bit-unchanged. A SymMatrix passes through as it is."""
    if isinstance(a, SymMatrix):
        return a
    a = _as_sym_array(a)
    return SymMatrix(0.5 * (a + a.T))


@dataclass(frozen=True)
class ResolventInput:
    """Evaluation request: pencil (H, Omega) and a complex point z.

    ``omega=None`` means an orthonormal basis (overlap = identity). The
    matrices are validated once, here, and kept as SymMatrix.
    """

    h: SymMatrix
    omega: Optional[SymMatrix]
    z: complex

    def __post_init__(self):
        h = _sym_matrix(self.h)
        object.__setattr__(self, "h", h)
        if self.omega is not None:
            om = _sym_matrix(self.omega)
            if om.n != h.n:
                raise InputError(f"H and Omega dimensions differ: {h.data.shape} vs {om.data.shape}")
            if not _has_cholesky(om.data):
                raise InputError("overlap not SPD")
            object.__setattr__(self, "omega", om)
        object.__setattr__(self, "z", complex(self.z))

    @property
    def n(self) -> int:
        return self.h.n

    def _arrays(self):
        """(H, Omega) as read-only arrays; Omega is None for an orthonormal basis."""
        return self.h.data, None if self.omega is None else self.omega.data

    def pencil(self) -> np.ndarray:
        """H - z*Omega as a complex array."""
        h, om = self._arrays()
        if om is None:
            out = h.astype(complex)
            out[np.diag_indices_from(out)] -= self.z
            return out
        return h - self.z * om

    @functools.cached_property
    def spectral_pair(self) -> SpectralPair:
        """The eigenpairs of (H, Omega), computed on first use and kept."""
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
        residues gamma[n,j] gamma[m,j]."""
        _check_indices(pair.n, n, m)
        return cls(poles=pair.eps, coeffs=pair.gamma[n] * pair.gamma[m], n=n, m=m)

    def evaluate(self, z, drop=None):
        """(values, on_pole) at a scalar or an array of points z, both in
        the shape of z.

        Points the pole rule (``POLE_RTOL``) puts on a pole are True in
        ``on_pole`` and NaN in ``values``. Values keep the dtype of z, so
        real energies stay in real arithmetic. ``drop``, pole indices in
        the shape of z, leaves pole drop[i] out of the sum and out of the
        pole rule at z[i]. The points run in batches of at most
        ``_BATCH_SIZE``.
        """
        z = np.asarray(z)
        flat = z.ravel()
        values = np.empty(flat.size, dtype=np.result_type(self.coeffs, flat))
        on_pole = np.empty(flat.size, dtype=bool)
        for part in _batches(flat.size):
            gaps = self.poles[None, :] - flat[part, None]
            if drop is not None:
                gaps[np.arange(gaps.shape[0]), np.ravel(drop)[part]] = math.inf
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


def _by_magnitude(x: np.ndarray) -> np.ndarray:
    """x with each row along the last axis ordered largest magnitude first,
    gathered from the flat array with one index array, which costs less
    than the broadcast index arrays of ``np.take_along_axis``."""
    order = np.argsort(-np.abs(x), axis=-1)
    starts = np.arange(math.prod(x.shape[:-1])).reshape(x.shape[:-1] + (1,)) * x.shape[-1]
    return x.ravel()[order + starts]


def paired_product_ratio(num, den):
    """prod(num) / prod(den) along the last axis, evaluated as paired ratios.

    Factors are matched largest-magnitude-first so each ratio stays O(1)
    for interlacing spectra; unmatched denominator factors divide at the
    end. Avoids overflow of the raw products at dimension ~100. Leading
    axes broadcast, so one call evaluates many products at once, each
    rounding as it would alone.
    """
    num = np.asarray(num)
    den = np.asarray(den)
    size = num.shape[-1]
    if size > den.shape[-1]:
        raise InputError("more numerator than denominator factors")
    ns, ds = _by_magnitude(num), _by_magnitude(den)
    out = np.prod(ns / ds[..., :size], axis=-1)
    for extra in np.moveaxis(ds[..., size:], -1, 0):
        out = out / extra
    return out


def _is_singular_submatrix(a: np.ndarray, rtol: float = 1e-12) -> bool:
    s = np.linalg.svd(a, compute_uv=False)
    return s[-1] <= rtol * max(s[0], np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Resolvent element routes
# ---------------------------------------------------------------------------


def green_spectral(inp: ResolventInput, n: int, m: int) -> complex:
    """Spectral sum  sum_i gamma[n,i] gamma[m,i] / (eps_i - z), over
    ``inp.spectral_pair``."""
    pair = inp.spectral_pair
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
    The cofactor of a 1x1 pencil is the empty determinant, 1.
    """
    _check_indices(inp.n, n, m)
    c = inp.pencil()
    if abs(inp.z.imag) < POLE_RTOL * max(1.0, abs(inp.z)):
        eps = inp.spectral_pair.eps
        if _on_pole(eps - inp.z, inp.z):
            raise _pole_error(eps, inp.z)
    sign_full, log_full = np.linalg.slogdet(c)
    if sign_full == 0 or not np.isfinite(log_full):
        raise _pole_error(inp.spectral_pair.eps, inp.z)
    sign_sub, log_sub = np.linalg.slogdet(delete_row_col(c, n, m)) if inp.n > 1 else (1.0, 0.0)
    if sign_sub == 0:
        return 0j
    return complex((-1.0) ** (n + m) * sign_sub / sign_full * np.exp(log_sub - log_full))


def _product_form(h: np.ndarray, om: Optional[np.ndarray], n: int, m: int):
    """The z-independent data of the eigenvalue-product form of G_{n,m}:
    (prefactor, deleted-pencil eigenvalues), the prefactor being

        (-1)^(n+m) det Omega^(n,m) / det Omega

    ``om=None`` is an orthonormal basis (Omega = I), with prefactor 1. A
    deleted principal submatrix (n == m) of the SPD Omega is SPD, so that
    deleted pencil is symmetric-definite with real eigenvalues. For
    n != m they are the complex eigenvalues of Omega^(n,m)^-1 H^(n,m), and
    a singular Omega^(n,m), which the deleted identity always is, leaves
    the form undefined: SingularSubmatrixError. A 1x1 pencil deletes to
    nothing: no eigenvalues, prefactor 1 / Omega[0, 0].
    """
    if h.shape[0] == 1:
        return (1.0 if om is None else 1.0 / float(om[0, 0])), np.empty(0)
    hs, os_ = delete_row_col(h, n, m), None if om is None else delete_row_col(om, n, m)
    if n != m and (om is None or _is_singular_submatrix(os_)):
        raise SingularSubmatrixError(
            "eigenvalue-product form undefined: deleted overlap submatrix is singular for "
            f"(n, m)=({n}, {m}); use green_cofactor, or green_partial_fractions in an orthonormal basis"
        )
    if om is None:
        return 1.0, _pencil_eigvals(hs, None)
    sign_full, log_full = np.linalg.slogdet(om)
    sign_sub, log_sub = np.linalg.slogdet(os_)
    sub = _pencil_eigvals(hs, os_) if n == m else np.linalg.eigvals(np.linalg.solve(os_, hs))
    return (-1.0) ** (n + m) * sign_sub * sign_full * np.exp(log_sub - log_full), sub


def _green_product(h, om, eps: np.ndarray, z: complex, n: int, m: int) -> complex:
    """prefactor * prod_i (eps_sub_i - z) / prod_j (eps_j - z), refusing a
    z that the pole rule puts on ``eps``."""
    if _on_pole(eps - z, z):
        raise _pole_error(eps, z)
    pref, sub = _product_form(h, om, n, m)
    return complex(pref * paired_product_ratio(sub - z, eps - z))


def green_eigprod_general(inp: ResolventInput, n: int, m: int) -> complex:
    """Eigenvalue-product form, orthonormal (``omega=None``, diagonal
    elements only) or not:

    (-1)^(n+m) * (det Omega^(n,m) / det Omega)
               * prod_i (eps_sub_i - z) / prod_j (eps_j - z)

    with eps from ``inp.spectral_pair``, the spectrum of the other routes.
    """
    _check_indices(inp.n, n, m)
    return _green_product(*inp._arrays(), inp.spectral_pair.eps, inp.z, n, m)


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


def _weight_rows(eps: np.ndarray, pref, sub: np.ndarray) -> np.ndarray:
    """pref * prod_i (sub_i - eps_k) / prod_{j != k} (eps_j - eps_k) for
    every k: the product form of G (see ``_product_form``) at z = eps_k
    with the pole eps_k left out, row k of one paired ratio over the
    (N, N-1) gaps eps_j - eps_k. Leading axes of the deleted spectra
    ``sub`` give one row each."""
    size = eps.size
    gaps = (eps[None, :] - eps[:, None])[~np.eye(size, dtype=bool)].reshape(size, size - 1)
    return np.real(pref * paired_product_ratio(sub[..., None, :] - eps[:, None], gaps))


def green_partial_fractions(h, n: int, m: int) -> PartialFractions:
    """Pole/residue decomposition of G_{n,m}(z) in an orthonormal basis,
    from eigenvalues alone; the k-th residue is gamma[n,k] * gamma[m,k].

    A diagonal element takes its residues from the eigenvector identity
    (``eigvec_from_eigs_general``). Off the diagonal, where the deleted
    identity is singular, they come by polarization,

        gamma[n,k] gamma[m,k] = (w_k(u) - w_k(v)) / 2,   u, v = (e_n +/- e_m) / sqrt(2),

    with w(u) and w(v) the diagonal weights n and m of H after the Givens
    rotation in the (n, m) plane that takes e_n, e_m to u, v; the rotation
    keeps the spectrum. The difference is accurate in absolute terms,
    relative to the largest weight, not residue by residue. Requires a
    non-degenerate spectrum.
    """
    hm = _as_sym_array(h)
    _check_indices(hm.shape[0], n, m)
    eps = _pencil_eigvals(hm, None)
    _check_nondegenerate(eps)
    if n == m:
        coeffs = _weight_rows(eps, *_product_form(hm, None, n, n))
    else:
        # the Givens rotation G H G, G acting as g on the (n, m) plane
        g = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        rot = hm.copy()
        rot[:, [n, m]] = rot[:, [n, m]] @ g
        rot[[n, m]] = g @ rot[[n, m]]
        w = _weight_rows(eps, 1.0, _pencil_eigvals(np.stack([delete_row_col(rot, i, i) for i in (n, m)]), None))
        coeffs = 0.5 * (w[0] - w[1])
    return PartialFractions(poles=eps, coeffs=coeffs, n=n, m=m)


def eigvec_from_eigs_general(h, omega, n: int, m: int) -> np.ndarray:
    """gamma[n,k] * gamma[m,k] for every k of a symmetric-definite pencil,
    from eigenvalues and overlap determinants only, under the
    normalization gamma^T Omega gamma = I:

        (-1)^(n+m) * (det Omega^(n,m) / det Omega)
                   * prod_i (eps_sub_i - eps_k) / prod_{j != k} (eps_j - eps_k)

    One full and one deleted spectrum give the whole row, O(N^2 log N)
    after the two eigenvalue solves. With ``omega=None`` (orthonormal basis) it gives
    the squares gamma[n,k]^2, each paired ratio nonnegative and bounded by
    interlacing; the products for n != m are the residues
    ``green_partial_fractions(h, n, m).coeffs``.
    """
    hm, om = ResolventInput(h=h, omega=omega, z=0.0)._arrays()
    _check_indices(hm.shape[0], n, m)
    eps = _pencil_eigvals(hm, om)
    _check_nondegenerate(eps)
    return _weight_rows(eps, *_product_form(hm, om, n, m))
