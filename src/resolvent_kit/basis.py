"""Radial square-integrable bases and their operator matrices.

Two families over r in (0, inf), both built on generalized Laguerre
polynomials with scale parameter ``lam``:

* ``laguerre``:   psi_n(r) ~ (lam r)^(ell+1) exp(-lam r / 2) L_n^(2ell+1)(lam r)
                  -- non-orthogonal; overlap and reference-Hamiltonian
                  matrices are tridiagonal.
* ``oscillator``: psi_n(r) ~ (lam r)^(ell+1) exp(-lam^2 r^2 / 2) L_n^(ell+1/2)(lam^2 r^2)
                  -- orthonormal (overlap = identity).

The reference Hamiltonian is the radial Coulomb operator

    H0 = -(1/2) d^2/dr^2 + ell(ell+1)/(2 r^2) + Z/r      (atomic units)

For the Laguerre family, H0 and the overlap are filled from closed forms
obtained via the Laguerre three-term recurrence and then cross-checked at
construction against an exact-degree Gauss quadrature that never uses
those recurrences for the integrand (kinetic energy enters through
integration by parts, so only first derivatives of the basis appear).
Any disagreement beyond ``CHECK_TOL`` aborts the build. The short-range
potential matrix is always computed by quadrature, with an order-doubling
convergence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import functools
import math

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from .errors import InputError, QuadratureError
from .matrix_core import SymMatrix
from .potential import PotentialExpr

LAGUERRE = "laguerre"
OSCILLATOR = "oscillator"


def _orthonormal_recurrence(alpha: float, degree: int, x: np.ndarray, cur, logscale, rows=None):
    """Three-term recurrence of the orthonormal generalized Laguerre
    polynomials lhat_n = sqrt(n!/Gamma(n+alpha+1)) L_n^alpha at the nodes
    x, from degree 0 to ``degree``.

    The caller's start values carry lhat_0 = Gamma(alpha+1)^(-1/2) times
    any per-node scale it wants applied: the value at degree n is
    cur * exp(logscale). Whenever a value grows large, its node is
    renormalized and the factor moves into ``logscale``, so the recurrence
    stays finite where a plain evaluation would overflow.

    Returns (cur, prev, logscale) at the last degree; the ratio of cur and
    prev is scale-free. Given ``rows``, row n receives the value at degree
    n for n = 0 .. degree, zero where it underflows.
    """
    prev = np.zeros_like(x)
    with np.errstate(under="ignore"):
        if rows is not None:
            scale = np.exp(logscale)  # recomputed only when logscale changes
            rows[0] = cur * scale
        for n in range(degree):
            a = (2.0 * n + alpha + 1.0 - x) / np.sqrt((n + 1.0) * (n + alpha + 1.0))
            b = np.sqrt(n * (n + alpha) / ((n + 1.0) * (n + alpha + 1.0))) if n >= 1 else 0.0
            cur, prev = a * cur - b * prev, cur
            big = np.abs(cur) > 1e120
            if np.any(big):
                factor = np.where(big, np.abs(cur), 1.0)
                logscale = logscale + np.log(factor)
                cur = cur / factor
                prev = prev / factor
                if rows is not None:
                    scale = np.exp(logscale)
            if rows is not None:
                rows[n + 1] = cur * scale
    return cur, prev, logscale


def _lhat0(alpha: float, x: np.ndarray):
    """Start values (cur, logscale) of the recurrence for the bare lhat_n."""
    return np.full_like(x, np.exp(-0.5 * gammaln(alpha + 1.0))), np.zeros_like(x)


def gauss_quadrature(alpha: float, npts: int):
    """Nodes and weights of the generalized Gauss-Laguerre rule.

    Exact for polynomials of degree <= 2*npts - 1 against the weight
    x^alpha e^(-x) on (0, inf). Nodes are the eigenvalues of the
    orthonormal-recurrence tridiagonal matrix; weights come from the
    classical end-polynomial formula

        w_k = x_k / ((npts+1)(npts+alpha+1) lhat_(npts+1)(x_k)^2)

    evaluated through logs, so large rules keep full relative accuracy in
    the exponentially small tail weights (an eigenvector-based rule loses
    them to absolute round-off).
    """
    nodes, log_w = gauss_rule_log(alpha, npts)
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return nodes.copy(), weights


def log_weights(alpha: float, npts: int, nodes: np.ndarray) -> np.ndarray:
    """log of the Gauss-Laguerre weights at the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    cur, _, logscale = _orthonormal_recurrence(alpha, npts + 1, nodes, *_lhat0(alpha, nodes))
    logmag = np.log(np.abs(cur)) + logscale
    return np.log(nodes) - math.log(npts + 1.0) - math.log(npts + alpha + 1.0) - 2.0 * logmag


def gauss_rule_log(alpha: float, npts: int):
    """(nodes, log weights) of the generalized Gauss-Laguerre rule; the
    form quadrature sums should consume so tiny weights keep relative
    accuracy.

    A rule depends only on (alpha, npts), so each is built once per
    process and shared: the returned arrays are read-only."""
    if npts < 1:
        raise InputError("quadrature needs at least one point")
    if alpha <= -1.0:
        raise InputError(f"weight exponent must exceed -1, got {alpha}")
    return _gauss_rule_cached(float(alpha), int(npts))


@functools.lru_cache(maxsize=128)
def _gauss_rule_cached(alpha: float, npts: int):
    k = np.arange(npts, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    if npts == 1:
        nodes, log_w = diag, np.array([gammaln(alpha + 1.0)])
    else:
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        nodes = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
        # One Newton step against the degree-npts polynomial cleans up the
        # O(norm * eps) eigenvalue round-off; x lhat' = n lhat - sqrt(n(n+a)) lhat_(n-1).
        cur, prev, _ = _orthonormal_recurrence(alpha, npts, nodes, *_lhat0(alpha, nodes))
        deriv = (npts * cur - math.sqrt(npts * (npts + alpha)) * prev) / nodes
        nodes = nodes - cur / deriv
        log_w = log_weights(alpha, npts, nodes)
    nodes.setflags(write=False)
    log_w.setflags(write=False)
    return nodes, log_w


def orthonormal_laguerre_table(alpha: float, nmax: int, x, log_scale=None) -> np.ndarray:
    """Values of the orthonormalized generalized Laguerre polynomials.

    Returns T with T[n, k] = lhat_n(x[k]) * exp(log_scale[k]) for
    n = 0..nmax. The per-node log scale (typically log sqrt of a
    quadrature weight) rides along in log space and is applied on
    emission, so rows whose true magnitude is representable come out
    exact even when the bare polynomial value alone would overflow; rows
    that truly underflow emit zero.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    logscale = np.zeros_like(x) if log_scale is None else np.asarray(log_scale, dtype=float)
    _orthonormal_recurrence(alpha, nmax, x, np.ones_like(x), logscale - 0.5 * gammaln(alpha + 1.0), rows=out)
    return out


@dataclass(frozen=True)
class BasisSpec:
    """Basis family, inverse-length scale, angular momentum, size."""

    family: str
    lam: float
    ell: int
    size: int

    def __post_init__(self):
        if self.family not in (LAGUERRE, OSCILLATOR):
            raise InputError(f"unknown basis family {self.family!r}")
        if not self.lam > 0.0:
            raise InputError("basis scale lam must be positive")
        if self.ell < 0 or int(self.ell) != self.ell:
            raise InputError("angular momentum ell must be a nonnegative integer")
        if self.size < 2:
            raise InputError("basis size must be >= 2")


@dataclass(frozen=True)
class SystemSpec:
    """Basis + charge + short-range potential defining one physical system.

    ``potential=None`` means V = 0. The potential is sampled at
    construction: it must be finite on (0, range_r] and negligible beyond
    ``range_r``.
    """

    basis: BasisSpec
    z_charge: float = 0.0
    potential: Optional[PotentialExpr] = None
    range_r: float = 50.0
    check_potential: bool = True  # escape hatch for non-decaying test potentials

    def __post_init__(self):
        if self.potential is None or not self.check_potential:
            return
        r_in = np.geomspace(1e-4, self.range_r, 256)
        v_in = np.asarray(self.potential(r_in), dtype=float)
        if not np.all(np.isfinite(v_in)):
            raise InputError("potential is not finite on (0, range_r]")
        r_out = np.linspace(self.range_r, 2.0 * self.range_r, 64)
        v_out = np.asarray(self.potential(r_out), dtype=float)
        scale = max(1.0, float(np.max(np.abs(v_in))))
        if not np.all(np.isfinite(v_out)) or np.max(np.abs(v_out)) > 1e-6 * scale:
            raise InputError(
                f"potential does not decay beyond r = {self.range_r}; "
                "increase range_r if the range really is that long"
            )

    def v_values(self, r):
        if self.potential is None:
            return np.zeros_like(np.asarray(r, dtype=float))
        return np.asarray(self.potential(r), dtype=float)


@dataclass(frozen=True)
class MatrixSet:
    """Operator matrices of one system in one basis.

    ``j_boundary(E)`` is the (size-1, size) element of H0 - E*Overlap,
    i.e. the coupling of the last kept basis row to the first dropped
    one; the scattering recursion terminates through it.
    """

    h0: SymMatrix
    v: SymMatrix
    omega: SymMatrix
    j_boundary: Callable[[float], float]
    spec: SystemSpec = field(repr=False)

    @property
    def h(self) -> SymMatrix:
        return SymMatrix(self.h0.data + self.v.data)

    @property
    def size(self) -> int:
        return self.h0.n

    def j_tridiagonal(self, energy):
        """(diagonal, superdiagonal) of H0 - E*Overlap, the superdiagonal
        extended by j_boundary(E). For an array of energies the basis
        index runs along the first axis and the energies along the rest."""
        energy = np.asarray(energy, dtype=float)
        index = (slice(None),) + (None,) * energy.ndim
        h0 = self.h0.data
        om = self.omega.data
        diag = np.diag(h0)[index] - energy * np.diag(om)[index]
        off = np.diag(h0, 1)[index] - energy * np.diag(om, 1)[index]
        boundary = np.broadcast_to(self.j_boundary(energy), energy.shape)
        return diag, np.concatenate([off, boundary[None]])


def _laguerre_analytic(lam: float, ell: int, z_charge: float, size: int):
    """Tridiagonal overlap and H0 bands for the Laguerre family, sized
    ``size`` (diagonals) with ``size`` superdiagonal entries so the
    boundary element is available."""
    n = np.arange(size)
    omega_d = 2.0 * n + 2.0 * ell + 2.0
    omega_o = -np.sqrt((n + 1.0) * (n + 2.0 * ell + 2.0))
    h0_d = 0.25 * lam**2 * (n + ell + 1.0) + z_charge * lam
    h0_o = 0.125 * lam**2 * np.sqrt((n + 1.0) * (n + 2.0 * ell + 2.0))
    return omega_d, omega_o, h0_d, h0_o


def _bands_to_matrix(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    m = np.diag(diag)
    k = diag.size - 1
    m += np.diag(off[:k], 1) + np.diag(off[:k], -1)
    return m


def _potential_by_quadrature(spec: SystemSpec, alpha_weight, alpha_poly, npts, arg_of_r):
    """<psi_n|V|psi_m> on the weighted-polynomial representation: returns
    the size x size matrix sum_k w_k lhat_n lhat_m V(r(x_k))."""
    size = spec.basis.size
    nodes, log_w = gauss_rule_log(alpha_weight, npts)
    table = orthonormal_laguerre_table(alpha_poly, size - 1, nodes, log_scale=0.5 * log_w)
    vvals = spec.v_values(arg_of_r(nodes))
    vm = (table * vvals) @ table.T
    return 0.5 * (vm + vm.T)


# The potential quadrature starts from max(4 * size, 40) points and
# doubles until a doubling changes the matrix by at most CONV_TOL
# (relative), or raises at _QUAD_POINT_CAP.
_QUAD_POINT_CAP = 4096
CONV_TOL = 1e-8

# Largest disagreement (relative) allowed between the closed-form H0 and
# overlap matrices and their exact quadrature.
CHECK_TOL = 1e-10


def _potential_with_convergence_check(spec: SystemSpec, alpha_weight, alpha_poly, arg_of_r):
    """Doubling test on the potential quadrature; escalates the rule until
    doubling changes nothing, errors out at the point cap.

    The cap is checked after the doubled rule is built, so from a start
    below the cap the last doubling builds fewer than 2 * _QUAD_POINT_CAP
    points before QuadratureError; that also bounds the largest cached
    rule at about 128 KB."""
    npts = max(4 * spec.basis.size, 40)
    v1 = _potential_by_quadrature(spec, alpha_weight, alpha_poly, npts, arg_of_r)
    while True:
        v2 = _potential_by_quadrature(spec, alpha_weight, alpha_poly, 2 * npts, arg_of_r)
        residual = float(np.max(np.abs(v1 - v2)) / (1.0 + np.max(np.abs(v2))))
        if np.isfinite(residual) and residual <= CONV_TOL:
            return v2
        if 2 * npts >= _QUAD_POINT_CAP:
            raise QuadratureError(
                f"potential quadrature did not converge: doubling {npts} -> {2 * npts} points "
                f"still changes the matrix by {residual:.3e} (tolerance {CONV_TOL:.1e})",
                residual=residual,
            )
        npts *= 2
        v1 = v2


def laguerre_matrices(spec: SystemSpec) -> MatrixSet:
    """Overlap, reference Hamiltonian, and potential matrices in the
    Laguerre basis, plus the boundary coupling for scattering."""
    b = spec.basis
    if b.family != LAGUERRE:
        raise InputError("laguerre_matrices requires a Laguerre basis spec")
    size, lam, ell = b.size, b.lam, b.ell
    omega_d, omega_o, h0_d, h0_o = _laguerre_analytic(lam, ell, spec.z_charge, size)

    omega = _bands_to_matrix(omega_d, omega_o)
    h0 = _bands_to_matrix(h0_d, h0_o)
    _check_laguerre_against_quadrature(spec, h0, omega, CHECK_TOL)
    v = _potential_with_convergence_check(spec, 2 * ell + 2, 2 * ell + 1, lambda x: x / lam)

    s_last = float(np.sqrt(size * (size + 2.0 * ell + 1.0)))
    off_h0 = 0.125 * lam**2 * s_last
    off_omega = -s_last

    def j_boundary(energy: float) -> float:
        return off_h0 - energy * off_omega

    return MatrixSet(
        h0=SymMatrix(h0), v=SymMatrix(v), omega=SymMatrix(omega), j_boundary=j_boundary, spec=spec
    )


def _check_laguerre_against_quadrature(spec: SystemSpec, h0: np.ndarray, omega: np.ndarray, check_tol: float):
    """Independent quadrature evaluation of the overlap and H0 matrices.

    Every integrand below is (weight) x (polynomial), so a rule of
    size + 2 points is exact and the comparison probes only the closed
    forms, not the quadrature itself. The kinetic term is evaluated as
    (1/2) int psi_n' psi_m' dr.
    """
    b = spec.basis
    size, lam, ell = b.size, b.lam, b.ell
    z_charge = spec.z_charge
    npts = size + 2

    # Overlap: weight x^(2ell+2) against L^(2ell+1) polynomials.
    x2, lw2 = gauss_rule_log(2 * ell + 2, npts)
    t2 = orthonormal_laguerre_table(2 * ell + 1, size - 1, x2, log_scale=0.5 * lw2)
    omega_q = t2 @ t2.T

    # Coulomb: weight x^(2ell+1) is the orthonormality weight itself.
    x1, lw1 = gauss_rule_log(2 * ell + 1, npts)
    t1 = orthonormal_laguerre_table(2 * ell + 1, size - 1, x1, log_scale=0.5 * lw1)
    coulomb_q = z_charge * lam * (t1 @ t1.T)

    # Kinetic + centrifugal: weight x^(2ell). The derivative of the basis
    # function is x^ell e^(-x/2) [(ell+1-x/2) lhat_n - sqrt(n) x lhat'_(n-1)]
    # with lhat' the alpha+1 orthonormal family.
    x0, lw0 = gauss_rule_log(2 * ell, npts)
    ta = orthonormal_laguerre_table(2 * ell + 1, size - 1, x0, log_scale=0.5 * lw0)
    tb = orthonormal_laguerre_table(2 * ell + 2, size - 1, x0, log_scale=0.5 * lw0)
    dpsi = (ell + 1.0 - 0.5 * x0) * ta
    root_n = np.sqrt(np.arange(1.0, size))
    dpsi[1:] -= root_n[:, None] * x0 * tb[: size - 1]
    kinetic_q = 0.5 * lam**2 * (dpsi @ dpsi.T)
    centrifugal_q = 0.5 * ell * (ell + 1.0) * lam**2 * (ta @ ta.T)

    h0_q = kinetic_q + centrifugal_q + coulomb_q
    scale_h = 1.0 + np.max(np.abs(h0))
    scale_o = 1.0 + np.max(np.abs(omega))
    resid = max(
        float(np.max(np.abs(h0 - h0_q)) / scale_h),
        float(np.max(np.abs(omega - omega_q)) / scale_o),
    )
    if resid > check_tol:
        raise QuadratureError(
            f"closed-form and quadrature matrix elements disagree by {resid:.3e} "
            f"(tolerance {check_tol:.1e})",
            residual=resid,
        )


def oscillator_matrices(spec: SystemSpec) -> MatrixSet:
    """Identity overlap plus quadrature-built H0 and potential matrices in
    the oscillator basis (working variable x = lam^2 r^2)."""
    b = spec.basis
    if b.family != OSCILLATOR:
        raise InputError("oscillator_matrices requires an oscillator basis spec")
    size, lam, ell = b.size, b.lam, b.ell
    z_charge = spec.z_charge
    alpha = ell + 0.5
    npts = size + 2

    # Kinetic + centrifugal via first derivatives, weight x^(ell-1/2):
    # d psi/dr = 2 lam e^(-x/2) x^(ell/2) [ ((ell+1)/2 - x/2) lhat_n
    #                                       - sqrt(n) x lhat'_(n-1) ] ... /sqrt-normalized
    xk, lwk = gauss_rule_log(ell - 0.5, npts)
    ta = orthonormal_laguerre_table(alpha, size - 1, xk, log_scale=0.5 * lwk)
    tb = orthonormal_laguerre_table(alpha + 1.0, size - 1, xk, log_scale=0.5 * lwk)
    g = (0.5 * (ell + 1.0) - 0.5 * xk) * ta
    root_n = np.sqrt(np.arange(1.0, size))
    g[1:] -= root_n[:, None] * xk * tb[: size - 1]
    kinetic = 2.0 * lam**2 * (g @ g.T)
    centrifugal = 0.5 * ell * (ell + 1.0) * lam**2 * (ta @ ta.T)

    h0 = kinetic + centrifugal
    coulomb_band = None
    if z_charge != 0.0:
        xc, lwc = gauss_rule_log(float(ell), npts)
        tc = orthonormal_laguerre_table(alpha, size, xc, log_scale=0.5 * lwc)
        h0 = h0 + z_charge * lam * (tc[:size] @ tc[:size].T)
        coulomb_band = z_charge * lam * float(np.sum(tc[size - 1] * tc[size]))
    h0 = 0.5 * (h0 + h0.T)

    _check_oscillator_against_quadrature(lam, ell, size, kinetic + centrifugal)
    v = _potential_with_convergence_check(spec, alpha, alpha, lambda x: np.sqrt(x) / lam)

    off_h0 = 0.5 * lam**2 * np.sqrt(size * (size + ell + 0.5))
    if coulomb_band is not None:
        off_h0 += coulomb_band

    def j_boundary(energy: float) -> float:
        return off_h0  # identity overlap has no off-diagonal E term

    return MatrixSet(
        h0=SymMatrix(h0),
        v=SymMatrix(v),
        omega=SymMatrix(np.eye(size)),
        j_boundary=j_boundary,
        spec=spec,
    )


def _check_oscillator_against_quadrature(lam, ell, size, t_quad):
    """Quadrature kinetic+centrifugal vs the closed tridiagonal form
    (lam^2/2)(2n + ell + 3/2) on the diagonal and
    (lam^2/2) sqrt((n+1)(n + ell + 3/2)) beside it."""
    n = np.arange(size)
    diag = 0.5 * lam**2 * (2.0 * n + ell + 1.5)
    off = 0.5 * lam**2 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + ell + 1.5))
    t_ref = _bands_to_matrix(diag, off)
    resid = float(np.max(np.abs(t_quad - t_ref)) / (1.0 + np.max(np.abs(t_ref))))
    if resid > CHECK_TOL:
        raise QuadratureError(
            f"oscillator kinetic matrix disagrees with its closed form by {resid:.3e}",
            residual=resid,
        )


def build_matrices(spec: SystemSpec) -> MatrixSet:
    """Dispatch on the basis family."""
    if spec.basis.family == LAGUERRE:
        return laguerre_matrices(spec)
    return oscillator_matrices(spec)
