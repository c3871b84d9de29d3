"""Scattering matrix from the tridiagonal reference-Hamiltonian recursion.

In the Laguerre basis the reference pencil J(E) = H0 - E*Overlap is
tridiagonal, so its sine-like and cosine-like coefficient sequences
c_n(E), s_n(E) satisfy a three-term recursion in the basis index. Only
two derived quantities are ever needed:

    T_n = (c_n - i s_n) / (c_n + i s_n)            (unimodular for E > 0)
    R_n(+/-) = (c_n +/- i s_n) / (c_(n-1) +/- i s_(n-1))

seeded at n = 0, 1 by Gauss-hypergeometric expressions of the scattering
kinematics and propagated by the recursion. With G the (last, last)
element of the full resolvent (H0 + V - E*Overlap)^(-1) and J the
boundary element of the reference pencil, the scattering matrix is

    S(E) = T_(N-1) * (1 + G J R_N(-)) / (1 + G J R_N(+))

which is exactly unimodular for real E and reduces to S = 1 when V = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import LAGUERRE, MatrixSet, SystemSpec, build_matrices
from .errors import (
    ConvergenceError,
    InputError,
    NumericalError,
    RecursionBreakdownError,
    SpectrumEvaluationError,
)
from .matrix_core import SpectralPair, gen_sym_eig


@dataclass(frozen=True)
class KinematicParams:
    """Scattering kinematics at one energy.

    theta is the Laguerre-basis angle with cos(theta) =
    (8E - lam^2)/(8E + lam^2), in (0, pi) for E > 0; t = Z / sqrt(2E) is
    the Coulomb strength parameter.
    """

    energy: float
    theta: float
    t: float

    @classmethod
    def for_system(cls, energy: float, lam: float, z_charge: float) -> "KinematicParams":
        if not energy > 0.0:
            raise InputError(f"scattering energy must be positive, got {energy}")
        cos_theta = (8.0 * energy - lam**2) / (8.0 * energy + lam**2)
        theta = math.acos(min(1.0, max(-1.0, cos_theta)))
        return cls(energy=energy, theta=theta, t=z_charge / math.sqrt(2.0 * energy))


@dataclass(frozen=True)
class CSCoefficients:
    """T_n and R_n(+/-) through some maximum index.

    ``r_plus[0]``/``r_minus[0]`` are NaN placeholders: the ratios start
    at index 1.
    """

    t: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray


@dataclass(frozen=True)
class ScatteringPoint:
    energy: float
    s: complex

    @property
    def delta(self) -> float:
        """Phase shift in (-pi/2, pi/2]: half the argument of S."""
        return 0.5 * cmath.phase(self.s)

    @property
    def abs_one_minus_s(self) -> float:
        return abs(1.0 - self.s)


# ---------------------------------------------------------------------------
# Gauss hypergeometric continued fraction
# ---------------------------------------------------------------------------


def _gauss_cf(alpha: complex, beta: complex, gamma: complex, z: complex, tol: float, max_levels: int, stage: str):
    """F(alpha+1, beta; gamma+1; z) / F(alpha, beta; gamma; z) by Gauss's
    continued fraction (DLMF 15.7), evaluated with modified Lentz:

        1 / (1 + k_1 z / (1 + k_2 z / (1 + ...)))
        k_(2m+1) = (alpha-gamma-m)(beta+m) / ((gamma+2m)(gamma+2m+1))
        k_(2m+2) = (beta-gamma-m-1)(alpha+m+1) / ((gamma+2m+1)(gamma+2m+2))

    On the unit circle it converges everywhere but z = 1, ever more slowly
    as z nears 1, so the level cap surfaces as an error naming ``stage``
    instead of an extrapolated value. A vanishing k_j ends it exactly.
    """
    f = c = 1.0 + 0.0j
    d = delta = 0.0j
    for level in range(max_levels):
        m, second = divmod(level, 2)
        if second:
            k = (beta - gamma - m - 1.0) * (alpha + m + 1.0) / ((gamma + 2 * m + 1.0) * (gamma + 2 * m + 2.0))
        else:
            k = (alpha - gamma - m) * (beta + m) / ((gamma + 2 * m) * (gamma + 2 * m + 1.0))
        a = k * z
        d = 1.0 / ((1.0 + a * d) or 1e-300)
        c = (1.0 + a / c) or 1e-300
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < tol:
            return 1.0 / f
    raise ConvergenceError(
        f"{stage}: continued fraction did not converge in {max_levels} levels",
        levels=max_levels,
        last_delta=abs(delta - 1.0),
    )


def hyp2f1_b1(a: complex, c: complex, x: complex, tol: float = 1e-15, max_terms: int = 10**6) -> complex:
    """2F1(a, 1; c; x) = sum_k (a)_k / (c)_k x^k for |x| <= 1: the continued
    fraction at alpha = 0, gamma = c - 1, whose denominator is 1; c = 1 is
    (1 - x)^(-a). ``tol`` bounds the last Lentz factor |Delta - 1|.
    """
    if abs(x) > 1.0 + 1e-14:
        raise InputError(f"argument must satisfy |x| <= 1, got |x| = {abs(x)}")
    if c == 1.0:
        return complex((1.0 - x) ** (-a))
    return _gauss_cf(0.0, a, c - 1.0, x, tol, max_terms, f"2F1(a, 1; c; x) at a={a}, c={c}, x={x}")


# ---------------------------------------------------------------------------
# Seeds and recursion
# ---------------------------------------------------------------------------


def seed_coefficients(kin: KinematicParams, ell: int, tol: float = 1e-15, max_terms: int = 10**6):
    """T_0 and R_1(+) at the given kinematics.

    With a = -ell + i t, c = ell + 2 + i t and x = e^(-2 i theta), T_0
    needs f = 2F1(a, 1; c; x) and R_1(+) the continued fraction
    2F1(a, 2; c+1; x) / f. At real energy the plus-branch value
    2F1(conj a, 1; conj c; conj x) is conj(f), so |T_0| = 1 by construction.
    """
    it = 1j * kin.t
    a = -ell + it
    c = ell + 2.0 + it
    x_minus = cmath.exp(-2j * kin.theta)
    stage = f"seed at E={kin.energy}, ell={ell}, t={kin.t}"
    f_minus = _gauss_cf(0.0, a, c - 1.0, x_minus, tol, max_terms, stage)
    ratio = _gauss_cf(1.0, a, c, x_minus, tol, max_terms, stage)
    t0 = cmath.exp(2j * kin.theta) * (ell + 1.0 + it) * f_minus.conjugate() / ((ell + 1.0 - it) * f_minus)
    r1_plus = cmath.exp(-1j * kin.theta) * math.sqrt(2.0 * ell + 2.0) * ratio / c
    if not (cmath.isfinite(t0) and cmath.isfinite(r1_plus)):
        raise NumericalError(f"{stage}: non-finite seeds T_0 = {t0}, R_1(+) = {r1_plus}")
    return t0, r1_plus


def cs_recursion(mats: MatrixSet, kin: KinematicParams, up_to: int, tol: float = 1e-15) -> CSCoefficients:
    """Propagate T_n and R_n(+/-) from the seeds through index ``up_to``
    using rows 1 .. up_to-1 of the tridiagonal reference pencil:

        R_(n+1) = -(J_nn + J_(n,n-1) / R_n) / J_(n,n+1)
        T_n     = T_(n-1) * R_n(-) / R_n(+)
    """
    size = mats.size
    if up_to > size:
        raise InputError(f"recursion index {up_to} exceeds basis size {size}")
    if mats.spec.basis.family != LAGUERRE:
        raise InputError("coefficient recursion is seeded for the Laguerre basis only")
    ell = mats.spec.basis.ell
    diag, off = mats.j_tridiagonal(kin.energy)

    t0, r1p = seed_coefficients(kin, ell, tol=tol)
    t = np.empty(up_to + 1, dtype=complex)
    r_plus = np.full(up_to + 1, complex("nan"), dtype=complex)
    r_minus = np.full(up_to + 1, complex("nan"), dtype=complex)
    t[0] = t0
    if up_to >= 1:
        r_plus[1] = r1p
        # c_n, s_n are real at real energy, so the minus-branch seed is the
        # complex conjugate of the plus branch.
        r_minus[1] = r1p.conjugate()
        t[1] = t[0] * r_minus[1] / r_plus[1]
    for n in range(1, up_to):
        if off[n] == 0.0:
            raise RecursionBreakdownError(f"recursion breakdown at n={n}: vanishing coupling", index=n)
        for r in (r_plus, r_minus):
            if r[n] == 0.0 or not np.isfinite(r[n]):
                raise RecursionBreakdownError(f"recursion breakdown at n={n}: vanishing ratio", index=n)
            r[n + 1] = -(diag[n] + off[n - 1] / r[n]) / off[n]
        t[n + 1] = t[n] * r_minus[n + 1] / r_plus[n + 1]
    return CSCoefficients(t=t, r_plus=r_plus, r_minus=r_minus)


# ---------------------------------------------------------------------------
# S-matrix
# ---------------------------------------------------------------------------


class ScatteringCalculator:
    """Precomputes the spectral data of one system and evaluates S(E)
    cheaply at many energies.

    The eigendecomposition of the full pencil (H0 + V, Overlap) is done
    once; each energy then costs one seed evaluation, one O(N) recursion
    sweep, and one O(N) spectral sum for the resolvent element.
    """

    def __init__(self, system: SystemSpec, mats: Optional[MatrixSet] = None, **build_kwargs):
        if system.basis.family != LAGUERRE:
            raise InputError("S-matrix evaluation requires the Laguerre basis")
        self.system = system
        self.mats = mats if mats is not None else build_matrices(system, **build_kwargs)
        self.pair: SpectralPair = gen_sym_eig(self.mats.h.data, self.mats.omega.data)
        last = self.mats.size - 1
        self._weights = self.pair.gamma[last] ** 2 / self.pair.sigma

    @property
    def eigenvalues(self) -> np.ndarray:
        """Generalized eigenvalues of (H, Overlap): poles of the finite
        resolvent, and the stabilization candidates for narrow resonances."""
        return self.pair.eps

    def green_last(self, energy: float) -> float:
        """G_(N-1,N-1)(E) of the full Hamiltonian via the spectral sum.

        Refuses only essentially exact pole hits (within a few ulp of an
        eigenvalue); narrow-resonance structure lives at gaps of 1e-12
        and below, which evaluate fine in floating point.
        """
        gaps = self.pair.eps - energy
        i = int(np.argmin(np.abs(gaps)))
        if abs(gaps[i]) < 1e-15 * max(1.0, abs(energy)):
            raise SpectrumEvaluationError(
                f"evaluation at spectrum: E={energy} sits on eigenvalue {self.pair.eps[i]}",
                pole=float(self.pair.eps[i]),
            )
        return float(np.sum(self._weights / gaps))

    def point(self, energy: float) -> ScatteringPoint:
        size = self.mats.size
        kin = KinematicParams.for_system(energy, self.system.basis.lam, self.system.z_charge)
        cs = cs_recursion(self.mats, kin, up_to=size)
        g = self.green_last(energy)
        j = self.mats.j_boundary(energy)
        gj = g * j
        denom = 1.0 + gj * cs.r_plus[size]
        if denom == 0.0:
            raise NumericalError(f"S-matrix denominator vanished at E={energy}")
        s = cs.t[size - 1] * (1.0 + gj * cs.r_minus[size]) / denom
        return ScatteringPoint(energy=energy, s=complex(s))


def s_matrix(system: SystemSpec, energy: float) -> ScatteringPoint:
    """One-shot S(E); use ScatteringCalculator for scans."""
    return ScatteringCalculator(system).point(energy)
