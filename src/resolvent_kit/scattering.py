"""Scattering matrix from the reference-Hamiltonian coefficients at n = N.

In the Laguerre basis the reference pencil J(E) = H0 - E*Overlap is
tridiagonal, so its sine-like and cosine-like coefficient sequences
c_n(E), s_n(E) satisfy a three-term recursion in the basis index. Only
two derived quantities are ever needed:

    T_n = (c_n - i s_n) / (c_n + i s_n)            (unimodular for E > 0)
    R_n(+/-) = (c_n +/- i s_n) / (c_(n-1) +/- i s_(n-1))

For a neutral system (Z = 0) both are ratios of terminating
hypergeometric polynomials of degree ell, evaluated in closed form at
n = N; they are within 1e-13 relative of 50-digit mpmath for E 1e-3 ..
50, lam 1 .. 20, ell <= 3, N <= 120. Coulomb systems seed them at
n = 0, 1 by Gauss-hypergeometric expressions of the scattering
kinematics and propagate them by the recursion; far below E = lam^2/8 a
repulsive Coulomb S(E) then carries rounding error of up to 1e-7 .. 5e-6
(see the README's numerical conventions). With G the (last, last)
element of the full resolvent (H0 + V - E*Overlap)^(-1) and J the
boundary element of the reference pencil, the scattering matrix is

    S(E) = T_(N-1) * (1 + G J R_N(-)) / (1 + G J R_N(+))

which is exactly unimodular for real E and reduces to S = 1 when V = 0.
At real E the pencil is real, so R_n(-) = conj(R_n(+)) and only the plus
branch is computed.

Every stage is elementwise in E and works on an array of energies at
once. A stage that fails at some energies either raises the first
failure or, given an ``errors`` map, records each failure under its
index and returns NaN there, leaving the other energies untouched.
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
)
from .matrix_core import SpectralPair, gen_sym_eig
from .resolvent import PartialFractions, _batches, _pole_error


def _record(errors: Optional[dict], index, exc: NumericalError):
    """Raise ``exc``, or file it in ``errors`` under ``index`` unless an
    earlier stage already failed there."""
    if errors is None:
        raise exc
    errors.setdefault(int(index), exc)


@dataclass(frozen=True)
class KinematicParams:
    """Scattering kinematics at an array of energies (0-d for one).

    theta is the Laguerre-basis angle with cos(theta) =
    (8E - lam^2)/(8E + lam^2), in (0, pi) for E > 0; t = Z / sqrt(2E) is
    the Coulomb strength parameter. Both have the shape of ``energy``.
    theta is computed as 2 atan2(lam, sqrt(8E)), which is accurate to a
    few ulps everywhere; arccos of the cosine loses digits as theta nears
    pi (E << lam^2/8), and e^(2iN theta) multiplies that loss by 2N.
    """

    energy: np.ndarray
    theta: np.ndarray
    t: np.ndarray

    @classmethod
    def for_system(cls, energy, lam: float, z_charge: float) -> "KinematicParams":
        energy = np.asarray(energy, dtype=float)
        bad = ~(energy > 0.0)
        if bad.any():
            raise InputError(f"scattering energy must be positive, got {float(energy[bad][0])}")
        theta = 2.0 * np.arctan2(lam, np.sqrt(8.0 * energy))
        return cls(energy=energy, theta=theta, t=z_charge / np.sqrt(2.0 * energy))


@dataclass(frozen=True)
class CSCoefficients:
    """T_(n-1) and R_n(+) at the last index n of a recursion, with the
    shape of the energies it ran at."""

    t: np.ndarray
    r_plus: np.ndarray


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


def _gauss_cf(alpha, beta, gamma, z, tol: float, max_levels: int):
    """F(alpha+1, beta; gamma+1; z) / F(alpha, beta; gamma; z) by Gauss's
    continued fraction (DLMF 15.7), evaluated with modified Lentz
    elementwise over 1-D arrays of one length:

        1 / (1 + k_1 z / (1 + k_2 z / (1 + ...)))
        k_(2m+1) = (alpha-gamma-m)(beta+m) / ((gamma+2m)(gamma+2m+1))
        k_(2m+2) = (beta-gamma-m-1)(alpha+m+1) / ((gamma+2m+1)(gamma+2m+2))

    Each element stops at its own first |Delta - 1| < tol and leaves the
    active set, so a batch takes as many levels as its slowest element.
    On the unit circle the fraction converges everywhere but z = 1, ever
    more slowly as z nears 1; a vanishing k_j ends it exactly.

    Returns (values, failed, last_delta): the elements still active at
    the level cap are NaN in ``values`` and listed by index in
    ``failed``, with their last |Delta - 1| in ``last_delta``.
    """
    values = np.full(z.shape, complex("nan"))
    active = np.arange(z.size)
    f = c = np.ones(z.size, dtype=complex)
    d = delta = np.zeros(z.size, dtype=complex)
    for level in range(max_levels):
        if active.size == 0:
            break
        m, second = divmod(level, 2)
        if second:
            k = (beta - gamma - m - 1.0) * (alpha + m + 1.0) / ((gamma + 2 * m + 1.0) * (gamma + 2 * m + 2.0))
        else:
            k = (alpha - gamma - m) * (beta + m) / ((gamma + 2 * m) * (gamma + 2 * m + 1.0))
        a = k * z
        # np.count_nonzero is the cheapest any/all test on short arrays
        d = 1.0 + a * d
        if np.count_nonzero(d) < d.size:
            d[d == 0.0] = 1e-300
        d = 1.0 / d
        c = 1.0 + a / c
        if np.count_nonzero(c) < c.size:
            c[c == 0.0] = 1e-300
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < tol
        if np.count_nonzero(done):
            values[active[done]] = 1.0 / f[done]
            keep = ~done
            active, alpha, beta, gamma, z, f, c, d, delta = (
                v[keep] for v in (active, alpha, beta, gamma, z, f, c, d, delta)
            )
    return values, active, np.abs(delta - 1.0)


def _cf_error(stage: str, max_levels: int, last_delta) -> ConvergenceError:
    return ConvergenceError(
        f"{stage}: continued fraction did not converge in {max_levels} levels",
        levels=max_levels,
        last_delta=float(last_delta),
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
    value, failed, last_delta = _gauss_cf(
        np.zeros(1), np.array([a], dtype=complex), np.array([c - 1.0], dtype=complex), np.array([x], dtype=complex),
        tol, max_terms,
    )
    if failed.size:
        raise _cf_error(f"2F1(a, 1; c; x) at a={a}, c={c}, x={x}", max_terms, last_delta[0])
    return complex(value[0])


# ---------------------------------------------------------------------------
# Seeds and recursion
# ---------------------------------------------------------------------------

# A seed's continued fraction has converged at its first Lentz factor
# with |Delta - 1| < SEED_TOL.
SEED_TOL = 1e-15


def seed_coefficients(kin: KinematicParams, ell: int, max_terms: int = 10**6, errors: Optional[dict] = None):
    """T_0 and R_1(+) at every energy of ``kin``, in its shape.

    With a = -ell + i t, c = ell + 2 + i t and x = e^(-2 i theta), T_0
    needs f = 2F1(a, 1; c; x) and R_1(+) the continued fraction
    2F1(a, 2; c+1; x) / f. At real energy the plus-branch value
    2F1(conj a, 1; conj c; conj x) is conj(f), so |T_0| = 1 by construction.
    A continued fraction that hits the level cap, or non-finite seeds,
    fail the element (see the module docstring for ``errors``).
    """
    energy, theta, t = (np.ravel(v) for v in (kin.energy, kin.theta, kin.t))
    size = energy.size
    it = 1j * t
    a = -ell + it
    c = ell + 2.0 + it
    x_minus = np.exp(-2j * theta)
    # f_minus (alpha = 0, gamma = c - 1) and the ratio (alpha = 1, gamma = c)
    # share z and beta, so both run as one batch of 2M fractions
    both, failed, last = _gauss_cf(
        np.repeat([0.0, 1.0], size), np.tile(a, 2), np.concatenate([c - 1.0, c]), np.tile(x_minus, 2),
        SEED_TOL, max_terms,
    )
    f_minus, ratio = both[:size], both[size:]
    with np.errstate(invalid="ignore"):
        t0 = np.exp(2j * theta) * (ell + 1.0 + it) * np.conj(f_minus) / ((ell + 1.0 - it) * f_minus)
        r1_plus = np.exp(-1j * theta) * math.sqrt(2.0 * ell + 2.0) * ratio / c

    def stage(i):
        return f"seed at E={float(energy[i])}, ell={ell}, t={float(t[i])}"

    # ``failed`` ascends, so at each energy f_minus's failure is filed first
    for index, last_delta in zip(failed, last):
        i = index % size
        _record(errors, i, _cf_error(stage(i), max_terms, last_delta))
    bad = ~(np.isfinite(t0) & np.isfinite(r1_plus))
    for i in np.flatnonzero(bad):
        _record(
            errors, i,
            NumericalError(f"{stage(i)}: non-finite seeds T_0 = {complex(t0[i])}, R_1(+) = {complex(r1_plus[i])}"),
        )
    t0[bad] = r1_plus[bad] = complex("nan")
    return t0.reshape(kin.energy.shape), r1_plus.reshape(kin.energy.shape)


def cs_recursion(
    mats: MatrixSet, kin: KinematicParams, up_to: int, errors: Optional[dict] = None
) -> CSCoefficients:
    """T_(up_to-1) and R_up_to(+) at every energy of ``kin``.

    A neutral system (Z = 0) takes both from their closed forms at
    n = up_to (see ``_neutral_coefficients``), with neither seeds nor
    recursion. Otherwise they are propagated from the seeds through rows
    1 .. up_to-1 of the tridiagonal reference pencil:

        R_(n+1) = -(J_nn + J_(n,n-1) / R_n) / J_(n,n+1)
        T_n     = T_(n-1) * conj(R_n) / R_n

    A vanishing coupling, or a vanishing or non-finite ratio, is a
    breakdown that fails the element; elements whose seeds failed come
    in as NaN and are carried without further checks. A non-finite
    closed form fails its element the same way.
    """
    size = mats.size
    if not 1 <= up_to <= size:
        raise InputError(f"recursion index {up_to} outside 1 .. basis size {size}")
    if mats.spec.basis.family != LAGUERRE:
        raise InputError("coefficient recursion is seeded for the Laguerre basis only")
    if mats.spec.z_charge == 0.0:
        return _neutral_coefficients(kin, mats.spec.basis.ell, up_to, errors)
    # complex copies spare the loop a real-to-complex cast at every step
    diag, off = mats.j_tridiagonal(np.ravel(kin.energy))
    neg_diag, off = (-diag).astype(complex), off.astype(complex)

    t0, r1p = seed_coefficients(kin, mats.spec.basis.ell, errors=errors)
    t = np.ravel(t0)
    failed = np.isnan(t)
    r1p = np.where(failed, 1.0, np.ravel(r1p))  # a finite stand-in for failed seeds
    r = r1p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(1, up_to):
            t = t * np.conj(r) / r
            r = (neg_diag[n] - off[n - 1] / r) / off[n]
    # A ratio that vanishes or is not finite leaves T non-finite for good,
    # so only the couplings need a check of their own.
    broken = ~failed & (~np.isfinite(t) | np.any(off[1:up_to] == 0.0, axis=0))
    if broken.any():
        _report_breakdowns(np.flatnonzero(broken), r1p, neg_diag, off, up_to, errors)
        failed |= broken
    nan = complex("nan")
    return CSCoefficients(
        t=np.where(failed, nan, t).reshape(kin.energy.shape),
        r_plus=np.where(failed, nan, r).reshape(kin.energy.shape),
    )


def _neutral_coefficients(kin: KinematicParams, ell: int, n: int, errors: Optional[dict]) -> CSCoefficients:
    """T_(n-1) and R_n(+) of a neutral system in closed form.

    At Z = 0 the reference solutions are terminating hypergeometric
    series (Heller & Yamani, PRA 9, 1201 (1974); Yamani & Fishman,
    JMP 16, 410 (1975)). With F_n = 2F1(-ell, n; ell+n+1; x) and
    x = e^(-2i theta),

        T_(n-1) = e^(2in theta) conj(F_n) / F_n
        R_n(+)  = e^(-i theta) sqrt(n (n+2ell+1)) / (ell+n+1) F_(n+1) / F_n

    which at n = 1 are the seeds. F_n is a polynomial of degree ell in x,
    but its sum in powers of x cancels to O(n^-ell) of its terms as x
    nears 1, at both ends of the energy range. Re-expanded about x = 1
    (DLMF 15.8.7) it is (ell+1)_ell / (ell+n+1)_ell times

        P_n(y) = sum_k (-ell)_k (n)_k / ((-2ell)_k k!) y^k,  y = 1 - x,

    whose coefficients are all positive; the real prefactors cancel in
    T and leave sqrt(n / (n+2ell+1)) in R. Against 50-digit mpmath
    (E 1e-3 .. 50, lam 1 .. 20, ell <= 3, n <= 120) R is within 1e-15 and
    T within 1e-13 relative, T's error being theta's rounding times 2n;
    the sum in powers of x reaches 8e-12. A non-finite T or R fails its
    element (see the module docstring for ``errors``).
    """
    energy, theta = np.ravel(kin.energy), np.ravel(kin.theta)
    phase = np.exp(-1j * theta)
    y = 2j * np.sin(theta) * phase  # 1 - x without the cancellation near x = 1
    p_n, p_next = _neutral_polynomial(ell, n, y), _neutral_polynomial(ell, n + 1, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.exp(2j * n * theta) * np.conj(p_n) / p_n
        r_plus = phase * math.sqrt(n / (n + 2.0 * ell + 1.0)) * p_next / p_n
    bad = ~(np.isfinite(t) & np.isfinite(r_plus))
    for i in np.flatnonzero(bad):
        _record(
            errors, i,
            NumericalError(
                f"closed form at E={float(energy[i])}, ell={ell}: non-finite "
                f"T_{n - 1} = {complex(t[i])}, R_{n}(+) = {complex(r_plus[i])}"
            ),
        )
    t[bad] = r_plus[bad] = complex("nan")
    return CSCoefficients(t=t.reshape(kin.energy.shape), r_plus=r_plus.reshape(kin.energy.shape))


def _neutral_polynomial(ell: int, n: int, y: np.ndarray) -> np.ndarray:
    """P_n(y) of ``_neutral_coefficients`` by Horner's rule."""
    coeffs = [1.0]
    for k in range(ell):
        coeffs.append(coeffs[-1] * (ell - k) * (n + k) / ((2.0 * ell - k) * (k + 1.0)))
    p = np.full(y.shape, coeffs[-1], dtype=complex)
    for c in reversed(coeffs[:-1]):
        p = p * y + c
    return p


def _report_breakdowns(index, r1p, neg_diag, off, up_to, errors):
    """Rerun the recursion at the broken elements ``index`` with a check
    at every row, and record the first breakdown of each."""
    r = r1p[index]
    neg_diag, off = neg_diag[:, index], off[:, index]
    open_ = np.ones(index.size, dtype=bool)
    for n in range(1, up_to):
        coupling = off[n] == 0.0
        broken = open_ & (coupling | (r == 0.0) | ~np.isfinite(r))
        for j in np.flatnonzero(broken):
            what = "vanishing coupling" if coupling[j] else "vanishing ratio"
            _record(errors, index[j], RecursionBreakdownError(f"recursion breakdown at n={n}: {what}", index=n))
        open_ &= ~broken
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = (neg_diag[n] - off[n - 1] / r) / off[n]


# ---------------------------------------------------------------------------
# S-matrix
# ---------------------------------------------------------------------------


class ScatteringCalculator:
    """Precomputes the spectral data of one system and evaluates S(E)
    cheaply at many energies.

    The eigendecomposition of the full pencil (H0 + V, Overlap) is done
    once; an array of M energies then costs the reference coefficients
    at n = N and one M x N spectral sum for the resolvent element. For
    Z = 0 the coefficients are two closed-form polynomials of degree ell
    over length-M arrays; for Z != 0 they are one batched seed
    evaluation and one N-step recursion.
    """

    def __init__(self, system: SystemSpec):
        if system.basis.family != LAGUERRE:
            raise InputError("S-matrix evaluation requires the Laguerre basis")
        self.system = system
        self.mats = build_matrices(system)
        self.pair: SpectralPair = gen_sym_eig(self.mats.h.data, self.mats.omega.data)
        last = self.mats.size - 1
        self._g_last = PartialFractions.from_pair(self.pair, last, last)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Generalized eigenvalues of (H, Overlap): poles of the finite
        resolvent, and the stabilization candidates for narrow resonances."""
        return self.pair.eps

    def green_last(self, energies: np.ndarray, errors: Optional[dict] = None) -> np.ndarray:
        """G_(N-1,N-1)(E) of the full Hamiltonian at each energy of a 1-D
        array, from its pole/residue form in real arithmetic.

        An energy that the pole rule (``resolvent.POLE_RTOL``) puts on an
        eigenvalue is NaN and fails with a SpectrumEvaluationError naming
        that eigenvalue (see the module docstring for ``errors``).
        """
        g, on_pole = self._g_last.evaluate(energies)
        for i in np.flatnonzero(on_pole):
            _record(errors, i, _pole_error(self.pair.eps, energies[i]))
        return g

    def s_values(self, energies):
        """S(E) at each of a sequence of energies, and a map from index to
        the NumericalError of every energy that failed (its S is NaN).

        Any E <= 0 raises InputError for the whole call. The energies run
        in batches of at most 256, which bounds the working memory.
        """
        energies = np.ravel(np.asarray(energies, dtype=float))
        kin = KinematicParams.for_system(energies, self.system.basis.lam, self.system.z_charge)
        s = np.empty(energies.size, dtype=complex)
        errors = {}
        for part in _batches(energies.size):
            part_errors = {}
            s[part] = self._s_batch(KinematicParams(kin.energy[part], kin.theta[part], kin.t[part]), part_errors)
            errors.update((part.start + i, exc) for i, exc in part_errors.items())
        return s, dict(sorted(errors.items()))

    def _s_batch(self, kin: KinematicParams, errors: dict) -> np.ndarray:
        """S at one batch of energies; failures go to ``errors``."""
        energies = kin.energy
        cs = cs_recursion(self.mats, kin, up_to=self.mats.size, errors=errors)
        gj = self.green_last(energies, errors) * self.mats.j_boundary(energies)
        denom = 1.0 + gj * cs.r_plus
        for i in np.flatnonzero(denom == 0.0):
            _record(errors, i, NumericalError(f"S-matrix denominator vanished at E={float(energies[i])}"))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = cs.t * (1.0 + gj * np.conj(cs.r_plus)) / denom
        s[list(errors)] = complex("nan")
        return s

    def point(self, energy: float) -> ScatteringPoint:
        """S at one energy: the one-element case of :meth:`s_values`,
        raising the element's error."""
        s, errors = self.s_values([energy])
        if errors:
            raise errors[0]
        return ScatteringPoint(energy=energy, s=complex(s[0]))


def s_matrix(system: SystemSpec, energy: float) -> ScatteringPoint:
    """One-shot S(E); use ScatteringCalculator for scans."""
    return ScatteringCalculator(system).point(energy)
