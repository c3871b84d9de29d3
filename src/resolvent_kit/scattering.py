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
50, lam 1 .. 20, ell <= 3, N <= 120. A Coulomb system takes R_N(+)
from a Gauss continued fraction and runs the recursion down from n = N
through row 0; the product of the ratios gives T_(N-1), with no
fraction for T_0 (``cs_recursion``).
With G the (last, last) element of the full resolvent
(H0 + V - E*Overlap)^(-1) and J the boundary element of the reference
pencil, the scattering matrix is

    S(E) = T_(N-1) * (1 + G J R_N(-)) / (1 + G J R_N(+))

which is exactly unimodular for real E and reduces to S = 1 when V = 0.
At real E the pencil is real, so R_n(-) = conj(R_n(+)) and only the plus
branch is computed. The same functions continue T, R_N(+) and S to
complex E, where resonances are poles of S (``KinematicParams.continued``,
``ScatteringCalculator.numerator_terms``): theta becomes complex, and the
minus branch is the conjugate of the plus branch at conj(E).

A pole is a zero of the denominator D = 1 + G J R_N(+) alone, so the
pole search evaluates D's factors alone (``ScatteringCalculator.
denominator_terms``): G with one pole split off, and R_N(+) with
neither recursion nor the mirror energy. A pole's residue reuses
the factors of its search's last step and adds only T and R_N(-)
(``numerator_terms``). S, the pole search and a pole's residue all
take R_N(+) from one function, ``seed_coefficients``.

Every stage is elementwise in E and works on an array of energies at
once. A stage that fails at some energies either raises the first
failure or, given an ``errors`` map, records each failure under its
index and returns NaN there, leaving the other energies untouched.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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

    theta is the Laguerre-basis angle with e^(i theta) = (2k + i lam) /
    (2k - i lam), k = sqrt(2E), in (0, pi) for E > 0; t = Z / k is the
    Coulomb strength parameter. Both have the shape of ``energy``.
    ``for_system`` computes theta as 2 atan2(lam, sqrt(8E)), accurate to a
    few ulps everywhere; arccos of cos(theta) = (8E - lam^2)/(8E + lam^2)
    loses digits as theta nears pi (E << lam^2/8), and e^(2iN theta)
    multiplies that loss by 2N.

    The minus branch of the reference coefficients at k is the conjugate
    of the plus branch at conj(k): at real k the element itself (``mirror``
    None), else element ``mirror[i]`` (``continued``); the pole search's
    kinematics, for the plus branch alone, leave it None at complex k.
    """

    energy: np.ndarray
    theta: np.ndarray
    t: np.ndarray
    mirror: Optional[np.ndarray] = None

    @classmethod
    def for_system(cls, energy, lam: float, z_charge: float) -> "KinematicParams":
        energy = np.asarray(energy, dtype=float)
        bad = ~((energy > 0.0) & (energy < math.inf))
        if bad.any():
            raise InputError(f"scattering energy must be positive and finite, got {float(energy[bad][0])}")
        theta = 2.0 * np.arctan2(lam, np.sqrt(8.0 * energy))
        return cls(energy=energy, theta=theta, t=z_charge / np.sqrt(2.0 * energy))

    @classmethod
    def continued(cls, energy, lam: float, z_charge: float) -> "KinematicParams":
        """The kinematics at a 1-D array of complex energies E and then at
        conj(E), each the other's mirror. k = sqrt(2E) is on its principal
        branch, so E below the real axis is the resonance sheet (Im k < 0),
        and theta = -i (log(2k + i lam) - log(2k - i lam)), the logarithm of
        the rational e^(i theta), is ``for_system``'s at real E up to the
        rounding of atan2."""
        energy = np.asarray(energy, dtype=complex)
        energy = np.concatenate([energy, np.conj(energy)])
        theta, t = _continued_angle(energy, lam, z_charge)
        mirror = np.roll(np.arange(energy.size), energy.size // 2)
        return cls(energy=energy, theta=theta, t=t, mirror=mirror)


def _continued_angle(energy: np.ndarray, lam: float, z_charge: float):
    """(theta, t) at complex energies, elementwise (see
    ``KinematicParams.continued``)."""
    k = np.sqrt(2.0 * energy)
    theta = -1j * (np.log(2.0 * k + 1j * lam) - np.log(2.0 * k - 1j * lam))
    return theta, z_charge / k


def _nan_at(errors: dict, terms):
    """``terms`` with every array NaN at the indices in ``errors``."""
    if errors:
        for v in terms:
            v[list(errors)] = complex("nan")
    return terms


def _minus(plus: np.ndarray, kin: KinematicParams) -> np.ndarray:
    """The minus branch of a plus-branch quantity over ``kin``'s elements,
    which run along its first axis."""
    return np.conj(plus if kin.mirror is None else plus[kin.mirror])


@dataclass(frozen=True)
class CSCoefficients:
    """T_(n-1) and R_n(+) at the last index n of a recursion, with the
    shape of the energies it ran at."""

    t: np.ndarray
    r_plus: np.ndarray


class DenominatorTerms(NamedTuple):
    """The factors of D = 1 + G J R_N(+), the denominator of S, analytic in
    complex E, with one pole eps_j of G split off: ``residue_j`` = w_j J
    (w_j its residue) and ``rest_j`` = G_rest J (G_rest the other poles).
    With r = R_N(-), ``divided`` gives S's numerator the same way."""

    residue_j: np.ndarray
    rest_j: np.ndarray
    r_plus: np.ndarray

    def divided(self, u, r):
        """(eps_j - E)(1 + G J r), given u = eps_j - E: smooth at eps_j."""
        return u * (1.0 + self.rest_j * r) + self.residue_j * r


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


# Levels per block of ``_gauss_cf``. Numpy dispatch, not arithmetic, sets
# the cost of a level on arrays this short; on the seeds' and the pole
# search's fractions, blocks of 12 to 20 levels timed alike and 8 slower.
_CF_BLOCK = 16


def _gauss_cf(alpha, beta, gamma, z, tol: float, max_levels: int):
    """F(alpha+1, beta; gamma+1; z) / F(alpha, beta; gamma; z) by Gauss's
    continued fraction (DLMF 15.7), evaluated with modified Lentz
    (Thompson & Barnett, J. Comput. Phys. 64, 490 (1986)) elementwise over
    1-D arrays of one length:

        1 / (1 + k_1 z / (1 + k_2 z / (1 + ...)))
        k_(2m+1) = (alpha-gamma-m)(beta+m) / ((gamma+2m)(gamma+2m+1))
        k_(2m+2) = (beta-gamma-m-1)(alpha+m+1) / ((gamma+2m+1)(gamma+2m+2))

    Each element stops at its own first |Delta - 1| < tol and leaves the
    active set, so a batch takes as many levels as its slowest element.
    On the unit circle the fraction converges everywhere but z = 1, ever
    more slowly as z nears 1; a vanishing k_j ends it exactly.

    The levels run in blocks of ``_CF_BLOCK`` (``_lentz_block``), and the
    active set shrinks after each block; an element that converges inside
    a block runs on to its end, and those later levels are discarded.
    Every element's value, stopping level and last Delta are those of a
    level-by-level evaluation, bit for bit.

    Returns (values, failed, last_delta): the elements still active at
    the level cap are NaN in ``values`` and listed by index in
    ``failed``, with their last |Delta - 1| in ``last_delta``.
    """
    values = np.full(z.shape, complex("nan"))
    active = np.arange(z.size)
    f = c = np.ones(z.size, dtype=complex)
    d = delta = np.zeros(z.size, dtype=complex)
    alpha_gamma, beta_gamma = alpha - gamma, beta - gamma
    for start in range(0, max_levels, _CF_BLOCK):
        if active.size == 0:
            break
        # block row j is level start + j, and start is even: the even rows
        # take k_(2m+1) and the odd rows k_(2m+2), at one m per row pair.
        # Complex products and quotients run on 1-D arrays of one length,
        # as they do level by level: a broadcast (1, 1) by (1,) product can
        # take another numpy inner loop and round 1 ulp apart
        levels = min(_CF_BLOCK, max_levels - start)
        rows, odd = (levels + 1) // 2, levels // 2
        m = np.arange(start // 2, start // 2 + rows, dtype=float)[:, None]
        g = (gamma + 2.0 * m).ravel()
        g1 = g + 1.0
        zs = np.concatenate([z] * rows)
        a = np.empty((levels, z.size), dtype=complex)
        a[0::2] = ((alpha_gamma - m).ravel() * (beta + m).ravel() / (g * g1) * zs).reshape(rows, z.size)
        m, cut = m[:odd], odd * z.size
        a[1::2] = (
            (beta_gamma - m - 1.0).ravel() * (alpha + m + 1.0).ravel() / (g1[:cut] * (g[:cut] + 2.0)) * zs[:cut]
        ).reshape(odd, z.size)

        deltas, fs, c_end, d_end = _lentz_block(a, c, d, f, guarded=False)
        # f is the running product of the Deltas, so a non-finite or zero
        # Delta leaves the block's last f non-finite or zero
        if not (np.isfinite(fs[-1]).all() and fs[-1].all()):
            deltas, fs, c_end, d_end = _lentz_block(a, c, d, f, guarded=True)
        c, d, f, delta = c_end, d_end, fs[-1], deltas[-1]
        done = (np.abs(deltas.ravel() - 1.0) < tol).reshape(deltas.shape)
        hit = done.any(axis=0)
        if hit.any():
            cols = np.flatnonzero(hit)
            values[active[cols]] = 1.0 / fs[done[:, cols].argmax(axis=0), cols]
            keep = ~hit
            active, alpha, beta, gamma, alpha_gamma, beta_gamma, z, f, c, d, delta = (
                v[keep] for v in (active, alpha, beta, gamma, alpha_gamma, beta_gamma, z, f, c, d, delta)
            )
    return values, active, np.abs(delta - 1.0)


def _lentz_block(a, c, d, f, guarded: bool):
    """Modified Lentz over the rows of ``a`` (a_j = k_j z, one level per
    row) from the state (c, d, f): the rows of Delta and of the running
    product f, and the final c and d.

    A level where 1 + a d or c vanishes gives a non-finite or zero Delta
    unguarded; ``guarded`` replaces that zero with 1e-300, the Lentz
    guard. Levels after an element has converged are discarded by the
    caller, so their overflow and invalid values raise no warning."""
    deltas = np.empty_like(a)
    fs = np.empty_like(a)
    # an array of ones gives the bits of the scalar 1.0 at about half
    # numpy's cost of converting a Python scalar at every level
    one = np.ones(a.shape[1], dtype=complex)
    with np.errstate(all="ignore"):
        for a_j, delta_j, f_j in zip(a, deltas, fs):
            d = one + a_j * d
            if guarded:
                d[d == 0.0] = 1e-300
            d = one / d
            c = one + a_j / c
            if guarded:
                c[c == 0.0] = 1e-300
            np.multiply(c, d, out=delta_j)
            # a running product: np.cumprod of the Deltas rounds differently
            f = np.multiply(f, delta_j, out=f_j)
    return deltas, fs, c, d


def _cf_error(stage: str, max_levels: int, last_delta) -> ConvergenceError:
    return ConvergenceError(
        f"{stage}: continued fraction did not converge in {max_levels} levels",
        levels=max_levels,
        last_delta=float(last_delta),
    )


# ---------------------------------------------------------------------------
# Seeds and recursion
# ---------------------------------------------------------------------------

# A continued fraction for R_n(+) has converged at its first Lentz factor
# with |Delta - 1| < SEED_TOL.
SEED_TOL = 1e-15


def seed_coefficients(kin: KinematicParams, ell: int, n: int, max_levels: int = 10**6, errors: Optional[dict] = None):
    """R_n(+) at every energy of ``kin``, in its shape: ``_neutral_r_plus``
    where t = Z / k is zero throughout (Z = 0), else one
    ``_coulomb_fractions`` stopped at ``max_levels``. A fraction at its
    level cap, or a non-finite R_n(+), fails the element as "R_n(+) at
    E=.., ell=.., t=.." (see the module docstring for ``errors``).
    """
    energy, theta, t = (np.ravel(v) for v in (kin.energy, kin.theta, kin.t))
    if t.any():
        r_plus, failed, last = _coulomb_fractions(theta, t, ell, n, max_levels)
    else:
        r_plus, failed, last = _neutral_r_plus(theta, ell, n)[0], (), ()

    def stage(i):
        return f"R_{n}(+) at E={energy[i]}, ell={ell}, t={t[i]}"

    for i, last_delta in zip(failed, last):
        _record(errors, i, _cf_error(stage(i), max_levels, last_delta))
    bad = ~np.isfinite(r_plus)
    for i in np.flatnonzero(bad):
        _record(errors, i, NumericalError(f"{stage(i)}: non-finite value {complex(r_plus[i])}"))
    r_plus[bad] = complex("nan")
    return r_plus.reshape(kin.energy.shape)


def cs_recursion(
    mats: MatrixSet, kin: KinematicParams, up_to: int, errors: Optional[dict] = None, max_levels: int = 10**6
) -> CSCoefficients:
    """T_(up_to-1) and R_up_to(+) at every energy of ``kin``.

    A neutral system (Z = 0) takes both from their closed forms at
    n = up_to (see ``_neutral_coefficients``), with neither seeds nor
    recursion. Otherwise ``seed_coefficients`` gives R_up_to(+), whose
    continued fraction stops at ``max_levels``, and the ratios below run
    down rows up_to-1 .. 0 of the tridiagonal reference pencil, the
    direction in which the reference solution is stable (the
    Miller/Gautschi remedy: Gautschi, SIAM Rev. 9, 24 (1967)):

        R_n         = -J_(n,n-1) / (J_nn + J_(n,n+1) R_(n+1)),  J_(0,-1) = -1
        T_(up_to-1) = prod_(n=0..up_to-1) R_n(-) / R_n

    The regular solution s_n satisfies every row of J, and the irregular
    c_n every row but row 0, where (J c)_0 is a constant; so row 0 gives
    both branches c +/- i s the same (J psi)_0, R_0 = psi_0 / (J psi)_0,
    and R_0(-) / R_0 is T_0 = (c_0 - i s_0) / (c_0 + i s_0).

    R_n(-) = conj(R_n) at real E: the ratios are kept, and T is one
    product over them. A vanishing coupling J_(n,n-1), or a vanishing
    denominator, is a breakdown that fails the element; elements whose
    seed failed come in as NaN and are carried without further checks. A
    non-finite closed form fails its element the same way.
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

    r_top = np.ravel(seed_coefficients(kin, mats.spec.basis.ell, up_to, max_levels=max_levels, errors=errors))
    failed = np.isnan(r_top)
    # row i holds energy i's R_n in column n, so each energy's product
    # rounds alike in a batch of any size; a finite stand-in for a failed
    # seed starts the recursion
    ratios = np.empty((r_top.size, up_to), dtype=complex)
    r = np.where(failed, 1.0, r_top)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(up_to - 1, -1, -1):
            r = np.divide(off[n - 1] if n else -1.0, neg_diag[n] - off[n] * r, out=ratios[:, n])
        t = np.prod(_minus(ratios, kin) / ratios, axis=1)
    # A ratio that vanishes or is not finite leaves T non-finite for good
    broken = ~failed & ~np.isfinite(t)
    if broken.any():
        _report_breakdowns(np.flatnonzero(broken), ratios, off, errors)
        failed |= broken
    nan = complex("nan")
    return CSCoefficients(
        t=np.where(failed, nan, t).reshape(kin.energy.shape),
        r_plus=np.where(failed, nan, r_top).reshape(kin.energy.shape),
    )


def _neutral_coefficients(kin: KinematicParams, ell: int, n: int, errors: Optional[dict]) -> CSCoefficients:
    """T_(n-1) and R_n(+) of a neutral system in closed form.

    At Z = 0 the reference solutions are terminating hypergeometric
    series (Heller & Yamani, PRA 9, 1201 (1974); Yamani & Fishman,
    JMP 16, 410 (1975)). With F_n = 2F1(-ell, n; ell+n+1; x) and
    x = e^(-2i theta),

        T_(n-1) = e^(2in theta) conj(F_n) / F_n
        R_n(+)  = e^(-i theta) sqrt(n (n+2ell+1)) / (ell+n+1) F_(n+1) / F_n

    which at n = 1 are T_0 and R_1(+) (conj(F_n) off the real axis: see
    ``KinematicParams``). F_n is a polynomial of degree ell in x, but its
    sum in powers of x cancels to O(n^-ell) of its terms as x nears 1, at
    both ends of the energy range. Re-expanded about x = 1
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
    r_plus, p_n = _neutral_r_plus(theta, ell, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.exp(2j * n * theta) * _minus(p_n, kin) / p_n
    bad = ~(np.isfinite(t) & np.isfinite(r_plus))
    for i in np.flatnonzero(bad):
        _record(
            errors, i,
            NumericalError(
                f"closed form at E={energy[i]}, ell={ell}: non-finite "
                f"T_{n - 1} = {complex(t[i])}, R_{n}(+) = {complex(r_plus[i])}"
            ),
        )
    t[bad] = r_plus[bad] = complex("nan")
    return CSCoefficients(t=t.reshape(kin.energy.shape), r_plus=r_plus.reshape(kin.energy.shape))


def _neutral_r_plus(theta: np.ndarray, ell: int, n: int):
    """R_n(+) of ``_neutral_coefficients`` at a 1-D array of angles, and
    the P_n it divides by."""
    phase = np.exp(-1j * theta)
    y = 2j * np.sin(theta) * phase  # 1 - x without the cancellation near x = 1
    p_n = _neutral_polynomial(ell, n, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r_plus = phase * math.sqrt(n / (n + 2.0 * ell + 1.0)) * _neutral_polynomial(ell, n + 1, y) / p_n
    return r_plus, p_n


def _coulomb_fractions(theta: np.ndarray, t: np.ndarray, ell: int, n: int, max_levels: int):
    """R_n(+) at Z != 0, n >= 1, by one Gauss continued fraction at every
    element of 1-D arrays of angles and Coulomb parameters. With
    a = -ell + i t, c = ell + 2 + i t, x = e^(-2i theta) and
    F_n = 2F1(a, n; c+n-1; x),

        R_n(+) = e^(-i theta) sqrt(n (n+2ell+1)) / (c+n-1) F_(n+1) / F_n

    the reference solutions' ratio at n (Heller & Yamani, PRA 9, 1201
    (1974); Yamani & Fishman, JMP 16, 410 (1975)), which at Z = 0 is
    ``_neutral_r_plus``. Returns ``_gauss_cf``'s (values, failed,
    last_delta), with R_n(+) as the values."""
    it = 1j * t
    alpha = np.full(theta.size, float(n))
    gamma = ell + 1.0 + alpha + it  # c + n - 1
    ratio, failed, last = _gauss_cf(alpha, -ell + it, gamma, np.exp(-2j * theta), SEED_TOL, max_levels)
    with np.errstate(invalid="ignore"):
        return np.exp(-1j * theta) * math.sqrt(n * (n + 2.0 * ell + 1.0)) * ratio / gamma, failed, last


def _neutral_polynomial(ell: int, n: int, y: np.ndarray) -> np.ndarray:
    """P_n(y) of ``_neutral_coefficients`` by Horner's rule."""
    coeffs = [1.0]
    for k in range(ell):
        coeffs.append(coeffs[-1] * (ell - k) * (n + k) / ((2.0 * ell - k) * (k + 1.0)))
    p = np.full(y.shape, coeffs[-1], dtype=complex)
    for c in reversed(coeffs[:-1]):
        p = p * y + c
    return p


def _report_breakdowns(index, ratios, off, errors):
    """Record the first breakdown of each broken element ``index``: the
    highest row n whose coupling J_(n,n-1) vanishes (row 0's stand-in -1
    cannot), or whose stored R_n vanishes or is not finite."""
    r = ratios[index]
    coupling = np.zeros(r.shape, dtype=bool)
    coupling[:, 1:] = off[: r.shape[1] - 1, index].T == 0.0
    broken = coupling | (r == 0.0) | ~np.isfinite(r)
    for j, i in enumerate(index):
        if broken[j].any():
            n = np.flatnonzero(broken[j])[-1]
            what = "vanishing coupling" if coupling[j, n] else "vanishing ratio"
            _record(errors, i, RecursionBreakdownError(f"recursion breakdown at n={n}: {what}", index=n))


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
    over length-M arrays; for Z != 0 they are one continued fraction
    (R_N(+)) and one backward recursion through all N rows.
    """

    def __init__(self, system: SystemSpec):
        if system.basis.family != LAGUERRE:
            raise InputError("S-matrix evaluation requires the Laguerre basis")
        self.system = system
        self.mats = build_matrices(system)
        self.pair: SpectralPair = gen_sym_eig(self.mats.h, self.mats.omega)
        last = self.mats.size - 1
        self._g_last = PartialFractions.from_pair(self.pair, last, last)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Generalized eigenvalues of (H, Overlap): poles of the finite
        resolvent, and the stabilization candidates for narrow resonances."""
        return self.pair.eps

    def green_last(self, energies: np.ndarray, errors: Optional[dict] = None, drop=None) -> np.ndarray:
        """G_(N-1,N-1)(E) of the full Hamiltonian at each energy of a 1-D
        array, from its pole/residue form (``drop``: see
        ``PartialFractions.evaluate``), in real arithmetic at real E.

        An energy that the pole rule (``resolvent.POLE_RTOL``) puts on an
        eigenvalue is NaN and fails with a SpectrumEvaluationError naming
        that eigenvalue (see the module docstring for ``errors``).
        """
        g, on_pole = self._g_last.evaluate(energies, drop=drop)
        for i in np.flatnonzero(on_pole):
            _record(errors, i, _pole_error(self.pair.eps, energies[i]))
        return g

    def denominator_terms(self, energies: np.ndarray, drop: np.ndarray, max_levels: int, errors: dict):
        """``DenominatorTerms`` at a 1-D array of complex energies, splitting
        off pole drop[i] of G at energy i.

        R_N(+) is ``seed_coefficients``' at the energies themselves, with
        its continued fraction stopped at ``max_levels``: the same value
        as ``cs_recursion``'s, without recursion or mirror energy. A
        failure goes to ``errors`` under its index, and its factors are
        NaN."""
        basis = self.system.basis
        kin = KinematicParams(energies, *_continued_angle(energies, basis.lam, self.system.z_charge))
        r_plus = seed_coefficients(kin, basis.ell, self.mats.size, max_levels=max_levels, errors=errors)
        j = self.mats.j_boundary(energies)
        rest = self.green_last(energies, errors, drop=drop)
        return _nan_at(errors, DenominatorTerms(self._g_last.coeffs[drop] * j, rest * j, r_plus))

    def numerator_terms(self, energies: np.ndarray, max_levels: int, errors: dict):
        """(T, R_N(-)), T = T_(N-1), the factors of S's numerator
        T (1 + G J R_N(-)) besides G, at a 1-D array of complex energies:
        from ``cs_recursion`` at E and at its mirror conj(E), as in
        ``s_values``, with R_N(+)'s continued fraction at each stopped at
        ``max_levels``; T takes R_n(-) at E from the ratios at conj(E).
        A failure at E or conj(E) goes to ``errors`` under E's index, and
        its factors are NaN."""
        size = energies.size
        kin = KinematicParams.continued(energies, self.system.basis.lam, self.system.z_charge)
        both = {}
        cs = cs_recursion(self.mats, kin, up_to=self.mats.size, errors=both, max_levels=max_levels)
        for i, exc in sorted(both.items()):
            _record(errors, i % size, exc)
        return _nan_at(errors, (cs.t[:size], np.conj(cs.r_plus[size:])))

    def s_values(self, energies):
        """S(E) at each of a sequence of energies, and a map from index to
        the NumericalError of every energy that failed (its S is NaN).

        Any E that is not positive and finite raises InputError for the
        whole call; an S that comes out non-finite with no stage's error
        filed fails with a NumericalError naming E. The energies run in
        batches of at most 256, which bounds the working memory.
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
        # what no stage filed, e.g. a J(E) that overflows at E near the
        # largest double
        for i in np.flatnonzero(~np.isfinite(s)):
            _record(errors, i, NumericalError(f"S-matrix at E={float(energies[i])}: non-finite value {complex(s[i])}"))
        s[list(errors)] = complex("nan")
        return s

    def point(self, energy: float) -> ScatteringPoint:
        """S at one energy: the one-element case of :meth:`s_values`,
        raising the element's error."""
        s, errors = self.s_values([energy])
        if errors:
            raise errors[0]
        return ScatteringPoint(energy=energy, s=complex(s[0]))
