"""Consumers of the resolvent: energy scans, resonance location, bound
states, and the energy density of states.

A resonance is a pole E_r - i Gamma/2 of S(E) below the real axis, a
zero of its denominator 1 + G J R_N(+) continued to complex energy.
``locate_resonances`` solves for one beside each generalized eigenvalue
of (H, Overlap) in range, by Halley's method on all of them at once,
and reports the poles whose residue has the strength of an isolated
Breit-Wigner pole; the poles that discretize the continuum have almost
none. It is the one resonance finder: the ``smatrix`` and
``resonances`` commands both report its poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import OSCILLATOR, MatrixSet, SystemSpec, build_matrices
from .errors import ConvergenceError, FitResidualError, InputError, NumericalError
from .matrix_core import gen_sym_eig, gen_sym_eigvals, sym_eig
from .resolvent import PartialFractions, _pole_error
from .scattering import DenominatorTerms, ScatteringCalculator


def _energy_grid(values) -> np.ndarray:
    """``values`` as a float array, refused unless nonempty and strictly
    increasing."""
    e = np.asarray(values, dtype=float)
    if e.size == 0:
        raise InputError("empty grid")
    if e.size > 1 and not np.all(np.diff(e) > 0):
        raise InputError("energy grid must be strictly increasing")
    return e


@dataclass(frozen=True)
class ScanTable:
    """Energy grid plus per-point value columns.

    ``flagged`` lists indices whose evaluation failed (for scattering
    scans, grid points that fell on a resolvent pole); their column
    entries are NaN. Only ``density_of_states`` fills ``metadata``.
    """

    energies: np.ndarray
    columns: dict
    metadata: dict = field(default_factory=dict)
    flagged: tuple = ()

    def __post_init__(self):
        e = _energy_grid(self.energies)
        object.__setattr__(self, "energies", e)
        for name, col in self.columns.items():
            c = np.asarray(col)
            if c.shape != e.shape:
                raise InputError(f"column {name!r} length {c.shape} != grid length {e.shape}")
            self.columns[name] = c

    @property
    def size(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class ResonancePeak:
    e_peak: float
    width_estimate: float
    quality: float


@dataclass(frozen=True)
class ResonanceReport:
    """The resonances ``locate_resonances`` reports, one peak per pole,
    plus ``candidates``: the PoleCandidate of every pole-search solve, and
    ``scan``: an S(E) scan of the search range, built on first read."""

    peaks: tuple
    candidates: tuple = field(default=(), compare=False, repr=False)
    _scan_of: Optional[Callable[[], ScanTable]] = field(default=None, compare=False, repr=False)

    @cached_property
    def scan(self) -> Optional[ScanTable]:
        return None if self._scan_of is None else self._scan_of()

    def positions(self) -> np.ndarray:
        return np.array([p.e_peak for p in self.peaks])


@dataclass(frozen=True)
class BoundStateResult:
    """The negative generalized eigenvalues of (H, Overlap), plus ``scan``:
    the |G(E)| scan that diverges at them, built on first read."""

    energies: np.ndarray
    _scan_of: Callable[[], ScanTable] = field(compare=False, repr=False)

    @cached_property
    def scan(self) -> ScanTable:
        return self._scan_of()


def _calculator(system_or_calc) -> ScatteringCalculator:
    if isinstance(system_or_calc, ScatteringCalculator):
        return system_or_calc
    return ScatteringCalculator(system_or_calc)


def scan_smatrix(system_or_calc, grid: Sequence[float]) -> ScanTable:
    """S(E) over an increasing energy grid, in one batched evaluation.

    Columns: re_s, im_s, abs_one_minus_s, delta. Points whose evaluation
    fails (a resolvent pole, a seed or recursion failure) are flagged,
    not fatal, and their columns are NaN.
    """
    calc = _calculator(system_or_calc)
    grid = np.asarray(grid, dtype=float)
    s, errors = calc.s_values(grid)
    cols = {
        "re_s": s.real,
        "im_s": s.imag,
        "abs_one_minus_s": np.abs(1.0 - s),
        "delta": 0.5 * np.angle(s),
    }
    return ScanTable(energies=grid, columns=cols, flagged=tuple(errors))


# The pole search: Halley's step cap, its convergence tolerance and
# difference step (relative to max(1, |E|)), the seeds' continued-fraction
# level cap, the least residue strength reported, and how close
# (relative) two poles must be to be one.
_HALLEY_STEPS = 30
_HALLEY_RTOL = 1e-13
_DERIVATIVE_RTOL = 1e-6
_POLE_LEVELS = 1000
_MIN_STRENGTH = 0.5
_MERGE_RTOL = 1e-9


# How a pole-search candidate that did not converge ended.
_FAILURES = ("step cap", "continued-fraction failure", "numerical failure")


@dataclass(frozen=True)
class PoleCandidate:
    """One Halley solve started beside the eigenvalue ``seed``: the last
    iterate ``pole`` after ``steps`` steps, |f| there, the residue
    strength |Res_E S| / Gamma, and ``status``: "converged" or one of
    ``_FAILURES`` (with the typed ``error``), which ``locate_resonances``
    turns into "accepted", "merged", "out of range" or "rule". Values a
    solve did not reach are NaN."""

    seed: float
    steps: int
    residual: float
    pole: complex
    strength: float
    status: str
    error: Optional[NumericalError] = field(default=None, compare=False)

    @property
    def width(self) -> float:
        return -2.0 * self.pole.imag


def _failed_candidate(seed, steps, residual, pole, exc: Optional[NumericalError]) -> PoleCandidate:
    """A candidate that ended on ``exc``, the first error of its solve."""
    status = "continued-fraction failure" if isinstance(exc, ConvergenceError) else "numerical failure"
    return PoleCandidate(float(seed), steps, residual, complex(pole), math.nan, status, exc)


def _solve_poles(calc: ScatteringCalculator, index: np.ndarray) -> list:
    """Halley's method on f_j(E) = (eps_j - E)(1 + G J R_N(+)), one
    candidate per eigenvalue eps_j, j in ``index``: a PoleCandidate each.

    f_j is the denominator D of S with G's pole at eps_j divided out, so
    it is smooth within a narrow resonance's width of eps_j. A candidate
    starts at the one-pole estimate eps_j + w_j J R / (1 + G_rest J R) at
    eps_j (w_j that pole's residue, G_rest the rest of G) and steps by
    -2 f f' / (2 f'^2 - f f''), f' and f'' central differences at E +/- h
    (Gander, Amer. Math. Monthly 92, 131 (1985)), until a step is at most
    ``_HALLEY_RTOL`` * max(1, |E|), or until a step no longer shrinks
    after one of at most sqrt(``_HALLEY_RTOL``) * max(1, |E|): quadratic
    convergence would have taken the next below the tolerance, so f's
    own rounding sets the floor. All candidates advance in lockstep,
    one ``denominator_terms`` call per step, which takes R_N(+) alone
    from ``seed_coefficients`` and evaluates each element on its own,
    so a candidate comes out as it would alone.

    At the pole S = T f(-) / f(+) has residue T f(-) / f', all at the
    centre point of the last step (``_residue_pass``). A converged
    candidate keeps that point's split-off G, row 3r of the step's terms
    for the points [E, E - h, E + h]; T and R_N(-) come from one
    ``numerator_terms`` call for all converged candidates after the loop.
    """
    eps = calc.eigenvalues[index]
    results = [None] * index.size
    failure = {}  # the first error of each candidate that failed

    def evaluate(points, rows, per_row):
        errors = {}
        terms = calc.denominator_terms(points, np.repeat(index[rows], per_row), _POLE_LEVELS, errors)
        for i, exc in sorted(errors.items(), reverse=True):
            failure[rows[i // per_row]] = exc
        return terms

    rows = np.arange(index.size)  # the candidate of each row still solving
    last = np.full(index.size, math.inf)  # each row's last step
    start = evaluate(eps.astype(complex), rows, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        energy = eps + start.residue_j * start.r_plus / (1.0 + start.rest_j * start.r_plus)
    done = []  # (row, step, centre energy, slope, |f|, pole, *centre terms) per converged candidate
    for step in range(_HALLEY_STEPS + 1):
        # a failed evaluation leaves a NaN iterate: retire it
        failed = ~np.isfinite(energy)
        for r in np.flatnonzero(failed):
            results[rows[r]] = _failed_candidate(eps[r], step, math.nan, energy[r], failure.get(rows[r]))
        rows, eps, energy, last = (v[~failed] for v in (rows, eps, energy, last))
        if rows.size == 0 or step == _HALLEY_STEPS:
            break
        h = _DERIVATIVE_RTOL * np.maximum(1.0, np.abs(energy))
        points = (energy[:, None] + h[:, None] * np.array([0.0, -1.0, 1.0])).ravel()
        terms = evaluate(points, rows, 3)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = terms.divided(np.repeat(eps, 3) - points, terms.r_plus).reshape(-1, 3)
            slope = (f[:, 2] - f[:, 1]) / (2.0 * h)
            curvature = (f[:, 2] - 2.0 * f[:, 0] + f[:, 1]) / (h * h)
            new = energy - 2.0 * f[:, 0] * slope / (2.0 * slope * slope - f[:, 0] * curvature)
        moved, scale = np.abs(new - energy), np.maximum(1.0, np.abs(energy))
        converged = (moved <= _HALLEY_RTOL * scale) | ((moved >= last) & (last <= math.sqrt(_HALLEY_RTOL) * scale))
        done += [
            (rows[r], step + 1, energy[r], slope[r], abs(f[r, 0]), new[r], *(v[3 * r] for v in terms))
            for r in np.flatnonzero(converged)
        ]
        rows, eps, energy, last = (v[~converged] for v in (rows, eps, new, moved))
    for r in range(rows.size):
        results[rows[r]] = PoleCandidate(float(eps[r]), _HALLEY_STEPS, math.nan, complex(energy[r]), math.nan, "step cap")
    if done:
        _residue_pass(calc, index, done, results)
    return results


def _residue_pass(calc: ScatteringCalculator, index: np.ndarray, done: list, results: list):
    """The strength |T f(-) / f'| / Gamma of each converged candidate in
    ``done`` (see ``_solve_poles``), into ``results``. f was finite at the
    centre, so its G hit no pole; a candidate whose T or R_N(-) fails
    ends as a failure, with its pole."""
    rows, steps, centre, slope, residual, pole, *split = (np.array(v) for v in zip(*done))
    errors = {}
    t, r_minus = calc.numerator_terms(centre, _POLE_LEVELS, errors)
    eps = calc.eigenvalues[index[rows]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residue = t * DenominatorTerms(*split).divided(eps - centre, r_minus) / slope
    for i, r in enumerate(rows):
        if i in errors:
            results[r] = _failed_candidate(eps[i], int(steps[i]), float(residual[i]), pole[i], errors[i])
            continue
        gamma = -2.0 * pole[i].imag
        strength = float(abs(residue[i]) / gamma) if gamma > 0.0 else math.nan
        results[r] = PoleCandidate(
            float(eps[i]), int(steps[i]), float(residual[i]), complex(pole[i]), strength, "converged"
        )


def _verdict(c: PoleCandidate, earlier: list, e_min: float, e_max: float) -> str:
    """What becomes of a converged candidate's pole (see
    ``locate_resonances``): "accepted", "merged", "out of range" or "rule"."""
    if any(d.status not in _FAILURES and abs(c.pole - d.pole) <= _MERGE_RTOL * max(1.0, abs(d.pole)) for d in earlier):
        return "merged"
    if not (e_min < c.pole.real < e_max and c.width > 0.0):
        return "out of range"
    return "accepted" if c.strength >= _MIN_STRENGTH else "rule"


def locate_resonances(system_or_calc, e_min: float, e_max: float, coarse_steps: int = 400) -> ResonanceReport:
    """Resonances in (e_min, e_max): poles E_p = E_r - i Gamma/2 of S(E),
    zeros of D = 1 + G J R_N(+) continued below the real axis (Tolstikhin,
    Ostrovsky & Nakamura, PRL 79, 2026 (1997)).

    ``_solve_poles`` looks for one beside every positive generalized
    eigenvalue from the last one <= e_min to the first one >= e_max. A
    pole is reported when Re E_p is in (e_min, e_max), Gamma > 0 and its
    residue strength |Res_E S| / Gamma is at least ``_MIN_STRENGTH``, once
    however many candidates reach it. An isolated Breit-Wigner pole,
    S = e^(2i delta_b) (E - conj(E_p)) / (E - E_p), has strength exactly
    1; at a pole that discretizes the continuum S nearly has a zero too,
    which takes up most of the residue; with V = 0, S = 1 has no pole.

    A peak has e_peak = Re E_p, width_estimate = Gamma and quality = the
    strength clipped to [0, 1]; ``candidates`` holds every solve. ``scan``
    is an S(E) scan of ``coarse_steps + 1`` points from e_min to e_max,
    built on first read: it seeds nothing. Needs 0 < e_min < e_max and
    coarse_steps >= 1.
    """
    if not (0.0 < e_min < e_max):
        raise InputError(f"need 0 < e_min < e_max, got e_min={e_min}, e_max={e_max}")
    if coarse_steps < 1:
        raise InputError(f"coarse_steps must be >= 1, got {coarse_steps}")
    calc = _calculator(system_or_calc)
    positive = np.flatnonzero(calc.eigenvalues > 0.0)
    ev = calc.eigenvalues[positive]
    lo = max(int(np.searchsorted(ev, e_min, side="right")) - 1, 0)
    hi = min(int(np.searchsorted(ev, e_max, side="left")), ev.size - 1)
    candidates, peaks = [], []
    for c in _solve_poles(calc, positive[lo : hi + 1]):
        if c.status == "converged":
            c = replace(c, status=_verdict(c, candidates, e_min, e_max))
        if c.status == "accepted":
            peaks.append(ResonancePeak(c.pole.real, c.width, min(1.0, c.strength)))
        candidates.append(c)
    peaks.sort(key=lambda p: p.e_peak)
    scan_of = partial(scan_smatrix, calc, np.linspace(e_min, e_max, coarse_steps + 1))
    return ResonanceReport(peaks=tuple(peaks), candidates=tuple(candidates), _scan_of=scan_of)


# ---------------------------------------------------------------------------
# Bound states
# ---------------------------------------------------------------------------


def bound_states(system: SystemSpec, grid: Optional[Sequence[float]] = None) -> BoundStateResult:
    """Bound energies and the |G| scan that blows up at them.

    The poles of the finite resolvent are exactly the generalized
    eigenvalues of (H, Overlap), so the negative ones are read off
    directly, from the eigenvalue-only ``gen_sym_eigvals``. ``scan``,
    built on first read and emitted for plotting parity, is |G| of the
    (last, last) element on ``grid`` (default: 400 points from
    1.4 E_0 - 0.5, or -6 with no bound state, to -1e-3), with those
    eigenvalues as poles and ``gen_sym_eig``'s last-row weights as
    residues. Grid points that the pole rule (``resolvent.POLE_RTOL``)
    puts on an eigenvalue are flagged, with NaN in ``abs_g``; a grid
    that is empty or not increasing raises InputError at the call.
    """
    mats = build_matrices(system)
    eps = gen_sym_eigvals(mats.h, mats.omega)
    energies = eps[eps < 0.0]
    if grid is None:
        lo = 1.4 * float(energies.min()) - 0.5 if energies.size else -6.0
        grid = np.linspace(lo, -1e-3, 400)
    # a copy, so that a caller's later writes to its grid do not reach the scan
    scan_of = partial(_abs_g_scan, mats, eps, _energy_grid(grid).copy())
    return BoundStateResult(energies=energies, _scan_of=scan_of)


def _abs_g_scan(mats: MatrixSet, poles: np.ndarray, grid: np.ndarray) -> ScanTable:
    """|G_(N-1,N-1)| on ``grid``, with ``poles`` and the last-row weights
    of the pencil's eigenvectors."""
    last = mats.size - 1
    weights = gen_sym_eig(mats.h, mats.omega).gamma[last] ** 2
    g, on_pole = PartialFractions(poles=poles, coeffs=weights, n=last, m=last).evaluate(grid)
    flagged = tuple(np.flatnonzero(on_pole).tolist())
    return ScanTable(energies=grid, columns={"abs_g": np.abs(g)}, flagged=flagged)


# ---------------------------------------------------------------------------
# Density of states
# ---------------------------------------------------------------------------


def _g00(system: SystemSpec) -> PartialFractions:
    if system.basis.family != OSCILLATOR:
        raise InputError("density of states uses the orthonormal oscillator basis")
    mats = build_matrices(system)
    return PartialFractions.from_pair(sym_eig(mats.h), 0, 0)


def _g00_off_poles(g00: PartialFractions, z: np.ndarray) -> np.ndarray:
    """G_00 at every point of z, raising on the first point on a pole."""
    values, on_pole = g00.evaluate(z)
    if on_pole.any():
        raise _pole_error(g00.poles, z[np.argmax(on_pole)])
    return values


def default_smoothing_width(poles: np.ndarray, e_min: float, e_max: float) -> float:
    """Five mean local pole spacings, measured near the scan window."""
    sel = poles[(poles > e_min - 1.0) & (poles < e_max + 1.0)]
    if sel.size < 3:
        sel = poles
    spacing = float(np.mean(np.diff(np.sort(sel)))) if sel.size >= 2 else 1.0
    return 5.0 * spacing


def density_of_states(
    system: SystemSpec,
    grid: Sequence[float],
    method: str = "smoothing",
    delta: Optional[float] = None,
    fit_height: float = 0.5,
    fit_order: int = 8,
    fit_threshold: float = 5e-2,
) -> ScanTable:
    """rho(E) = Im G_00(E)/pi from the pole/residue data of G_00.

    smoothing:     Im G_00(E + i*delta)/pi (Lorentzian broadening); delta
                   defaults to five mean local pole spacings.
    continuation:  fit G_00 on the contour Im z = fit_height to a rational
                   function of order (fit_order-1)/fit_order by linearized
                   least squares, then evaluate the fit on the real axis.
                   Fails loudly if the fit residual exceeds fit_threshold
                   (relative).

    A delta, fit_height or fit_threshold that is not finite and positive,
    or a fit_order below 1, raises InputError, before the system is
    built. Either method raises SpectrumEvaluationError if a point it
    evaluates G_00 at (E + i*delta, or the fit contour) sits on a pole by
    the pole rule (``resolvent.POLE_RTOL``), and the fit raises
    NumericalError if its least-squares solve fails.
    """
    for name, value in (("delta", delta), ("fit_height", fit_height), ("fit_threshold", fit_threshold)):
        if value is not None and not 0.0 < value < math.inf:
            raise InputError(f"{name} must be finite and positive, got {value}")
    if not fit_order >= 1:
        raise InputError(f"fit_order must be >= 1, got {fit_order}")
    if method not in ("smoothing", "continuation"):
        raise InputError(f"unknown DOS method {method!r}")
    grid = np.asarray(grid, dtype=float)
    g00 = _g00(system)
    meta = {"method": method, "total_weight": float(g00.coeffs.sum())}
    if method == "smoothing":
        width = delta if delta is not None else default_smoothing_width(g00.poles, grid[0], grid[-1])
        rho = _g00_off_poles(g00, grid + 1j * width).imag / math.pi
        meta["delta"] = float(width)
        return ScanTable(energies=grid, columns={"rho": rho}, metadata=meta)

    z_fit = grid + 1j * fit_height
    g_fit = _g00_off_poles(g00, z_fit)
    fit = _rational_fit(z_fit, g_fit, fit_order, fit_height)
    residual = float(np.max(np.abs(fit(z_fit) - g_fit)) / np.max(np.abs(g_fit)))
    if residual > fit_threshold:
        raise FitResidualError(
            f"rational fit residual {residual:.3e} exceeds threshold {fit_threshold:.1e}; "
            f"contour height {fit_height}, order ({fit_order - 1})/{fit_order}, {grid.size} points",
            residual=residual,
            threshold=fit_threshold,
        )
    rho = np.imag(fit(grid.astype(complex))) / math.pi
    meta["fit_residual"] = residual
    meta["fit_height"] = fit_height
    meta["fit_order"] = fit_order
    return ScanTable(energies=grid, columns={"rho": rho}, metadata=meta)


def _rational_fit(z: np.ndarray, g: np.ndarray, order: int, height: float):
    """Least-squares rational approximant P/Q, deg P = order-1, deg Q =
    order (monic), to g on the contour z at Im z = ``height``, with a few
    reweighting passes to undo the linearization bias. Coordinates are
    centered and scaled first. A least-squares system that is not finite,
    or whose solve fails, raises NumericalError naming the order and the
    height."""
    mid = 0.5 * (z.real.min() + z.real.max())
    half = max(0.5 * (z.real.max() - z.real.min()), 1.0)

    def zeta(w):
        return (w - mid) / half

    def failed(reason):
        return NumericalError(f"rational fit of order ({order - 1})/{order} at contour height {height}: {reason}")

    zz = zeta(z)
    weight = np.ones_like(g)
    coeffs = None
    for _ in range(3):
        # a high contour overflows the powers of zeta; lstsq is handed
        # only a finite system, so LAPACK has nothing to complain about
        with np.errstate(all="ignore"):
            # 1 .. zeta^(order-1): all of P, and Q below its monic zeta^order
            powers = np.vander(zz, order, increasing=True)
            lhs = np.hstack([powers, -(g[:, None]) * powers]) / weight[:, None]
            rhs = (g * zz**order) / weight
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise failed("least-squares system not finite")
        try:
            coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise failed(exc) from exc
        q = np.concatenate([coeffs[order:], [1.0]])
        weight = np.abs(np.polyval(q[::-1], zz))
        weight = np.maximum(weight, 1e-12 * np.max(weight))
    p = coeffs[:order]
    q = np.concatenate([coeffs[order:], [1.0]])

    def evaluate(w):
        zw = zeta(np.asarray(w, dtype=complex))
        return np.polyval(p[::-1], zw) / np.polyval(q[::-1], zw)

    return evaluate
