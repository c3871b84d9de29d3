"""Consumers of the resolvent: energy scans, resonance location, bound
states, and the energy density of states.

Resonances are detected on the Wigner time delay tau(E) = d(delta)/dE
computed from the unwrapped phase of S(E). A genuine resonance gains ~pi
of phase across its width, so tau spikes there; continuum-discretization
eigenvalues of the finite basis gain none (their phase loops cancel
against the reference problem) and are rejected. Narrow resonances that
no uniform grid can land on are seeded from the generalized eigenvalues
of (H, Overlap), which pin them to high accuracy, and then confirmed and
refined by shrinking phase scans around each seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .basis import OSCILLATOR, SystemSpec, build_matrices
from .errors import FitResidualError, InputError
from .matrix_core import gen_sym_eig, sym_eig
from .resolvent import PartialFractions, _pole_error
from .scattering import ScatteringCalculator


@dataclass(frozen=True)
class ScanTable:
    """Energy grid plus per-point value columns.

    ``flagged`` lists indices whose evaluation failed (for scattering
    scans, grid points that fell on a resolvent pole); their column
    entries are NaN.
    """

    energies: np.ndarray
    columns: dict
    metadata: dict = field(default_factory=dict)
    flagged: tuple = ()

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.size == 0:
            raise InputError("empty grid")
        if e.size > 1 and not np.all(np.diff(e) > 0):
            raise InputError("energy grid must be strictly increasing")
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
    peaks: tuple

    def positions(self) -> np.ndarray:
        return np.array([p.e_peak for p in self.peaks])


@dataclass(frozen=True)
class BoundStateResult:
    """Negative-energy spectrum plus the |G(E)| scan that diverges there."""

    energies: np.ndarray
    scan: ScanTable


def scan_smatrix(system_or_calc, grid: Sequence[float]) -> ScanTable:
    """S(E) over an increasing energy grid, in one batched evaluation.

    Columns: re_s, im_s, abs_one_minus_s, delta. Points whose evaluation
    fails (a resolvent pole, a seed or recursion failure) are flagged,
    not fatal, and their columns are NaN.
    """
    calc = (
        system_or_calc
        if isinstance(system_or_calc, ScatteringCalculator)
        else ScatteringCalculator(system_or_calc)
    )
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InputError("empty grid")
    s, errors = calc.s_values(grid)
    cols = {
        "re_s": s.real,
        "im_s": s.imag,
        "abs_one_minus_s": np.abs(1.0 - s),
        "delta": 0.5 * np.angle(s),
    }
    meta = {"system": _system_snapshot(calc.system), "kind": "smatrix"}
    return ScanTable(energies=grid, columns=cols, metadata=meta, flagged=tuple(errors))


def _system_snapshot(spec: SystemSpec) -> dict:
    return {
        "family": spec.basis.family,
        "lambda": spec.basis.lam,
        "ell": spec.basis.ell,
        "N": spec.basis.size,
        "Z": spec.z_charge,
        "potential": spec.potential.to_text() if spec.potential is not None else "0",
    }


def _unwrapped_time_delay(energies: np.ndarray, deltas: np.ndarray):
    """tau = d(delta)/dE from phases known only mod pi."""
    good = np.isfinite(deltas)
    if good.sum() < 3:
        return None, None
    d = np.unwrap(deltas[good], period=math.pi)
    tau = np.gradient(d, energies[good])
    return energies[good], tau


def _quadratic_refine(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Vertex of the parabola through points i-1, i, i+1."""
    if i == 0 or i == len(x) - 1:
        return float(x[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if denom == 0.0 or not np.isfinite(denom):
        return float(x1)
    # uniform-spacing vertex formula; grids here are uniform per window
    shift = 0.5 * (y0 - y2) / denom
    step = 0.5 * (x2 - x0)
    return float(x1 + np.clip(shift, -1.0, 1.0) * step)


def _prominent_peaks(x: np.ndarray, min_prominence: float):
    """(indices, prominences) of the local maxima of ``x`` whose
    prominence is at least ``min_prominence``.

    A run of equal samples is a peak when both neighbours are lower; it
    counts once, at its middle rounded down, so the endpoints are never
    peaks. A peak's prominence is its height minus the higher of the two
    minima reached on each side before the signal rises above the peak
    (or is NaN) or ends. These are the peaks and the prominences that
    SciPy's ``find_peaks(x, prominence=min_prominence)`` returns; the
    tests use it as the oracle.
    """
    n = x.size
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:], n) - 1
    inner = (starts > 0) & (ends < n - 1)
    starts, ends = starts[inner], ends[inner]
    top = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[starts])
    peaks = (starts[top] + ends[top]) // 2

    def base(side):  # side[0] is the peak; walk until the signal rises above it
        stop = int(np.argmax(~(side <= side[0])))
        return side[: stop or side.size].min()

    prominences = np.array([x[p] - max(base(x[p::-1]), base(x[p:])) for p in peaks], dtype=float)
    keep = prominences >= min_prominence
    return peaks[keep], prominences[keep]


def find_resonances(table: ScanTable, prominence: float = 0.15) -> ResonanceReport:
    """Peaks of the time delay in an existing scan.

    ``prominence`` is the required peak prominence as a fraction of the
    table's full time-delay range; peaks at grid endpoints are never
    reported. Monotone or featureless data yields an empty report.
    """
    if "delta" not in table.columns:
        raise InputError("table has no phase-shift column")
    es, tau = _unwrapped_time_delay(table.energies, np.asarray(table.columns["delta"], dtype=float))
    if es is None:
        return ResonanceReport(peaks=())
    span = float(np.max(tau) - np.min(tau))
    # featureless data: variation at the round-off level of the phases
    if span <= 1e-9 * max(1.0, float(np.max(np.abs(tau)))):
        return ResonanceReport(peaks=())
    idx, prominences = _prominent_peaks(tau, prominence * span)
    peaks = []
    for i, prom in zip(idx, prominences):
        e_peak = _quadratic_refine(es, tau, int(i))
        width = 2.0 / tau[i] if tau[i] > 0 else math.inf
        peaks.append(
            ResonancePeak(
                e_peak=e_peak,
                width_estimate=float(width),
                quality=float(prom / span),
            )
        )
    peaks.sort(key=lambda p: p.e_peak)
    return ResonanceReport(peaks=tuple(peaks))


# Each refinement window is scanned at _REFINE_POINTS energies and shrinks
# by 8 per step down to _FINAL_WIDTH_RTOL * max(1, e_max).
_REFINE_POINTS = 33
_FINAL_WIDTH_RTOL = 1e-7


def _window_scan(calc, center, width, e_min):
    """Phases on a window about ``center``; a window that would reach
    E <= 0 starts at ``e_min`` instead."""
    lo = center - 0.5 * width
    es = np.linspace(lo if lo > 0.0 else e_min, center + 0.5 * width, _REFINE_POINTS)
    s, _ = calc.s_values(es)
    return es, 0.5 * np.angle(s)


def _phase_gain_and_peak(es, ds):
    good = np.isfinite(ds)
    if good.sum() < 5:
        return 0.0, None, None
    d = np.unwrap(ds[good], period=math.pi)
    tau = np.gradient(d, es[good])
    i = int(np.argmax(tau))
    return float(d[-1] - d[0]), float(es[good][i]), (es[good], tau, i)


def _refine_candidate(calc, center, width, min_gain, e_min, final_width):
    """Shrinking phase scans around one candidate; returns a peak or None.

    Detection requires the window's scan step to resolve the structure,
    so the window descends geometrically until the phase gain appears;
    after detection it keeps shrinking while re-centering on the time
    delay peak.
    """
    detected = False
    best = center
    tau_peak = math.inf
    gain_seen = 0.0
    floor = max(abs(center), 1.0) * 1e-12
    for _ in range(40):
        es, ds = _window_scan(calc, best, width, e_min)
        gain, peak, prof = _phase_gain_and_peak(es, ds)
        if not detected:
            if abs(gain) >= min_gain:
                detected = True
            elif width / 8.0 < floor:
                return None
            else:
                width /= 8.0
                continue
        if detected:
            gain_seen = max(gain_seen, abs(gain))
            if peak is not None:
                esg, tau, i = prof
                best = _quadratic_refine(esg, tau, i)
                tau_peak = float(tau[i])
            if width <= final_width:
                break
            width = max(width / 8.0, final_width)
    if not detected:
        return None
    width_est = 2.0 / tau_peak if tau_peak > 0 else math.inf
    return ResonancePeak(e_peak=best, width_estimate=width_est, quality=min(1.0, gain_seen / math.pi))


def locate_resonances(
    system_or_calc,
    e_min: float,
    e_max: float,
    coarse_steps: int = 400,
    min_phase_gain: float = 0.5,
) -> ResonanceReport:
    """Find and refine resonances in (e_min, e_max).

    Two candidate sources: time-delay peaks of a coarse scan (broad
    resonances the grid resolves) and generalized eigenvalues of
    (H, Overlap) inside the range (narrow resonances invisible to any
    uniform grid). Every candidate must show a phase gain of at least
    ``min_phase_gain`` radians across some window before it is reported.
    Needs 0 < e_min < e_max; a refinement window that would reach E <= 0
    starts at e_min instead.
    """
    calc = (
        system_or_calc
        if isinstance(system_or_calc, ScatteringCalculator)
        else ScatteringCalculator(system_or_calc)
    )
    if not (0.0 < e_min < e_max):
        raise InputError(f"need 0 < e_min < e_max, got e_min={e_min}, e_max={e_max}")
    scale = max(1.0, e_max)
    step = (e_max - e_min) / coarse_steps

    candidates = []
    grid = np.linspace(e_min, e_max, coarse_steps + 1)
    table = scan_smatrix(calc, grid)
    for p in find_resonances(table, prominence=0.25).peaks:
        # a broad peak needs a window wide enough to accumulate its phase
        width = 6.0 * step
        if np.isfinite(p.width_estimate):
            width = max(width, 4.0 * p.width_estimate)
        candidates.append((p.e_peak, min(width, e_max - e_min)))
    ev = calc.eigenvalues
    for e in ev[(ev > e_min) & (ev < e_max)]:
        candidates.append((float(e), 4.0 * step))

    peaks = []
    for center, width in candidates:
        got = _refine_candidate(calc, center, width, min_phase_gain, e_min, _FINAL_WIDTH_RTOL * scale)
        if got is not None:
            peaks.append(got)

    # candidates found through both routes converge to the same energy;
    # keep the sharpest report per location
    peaks.sort(key=lambda p: p.e_peak)
    merged = []
    tol = max(2.0 * step, 1e-6 * scale)
    for p in peaks:
        if merged and abs(p.e_peak - merged[-1].e_peak) < tol:
            if p.quality > merged[-1].quality:
                merged[-1] = p
        else:
            merged.append(p)
    return ResonanceReport(peaks=tuple(merged))


# ---------------------------------------------------------------------------
# Bound states
# ---------------------------------------------------------------------------


def bound_states(system: SystemSpec, grid: Optional[Sequence[float]] = None) -> BoundStateResult:
    """Bound energies and the |G| scan that blows up at them.

    The poles of the finite resolvent are exactly the generalized
    eigenvalues of (H, Overlap), so the negative ones are read off
    directly; scanning |G(E)| for divergences is strictly less accurate
    but is emitted for plotting parity. G is the (last, last) element.
    Grid points that the pole rule (``resolvent.POLE_RTOL``) puts on an
    eigenvalue are flagged, with NaN in ``abs_g``.
    """
    mats = build_matrices(system)
    pair = gen_sym_eig(mats.h.data, mats.omega.data)
    energies = pair.eps[pair.eps < 0.0].copy()

    if grid is None:
        lo = 1.4 * float(energies.min()) - 0.5 if energies.size else -6.0
        grid = np.linspace(lo, -1e-3, 400)
    grid = np.asarray(grid, dtype=float)

    last = mats.size - 1
    g, on_pole = PartialFractions.from_pair(pair, last, last).evaluate(grid)
    meta = {"system": _system_snapshot(system), "kind": "resolvent_magnitude"}
    flagged = tuple(np.flatnonzero(on_pole).tolist())
    scan = ScanTable(energies=grid, columns={"abs_g": np.abs(g)}, metadata=meta, flagged=flagged)
    return BoundStateResult(energies=energies, scan=scan)


# ---------------------------------------------------------------------------
# Density of states
# ---------------------------------------------------------------------------


def _g00(system: SystemSpec) -> PartialFractions:
    if system.basis.family != OSCILLATOR:
        raise InputError("density of states uses the orthonormal oscillator basis")
    mats = build_matrices(system)
    return PartialFractions.from_pair(sym_eig(mats.h.data), 0, 0)


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

    A delta or fit_height that is not positive raises InputError. Either
    method raises SpectrumEvaluationError if a point it evaluates G_00 at
    (E + i*delta, or the fit contour) sits on a pole by the pole rule
    (``resolvent.POLE_RTOL``).
    """
    for name, value in (("delta", delta), ("fit_height", fit_height)):
        if value is not None and not value > 0.0:
            raise InputError(f"{name} must be positive, got {value}")
    grid = np.asarray(grid, dtype=float)
    g00 = _g00(system)
    meta = {
        "system": _system_snapshot(system),
        "kind": "dos",
        "method": method,
        "total_weight": float(g00.coeffs.sum()),
    }
    if method == "smoothing":
        width = delta if delta is not None else default_smoothing_width(g00.poles, grid[0], grid[-1])
        rho = _g00_off_poles(g00, grid + 1j * width).imag / math.pi
        meta["delta"] = float(width)
        return ScanTable(energies=grid, columns={"rho": rho}, metadata=meta)
    if method != "continuation":
        raise InputError(f"unknown DOS method {method!r}")

    z_fit = grid + 1j * fit_height
    g_fit = _g00_off_poles(g00, z_fit)
    fit = _rational_fit(z_fit, g_fit, fit_order)
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


def _rational_fit(z: np.ndarray, g: np.ndarray, order: int):
    """Least-squares rational approximant P/Q, deg P = order-1, deg Q =
    order (monic), with a few reweighting passes to undo the
    linearization bias. Coordinates are centered and scaled first."""
    mid = 0.5 * (z.real.min() + z.real.max())
    half = max(0.5 * (z.real.max() - z.real.min()), 1.0)

    def zeta(w):
        return (w - mid) / half

    zz = zeta(z)
    num_basis = np.vander(zz, order, increasing=True)  # 1 .. zeta^(order-1)
    den_basis = np.vander(zz, order, increasing=True)  # 1 .. zeta^(order-1), plus monic zeta^order
    weight = np.ones_like(g)
    coeffs = None
    for _ in range(3):
        lhs = np.hstack([num_basis, -(g[:, None]) * den_basis]) / weight[:, None]
        rhs = (g * zz**order) / weight
        coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        q = np.concatenate([coeffs[order:], [1.0]])
        weight = np.abs(np.polyval(q[::-1], zz))
        weight = np.maximum(weight, 1e-12 * np.max(weight))
    p = coeffs[:order]
    q = np.concatenate([coeffs[order:], [1.0]])

    def evaluate(w):
        zw = zeta(np.asarray(w, dtype=complex))
        return np.polyval(p[::-1], zw) / np.polyval(q[::-1], zw)

    return evaluate
