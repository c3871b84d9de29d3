"""The benchmark's workloads: inputs made from a seed, set-up, jobs and
correctness gates.

Importing this module imports numpy and resolvent_kit, so the caller
times the import as part of set-up. Each workload's constructor is the
rest of set-up: it parses the potentials, builds the ``SystemSpec``s and
constructs the ``ScatteringCalculator``s, one eigendecomposition per
system, that every later round shares. ``jobs()`` lists the solve calls
of one round; each job runs one public entry point, checks its answer
against an independent oracle and returns a ``JobResult``.

Only the stable public names are used here: ``SystemSpec``,
``BasisSpec``, ``parse_potential``, ``ScatteringCalculator``,
``scan_smatrix``, ``locate_resonances``, ``bound_states``,
``density_of_states`` and ``cli.main``. They are looked up on the module
at call time, so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import resolvent_kit as rk
from resolvent_kit import cli

BARRIER = "7.5*r^2*exp(-r)"
TWO_GAUSSIAN = "5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)"

UNITARITY_TOL = 1e-7
POLE_DISTANCE = 1e-3


class GateError(Exception):
    """A checked answer disagrees with its oracle."""


@dataclass
class JobResult:
    """What one job did, in the units the end-to-end metrics need."""

    kind: str  # scan, locate, cli, bound, dos
    points: int = 0  # grid points returned (scan) or bound-state systems done
    flagged: int = 0  # grid points the library flagged instead of evaluating
    bytes_written: int = 0


def _laguerre(lam, ell, size, potential, z_charge=0.0):
    return rk.SystemSpec(
        basis=rk.BasisSpec("laguerre", lam=lam, ell=ell, size=size),
        potential=rk.parse_potential(potential),
        z_charge=z_charge,
    )


def _jittered_grid(rng, lo, hi, points):
    """Uniform grid with each interior point moved by up to a quarter
    step, so every seed evaluates different energies at the same
    density."""
    grid = np.linspace(lo, hi, points)
    step = grid[1] - grid[0]
    grid[1:-1] += rng.uniform(-0.25, 0.25, points - 2) * step
    return grid


def _stratified(rng, lo, hi, points):
    """One uniform draw per equal stratum of [lo, hi], sorted by
    construction: seeded energies with the same low-energy share on
    every seed."""
    width = (hi - lo) / points
    return lo + (np.arange(points) + rng.uniform(0.0, 1.0, points)) * width


def _check_unitarity(table, calc, label):
    """||S| - 1| <= UNITARITY_TOL at every unflagged point at least
    POLE_DISTANCE from an eigenvalue of the finite pencil."""
    s_mag = np.hypot(table.columns["re_s"], table.columns["im_s"])
    dist = np.min(np.abs(table.energies[:, None] - calc.eigenvalues[None, :]), axis=1)
    keep = np.ones(table.size, dtype=bool)
    keep[list(table.flagged)] = False
    keep &= dist >= POLE_DISTANCE
    if not keep.any():
        raise GateError(f"{label}: no point to check unitarity on")
    worst = float(np.max(np.abs(s_mag[keep] - 1.0)))
    if not worst <= UNITARITY_TOL:
        raise GateError(f"{label}: ||S| - 1| = {worst:.3e} > {UNITARITY_TOL:.0e}")


def _check_resonances(report, targets, label):
    positions = report.positions()
    for target, tol in targets:
        if not np.any(np.abs(positions - target) <= tol):
            raise GateError(f"{label}: no resonance within {tol} of {target}; found {positions.tolist()}")


def _scan(calc, grid, label):
    table = rk.scan_smatrix(calc, grid)
    _check_unitarity(table, calc, label)
    return JobResult("scan", points=table.size, flagged=len(table.flagged))


def _locate(calc, e_min, e_max, coarse_steps, targets, label):
    report = rk.locate_resonances(calc, e_min, e_max, coarse_steps=coarse_steps)
    _check_resonances(report, targets, label)
    return JobResult("locate")


class NeutralScan:
    """Z = 0: the per-energy path (recursion, cheap seeds, resolvent
    element) through a dense scan, a resonance search and a CLI run."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.barrier = rk.ScatteringCalculator(_laguerre(1.0, 0, 60, BARRIER))
        self.two_gauss = rk.ScatteringCalculator(_laguerre(20.0, 0, 100, TWO_GAUSSIAN))
        self.grid = _jittered_grid(rng, 0.5, 8.0, 2001)

    def jobs(self):
        return [
            lambda: _scan(self.barrier, self.grid, "barrier scan"),
            # The bracket stays fixed: moved by 0.01 it can hide the broad
            # 4.51 resonance (README.md, findings).
            lambda: _locate(
                self.two_gauss, 1.8, 5.2, 400, [(2.2524, 0.005), (4.51, 0.05)], "two-Gaussian locate"
            ),
            self._cli,
        ]

    def _cli(self):
        csv_path = os.path.join(self.workdir, "barrier.csv")
        json_path = os.path.join(self.workdir, "barrier.json")
        argv = [
            "resonances", "--family", "laguerre", "--lambda", "1.0", "--ell", "0", "--Z", "0",
            "--N", "60", "--potential", BARRIER,
            "--e-min", "0.5", "--e-max", "8.0", "--steps", "300",
            "--csv", csv_path, "--json", json_path,
        ]
        code = cli.main(argv)
        if code != 0:
            raise GateError(f"cli resonances exited with {code}")
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        peaks = [r["energy"] for r in payload["results"]["resonances"]]
        if not any(abs(p - 3.425) <= 0.05 for p in peaks):
            raise GateError(f"cli resonances: no resonance within 0.05 of 3.425; found {peaks}")
        with open(csv_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != 301:
            raise GateError(f"cli resonances: CSV has {rows} rows, expected 301")
        written = os.path.getsize(csv_path) + os.path.getsize(json_path)
        return JobResult("cli", bytes_written=written)


class CoulombScan:
    """Z = +/-1: the hypergeometric seeds dominate. The low-energy band
    E < 0.12, where Z = +1 seeds raise ConvergenceError, is kept on
    purpose so the flagged fraction shows the known seed defect."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.repulsive = rk.ScatteringCalculator(_laguerre(20.0, 0, 100, TWO_GAUSSIAN, z_charge=1.0))
        self.attractive = rk.ScatteringCalculator(_laguerre(20.0, 0, 100, TWO_GAUSSIAN, z_charge=-1.0))
        self.p_wave = rk.ScatteringCalculator(_laguerre(20.0, 1, 100, TWO_GAUSSIAN, z_charge=1.0))
        self.grid_plus = _stratified(rng, 0.05, 1.5, 150)
        self.grid_minus = _stratified(rng, 0.05, 1.5, 150)

    def jobs(self):
        return [
            lambda: _scan(self.repulsive, self.grid_plus, "Z=+1 scan"),
            lambda: _scan(self.attractive, self.grid_minus, "Z=-1 scan"),
            lambda: _locate(self.p_wave, 1.45, 1.85, 120, [(1.638546, 1e-3)], "Z=+1 l=1 locate"),
        ]


BOUND_TARGETS = (-4.5712, -0.8843)
BOUND_TOL = 5e-3
VARIATIONAL_SLACK = 1e-7
SIZE_STEP = 15


class BuildSweep:
    """Many systems with few evaluations each, so basis construction and
    the eigensolvers do the work; the resolvent element is used in bulk
    at complex z (DOS) and at negative E (the |G| loop)."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.systems = [
            (lam, ell, size, _laguerre(lam, ell, size, TWO_GAUSSIAN))
            for lam in (10.0, 20.0)
            for ell in (0, 1)
            for size in range(SIZE_STEP, 121, SIZE_STEP)
        ]
        rng.shuffle(self.systems)
        self.dos_system = rk.SystemSpec(
            basis=rk.BasisSpec("oscillator", lam=0.45, ell=0, size=100),
            potential=rk.parse_potential(BARRIER),
        )
        self.dos_grid = _jittered_grid(rng, 0.05, 8.0, 796)

    def jobs(self):
        return [self._bound_sweep] + [lambda m=m: self._dos(m) for m in ("smoothing", "continuation")]

    def _bound_sweep(self):
        found = {}
        for lam, ell, size, spec in self.systems:
            energies = rk.bound_states(spec).energies
            if ell == 0:
                if energies.size != len(BOUND_TARGETS) or not np.all(
                    np.abs(energies - BOUND_TARGETS) <= BOUND_TOL
                ):
                    raise GateError(
                        f"bound states lam={lam} N={size}: {energies.tolist()}, expected {BOUND_TARGETS}"
                    )
            found[(lam, ell, size)] = energies
        # Bases of one (lam, ell) are nested, so by interlacing each
        # eigenvalue can only go down, and the count only up, as N grows.
        for (lam, ell, size), energies in found.items():
            bigger = found.get((lam, ell, size + SIZE_STEP))
            if bigger is None:
                continue
            if bigger.size < energies.size or np.any(bigger[: energies.size] > energies + VARIATIONAL_SLACK):
                raise GateError(
                    f"bound states lam={lam} ell={ell}: N={size} gives {energies.tolist()}, "
                    f"N={size + SIZE_STEP} gives {bigger.tolist()}, not variational"
                )
        return JobResult("bound", points=len(self.systems))

    def _dos(self, method):
        table = rk.density_of_states(self.dos_system, self.dos_grid, method=method)
        total = table.metadata["total_weight"]
        rho = table.columns["rho"]
        peak = float(table.energies[int(np.argmax(rho))])
        if not abs(total - 1.0) <= 1e-10:
            raise GateError(f"DOS {method}: total weight {total!r} != 1")
        if not float(np.min(rho)) >= -1e-12:
            raise GateError(f"DOS {method}: rho reaches {float(np.min(rho)):.3e}")
        if not abs(peak - 3.425) <= 0.3:
            raise GateError(f"DOS {method}: rho peaks at {peak}, not within 0.3 of 3.425")
        return JobResult("dos", points=table.size)


WORKLOADS = {
    "neutral-scan": NeutralScan,
    "coulomb-scan": CoulombScan,
    "build-sweep": BuildSweep,
}
