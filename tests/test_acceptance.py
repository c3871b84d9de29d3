"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with -s to see them inline).

Shared systems are built once per session; the stated runtime budgets
cover the per-criterion work, not the shared builds, and are asserted.
"""

import json
import time

import numpy as np
import pytest

from resolvent_kit.analysis import (
    bound_states,
    density_of_states,
    locate_resonances,
    scan_smatrix,
)
from resolvent_kit.basis import BasisSpec, SystemSpec
from resolvent_kit.cli import main as cli_main
from resolvent_kit.errors import SingularSubmatrixError
from resolvent_kit.matrix_core import gen_sym_eig, sym_eig
from resolvent_kit.potential import parse_potential
from resolvent_kit.resolvent import (
    ResolventInput,
    eigvec_from_eigs_general,
    green_cofactor,
    green_eigprod_general,
    green_partial_fractions,
    green_spectral,
    inverse_oracle,
)
from resolvent_kit.scattering import ScatteringCalculator

BARRIER = "7.5*r^2*exp(-r)"
TWO_GAUSSIAN = "5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)"


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


@pytest.fixture(scope="session")
def fig3_calc():
    spec = SystemSpec(
        basis=BasisSpec("laguerre", lam=1.0, ell=0, size=60),
        potential=parse_potential(BARRIER),
    )
    return ScatteringCalculator(spec)


@pytest.fixture(scope="session")
def fig5_calc():
    spec = SystemSpec(
        basis=BasisSpec("laguerre", lam=20.0, ell=0, size=100),
        potential=parse_potential(TWO_GAUSSIAN),
    )
    return ScatteringCalculator(spec)


@pytest.fixture(scope="session")
def free_scan():
    spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=40))
    calc = ScatteringCalculator(spec)
    return calc, scan_smatrix(calc, np.linspace(0.2, 6.0, 50))


@pytest.fixture(scope="session")
def fig3_scan(fig3_calc):
    return scan_smatrix(fig3_calc, np.linspace(0.5, 8.0, 301))


@pytest.fixture(scope="session")
def fig5_scan(fig5_calc):
    return scan_smatrix(fig5_calc, np.linspace(1.8, 5.2, 401))


@pytest.fixture(scope="session")
def fig3_im_peak(fig3_calc):
    """Location of the Im S maximum near the barrier resonance, by
    two-stage grid refinement."""
    center, width = 3.425, 0.25
    for pts in (251, 201):
        grid = np.linspace(center - width / 2, center + width / 2, pts)
        s, errors = fig3_calc.s_values(grid)
        assert not errors
        center = float(grid[int(np.argmax(s.imag))])
        width = 4.0 * (grid[1] - grid[0])
    return center


def test_criterion_1_formula_equivalence(rng):
    start = time.perf_counter()
    checked = 0
    for case in range(50):
        n_dim = int(rng.randint(2, 9))
        a = rng.randn(n_dim, n_dim)
        h = 0.5 * (a + a.T)
        b = rng.randn(n_dim, n_dim)
        om = 0.5 * ((b @ b.T) + (b @ b.T).T) + n_dim * np.eye(n_dim)
        z = complex(rng.randn() * 2.0, rng.uniform(0.05, 1.0) * (1 if case % 2 else -1))
        inp = ResolventInput(h=h, omega=om, z=z)
        inv = inverse_oracle(inp)
        for n in range(n_dim):
            for m in range(n_dim):
                ref = inv[n, m]
                tol = 1e-9 * max(abs(ref), 1e-6)
                assert abs(green_spectral(inp, n, m) - ref) <= tol
                assert abs(green_cofactor(inp, n, m) - ref) <= tol
                try:
                    assert abs(green_eigprod_general(inp, n, m) - ref) <= tol
                except SingularSubmatrixError:
                    pass  # product form legitimately undefined there
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"{checked} matrix elements, 50 pencils, all routes within 1e-9 ({elapsed:.2f} s)")


def test_criterion_2_eigvec_from_eigenvalues(rng):
    # the rows and residues also rebuild G at z off the axis, against the
    # pivoted-solve inverse
    start = time.perf_counter()
    z = 0.3 + 0.4j
    worst_plain = worst_row_g = worst_res_g = 0.0
    for _ in range(20):
        a = rng.randn(8, 8)
        h = 0.5 * (a + a.T)
        pair = sym_eig(h)
        inv = inverse_oracle(ResolventInput(h=h, omega=None, z=z))
        for n in range(8):
            row = eigvec_from_eigs_general(h, None, n, n)
            worst_plain = max(worst_plain, np.max(np.abs(row - pair.gamma[n] ** 2)))
            worst_row_g = max(worst_row_g, abs(np.sum(row / (pair.eps - z)) - inv[n, n]))
            for m in range(n + 1):
                pf = green_partial_fractions(h, n, m)
                worst_plain = max(worst_plain, np.max(np.abs(pf.coeffs - pair.gamma[n] * pair.gamma[m])))
                worst_res_g = max(worst_res_g, abs(pf.evaluate(z)[0] - inv[n, m]))
    assert worst_plain <= 1e-10

    worst_gen = 0.0
    om = np.diag(np.full(8, 2.0)) + np.diag(np.full(7, -0.6), 1) + np.diag(np.full(7, -0.6), -1)
    for _ in range(20):
        a = rng.randn(8, 8)
        h = 0.5 * (a + a.T)
        pair = gen_sym_eig(h, om)
        inv = inverse_oracle(ResolventInput(h=h, omega=om, z=z))
        for n in range(8):
            row = eigvec_from_eigs_general(h, om, n, n)
            worst_gen = max(worst_gen, np.max(np.abs(row - pair.gamma[n] ** 2)))
            worst_row_g = max(worst_row_g, abs(np.sum(row / (pair.eps - z)) - inv[n, n]))
    assert worst_gen <= 1e-9
    assert worst_row_g <= 1e-10 and worst_res_g <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        2,
        f"orthonormal worst {worst_plain:.2e} (tol 1e-10), generalized worst "
        f"{worst_gen:.2e} (tol 1e-9); |sum_k c_k/(eps_k - z) - G| at z = {z}: rows "
        f"{worst_row_g:.2e}, residues {worst_res_g:.2e} (tol 1e-10) ({elapsed:.2f} s)",
    )


def test_criterion_3_free_particle_null(free_scan):
    start = time.perf_counter()
    _, table = free_scan
    worst = float(np.max(table.columns["abs_one_minus_s"]))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"max |1 - S| = {worst:.2e} over 50 points in [0.2, 6] (tol 1e-5)")


def test_criterion_4_barrier_resonance(fig3_im_peak):
    assert abs(fig3_im_peak - 3.425) <= 0.010
    report(4, f"Im S peak at E = {fig3_im_peak:.4f} (target 3.425 +/- 0.010)")


@pytest.mark.slow
def test_criterion_5_two_gaussian_resonances(fig5_calc):
    start = time.perf_counter()
    found = locate_resonances(fig5_calc, 1.8, 5.2, coarse_steps=400)
    positions = found.positions()
    narrow = positions[np.abs(positions - 2.2524) < 0.005]
    broad = positions[np.abs(positions - 4.51) < 0.05]
    assert narrow.size == 1
    assert broad.size == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        5,
        f"resonances at E = {narrow[0]:.5f} (target 2.2524 +/- 0.005) and "
        f"E = {broad[0]:.3f} (target 4.51 +/- 0.05) ({elapsed:.1f} s)",
    )


def test_criterion_6_bound_states():
    start = time.perf_counter()
    pot = parse_potential(TWO_GAUSSIAN)
    spec15 = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
    found15 = bound_states(spec15).energies
    assert found15.size == 2
    assert abs(found15[0] + 4.5712) <= 5e-3
    assert abs(found15[1] + 0.8843) <= 5e-3

    # at N = 5 the converged scale lam = 20 cannot span the well; the
    # figure-level reproduction uses lam = 5 (see decisions ledger)
    spec5 = SystemSpec(basis=BasisSpec("laguerre", lam=5.0, ell=0, size=5), potential=pot)
    found5 = bound_states(spec5).energies
    assert found5.size == 2
    assert abs(found5[0] + 4.6) <= 0.15
    assert abs(found5[1] + 0.8) <= 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        6,
        f"N=15: {found15[0]:.5f}, {found15[1]:.5f} (targets -4.5712, -0.8843 +/- 5e-3); "
        f"N=5: {found5[0]:.2f}, {found5[1]:.2f} (within 0.15 of -4.6, -0.8)",
    )


@pytest.mark.parametrize(
    "z_charge,ell,bracket,target,tol",
    [
        (+1.0, 0, (0.15, 0.45), 0.272858, 1e-4),
        (-1.0, 0, (1.05, 1.45), 1.247138, 1e-4),
        (+1.0, 1, (1.45, 1.85), 1.638546, 1e-3),
    ],
)
def test_criterion_7_coulomb_table_spot_checks(z_charge, ell, bracket, target, tol):
    spec = SystemSpec(
        basis=BasisSpec("laguerre", lam=20.0, ell=ell, size=100),
        potential=parse_potential(TWO_GAUSSIAN),
        z_charge=z_charge,
    )
    found = locate_resonances(spec, *bracket, coarse_steps=120)
    hits = [p.e_peak for p in found.peaks if abs(p.e_peak - target) <= tol]
    assert len(hits) == 1
    report(
        7,
        f"Z={z_charge:+.0f} ell={ell}: sharp resonance at E = {hits[0]:.7f} "
        f"(target {target} +/- {tol})",
    )


@pytest.mark.slow
def test_criterion_8_unitarity_off_poles(free_scan, fig3_scan, fig3_calc, fig5_scan, fig5_calc):
    worst = 0.0
    scans = [
        (free_scan[1], free_scan[0]),
        (fig3_scan, fig3_calc),
        (fig5_scan, fig5_calc),
    ]
    kept_total = 0
    for table, calc in scans:
        step = table.energies[1] - table.energies[0]
        dist = np.min(
            np.abs(table.energies[:, None] - calc.eigenvalues[None, :]), axis=1
        )
        keep = dist >= 10.0 * step
        s_mag = np.hypot(table.columns["re_s"][keep], table.columns["im_s"][keep])
        s_mag = s_mag[np.isfinite(s_mag)]
        kept_total += s_mag.size
        if s_mag.size:
            worst = max(worst, float(np.max(np.abs(s_mag - 1.0))))
    assert kept_total > 100
    assert worst <= 1e-7
    report(8, f"max ||S| - 1| = {worst:.2e} across all scans, >= 10 steps from poles (tol 1e-7)")


def test_criterion_9_density_of_states(fig3_im_peak):
    spec = SystemSpec(
        basis=BasisSpec("oscillator", lam=0.45, ell=0, size=100),
        potential=parse_potential(BARRIER),
    )
    grid = np.linspace(0.05, 8.0, 796)
    table = density_of_states(spec, grid, method="smoothing")
    total = table.metadata["total_weight"]
    assert abs(total - 1.0) <= 1e-10
    rho = table.columns["rho"]
    assert float(np.min(rho)) >= -1e-12
    peak_at = float(grid[int(np.argmax(rho))])
    assert abs(peak_at - fig3_im_peak) <= 0.3
    report(
        9,
        f"sum of residues = 1 {total - 1.0:+.1e}; rho >= {np.min(rho):.1e}; "
        f"dominant maximum at E = {peak_at:.2f} vs resonance {fig3_im_peak:.3f} (tol 0.3)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "barrier.cfg"
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    cfg.write_text(
        "command = smatrix\n"
        "family = laguerre\n"
        "lambda = 1.0\n"
        "ell = 0\n"
        "Z = 0\n"
        "N = 60\n"
        f"potential = {BARRIER}\n"
        "e_min = 0.5\n"
        "e_max = 8.0\n"
        "steps = 300\n"
        f"csv = {csv_path}\n"
        f"json = {json_path}\n"
    )
    assert cli_main(["run", str(cfg)]) == 0
    csv1, json1 = csv_path.read_bytes(), json_path.read_bytes()
    assert cli_main(["run", str(cfg)]) == 0
    assert csv_path.read_bytes() == csv1
    assert json_path.read_bytes() == json1
    payload = json.loads(json1)
    peaks = [r["energy"] for r in payload["results"]["resonances"]]
    assert any(abs(p - 3.425) < 0.05 for p in peaks)
    report(10, f"byte-identical CSV ({len(csv1)} B) and JSON ({len(json1)} B) on rerun; "
               f"summary lists a resonance near 3.425")
