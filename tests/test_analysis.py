import math

import numpy as np
import pytest
import scipy.signal

from resolvent_kit.analysis import (
    ScanTable,
    _prominent_peaks,
    bound_states,
    default_smoothing_width,
    density_of_states,
    find_resonances,
    locate_resonances,
    scan_smatrix,
)
from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
from resolvent_kit.errors import FitResidualError, InputError, SpectrumEvaluationError
from resolvent_kit.matrix_core import gen_sym_eig, sym_eig
from resolvent_kit.potential import parse_potential
from resolvent_kit.resolvent import _BATCH_SIZE
from resolvent_kit.scattering import ScatteringCalculator


def breit_wigner_table(e0=3.0, gamma=0.12, background=0.4, step=0.01):
    """Synthetic S-matrix table: a single Breit-Wigner resonance on a
    constant background phase. The independent oracle for peak finding."""
    energies = np.arange(1.0, 5.0 + step / 2, step)
    delta = background + np.arctan(0.5 * gamma / (e0 - energies))
    delta = np.where(energies > e0, delta + math.pi, delta)  # resonant pi gain
    s = np.exp(2j * delta)
    cols = {
        "re_s": s.real,
        "im_s": s.imag,
        "abs_one_minus_s": np.abs(1.0 - s),
        "delta": np.mod(0.5 * np.angle(s**1), math.pi),
    }
    cols["delta"] = 0.5 * np.angle(s)
    return ScanTable(energies=energies, columns=cols, metadata={"kind": "synthetic"})


class TestScanTable:
    def test_grid_must_increase(self):
        with pytest.raises(InputError):
            ScanTable(energies=np.array([1.0, 1.0]), columns={})

    def test_single_point(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=12))
        table = scan_smatrix(spec, [1.5])
        assert table.size == 1
        assert table.columns["abs_one_minus_s"][0] < 1e-9


class TestScanSMatrix:
    def test_free_case_no_scattering(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=30))
        grid = np.linspace(0.2, 5.0, 40)
        table = scan_smatrix(spec, grid)
        assert np.max(table.columns["abs_one_minus_s"]) <= 1e-6
        assert table.flagged == ()

    def test_low_energy_coulomb_s_wave(self):
        # repulsive Coulomb (Z = +1) s-wave at lambda = 20 down to E = 0.01,
        # where the hypergeometric seeds sit close to x = 1
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(
            basis=BasisSpec("laguerre", lam=20.0, ell=0, size=100), potential=pot, z_charge=1.0
        )
        table = scan_smatrix(spec, np.geomspace(0.01, 0.5, 60))
        assert table.flagged == ()
        s_mag = np.hypot(table.columns["re_s"], table.columns["im_s"])
        assert np.max(np.abs(s_mag - 1.0)) <= 1e-7

    def test_deterministic(self):
        pot = parse_potential("7.5*r^2*exp(-r)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=25), potential=pot)
        grid = np.linspace(0.5, 6.0, 30)
        a = scan_smatrix(spec, grid)
        b = scan_smatrix(spec, grid)
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    def test_point_matches_scan_bit_for_bit(self):
        # point(E) is the one-energy case of the batched evaluation, so a
        # batch of 2001 must give each energy exactly its own S
        pot = parse_potential("7.5*r^2*exp(-r)")
        grid = np.linspace(0.2, 6.0, 2001)
        for z_charge in (-1.0, 0.0, 1.0):
            for ell in (0, 1, 2):
                spec = SystemSpec(
                    basis=BasisSpec("laguerre", lam=2.0, ell=ell, size=20), potential=pot, z_charge=z_charge
                )
                calc = ScatteringCalculator(spec)
                table = scan_smatrix(calc, grid)
                s = np.array([calc.point(e).s for e in grid])
                assert table.flagged == ()
                assert np.array_equal(table.columns["re_s"], s.real)
                assert np.array_equal(table.columns["im_s"], s.imag)

    def test_pole_hit_flags_only_that_index(self, barrier_calc):
        pole = float(barrier_calc.eigenvalues[barrier_calc.eigenvalues > 2.0][0])
        grid = np.linspace(pole - 0.2, pole + 0.2, 41)
        grid[20] = pole
        table = scan_smatrix(barrier_calc, grid)
        assert table.flagged == (20,)
        assert np.isnan(table.columns["re_s"][20]) and np.isnan(table.columns["delta"][20])
        _, errors = barrier_calc.s_values(grid)
        assert isinstance(errors[20], SpectrumEvaluationError) and errors[20].pole == pole
        with pytest.raises(SpectrumEvaluationError) as err:
            barrier_calc.point(pole)
        assert str(err.value) == str(errors[20])
        for i in (19, 21):
            s = barrier_calc.point(float(grid[i])).s
            assert table.columns["re_s"][i] == s.real and table.columns["im_s"][i] == s.imag

    def test_nonpositive_energy_raises(self, barrier_calc):
        for grid in ([0.0, 0.5, 1.0], [-1.0, 2.0]):
            with pytest.raises(InputError, match="must be positive"):
                scan_smatrix(barrier_calc, grid)

    def test_metadata_snapshot(self):
        pot = parse_potential("7.5*r^2*exp(-r)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=2.0, ell=1, size=20), potential=pot)
        table = scan_smatrix(spec, [1.0, 2.0])
        snap = table.metadata["system"]
        assert snap["lambda"] == 2.0 and snap["ell"] == 1 and snap["N"] == 20
        assert snap["potential"] == "7.5*r^2*exp(-r)"


class TestFindResonances:
    def test_synthetic_lorentzian_peak(self):
        table = breit_wigner_table(e0=3.0, gamma=0.12, step=0.01)
        report = find_resonances(table)
        assert len(report.peaks) == 1
        assert abs(report.peaks[0].e_peak - 3.0) < 1e-3
        assert report.peaks[0].width_estimate == pytest.approx(0.12, rel=0.2)

    def test_monotone_data_empty(self):
        energies = np.linspace(1.0, 2.0, 50)
        delta = 0.3 * energies  # constant time delay, no peak
        table = ScanTable(energies=energies, columns={"delta": delta})
        assert find_resonances(table).peaks == ()

    def test_grid_refinement_stability(self):
        coarse = breit_wigner_table(step=0.02)
        fine = breit_wigner_table(step=0.01)
        pc = find_resonances(coarse).peaks[0].e_peak
        pf = find_resonances(fine).peaks[0].e_peak
        assert abs(pc - pf) < 0.02

    def test_peaks_sorted_and_interior(self):
        table = breit_wigner_table()
        for p in find_resonances(table).peaks:
            assert table.energies[0] < p.e_peak < table.energies[-1]


def oracle_quality(table, prominence=0.15):
    """find_resonances' quality values computed with scipy.signal.find_peaks."""
    tau = np.gradient(np.unwrap(table.columns["delta"], period=math.pi), table.energies)
    span = np.max(tau) - np.min(tau)
    _, props = scipy.signal.find_peaks(tau, prominence=prominence * span)
    return [float(p / span) for p in props["prominences"]]


class TestProminentPeaks:
    """The peak helper against scipy.signal.find_peaks as the oracle."""

    @staticmethod
    def signals():
        rng = np.random.default_rng(20240711)
        for _ in range(400):
            n = int(rng.integers(3, 80))
            yield rng.normal(size=n)
            yield rng.integers(0, 4, size=n).astype(float)  # plateaus everywhere
            yield np.repeat(rng.integers(-3, 4, size=n), rng.integers(1, 5, size=n)).astype(float)
            yield np.cumsum(rng.normal(size=n))
            with_nan = rng.normal(size=n)
            with_nan[rng.integers(0, n)] = math.nan  # the walk to a base stops at NaN
            yield with_nan
        yield np.array([5.0, 1.0, 2.0, 1.0, 5.0])  # maxima at both endpoints
        yield np.array([1.0, 3.0, 3.0, 3.0])  # a flat top that runs into the end
        yield np.array([0.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 2.0, 0.0])  # even and odd flat tops
        yield np.full(7, 2.5)
        yield np.linspace(0.0, 1.0, 9)
        yield np.linspace(1.0, 0.0, 9)
        yield np.array([1.0])
        yield np.array([1.0, 2.0])

    @staticmethod
    def assert_same(x, min_prominence):
        want, props = scipy.signal.find_peaks(x, prominence=min_prominence)
        got, prominences = _prominent_peaks(x, min_prominence)
        np.testing.assert_array_equal(got, want)
        assert prominences.tobytes() == props["prominences"].tobytes()

    def test_matches_find_peaks(self):
        for x in self.signals():
            for min_prominence in (0.0, 0.5, 1.0, 2.5):
                self.assert_same(x, min_prominence)

    def test_threshold_is_inclusive(self):
        x = np.array([0.0, 3.0, 1.0, 2.0, 0.5, 2.5, 0.0])
        _, prominences = _prominent_peaks(x, 0.0)
        for p in prominences:
            _, kept = _prominent_peaks(x, float(p))
            assert p in kept
            self.assert_same(x, float(p))

    def test_quality_is_prominence_over_span(self, barrier_calc):
        tables = [
            breit_wigner_table(),
            scan_smatrix(barrier_calc, np.linspace(0.5, 8.0, 301)),
        ]
        for table in tables:
            for prominence in (0.15, 0.01):
                got = [p.quality for p in find_resonances(table, prominence=prominence).peaks]
                assert got == oracle_quality(table, prominence)
                assert got


@pytest.fixture(scope="module")
def barrier_calc():
    pot = parse_potential("7.5*r^2*exp(-r)")
    spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=60), potential=pot)
    return ScatteringCalculator(spec)


class TestLocateResonances:
    def test_finds_barrier_resonance(self, barrier_calc):
        report = locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=150)
        assert len(report.peaks) == 1
        assert abs(report.peaks[0].e_peak - 3.426) < 5e-3
        assert report.peaks[0].quality > 0.5

    def test_refinement_consistency(self, barrier_calc):
        a = locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=100)
        b = locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=200)
        assert abs(a.peaks[0].e_peak - b.peaks[0].e_peak) < 1e-3

    def test_windows_reaching_threshold_start_at_e_min(self, barrier_calc):
        # refinement windows about the lowest candidates reach E <= 0 on
        # these ranges; each such window starts at e_min instead, and the
        # barrier resonance is the one found on a range that needs no such
        # window
        want = locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=100).positions()
        for e_min, e_max in ((0.02, 2.0), (0.01, 6.0)):
            found = locate_resonances(barrier_calc, e_min, e_max, coarse_steps=100).positions()
            assert np.all((found > e_min) & (found < e_max))
            if e_max > want[0]:
                assert np.min(np.abs(found - want[0])) < 1e-6

    def test_range_must_be_positive(self, barrier_calc):
        for e_min in (0.0, -1.0):
            with pytest.raises(InputError, match="0 < e_min < e_max"):
                locate_resonances(barrier_calc, e_min, 2.0, coarse_steps=20)

    def test_no_false_positives_in_free_case(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=30))
        report = locate_resonances(spec, 0.5, 4.0, coarse_steps=100)
        assert report.peaks == ()


class TestBoundStates:
    def test_free_particle_has_none(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=20))
        result = bound_states(spec)
        assert result.energies.size == 0

    def test_matches_negative_eigenvalues_exactly(self):
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        result = bound_states(spec)
        mats = build_matrices(spec)
        pair = gen_sym_eig(mats.h.data, mats.omega.data)
        np.testing.assert_array_equal(result.energies, pair.eps[pair.eps < 0])

    def test_scan_diverges_at_poles(self):
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=5.0, ell=0, size=5), potential=pot)
        result = bound_states(spec)
        # rescan on a grid that closes in on each pole
        probes = np.sort(
            np.concatenate([result.energies - 1e-7, result.energies + 1e-7, [-6.0, -3.0, -0.01]])
        )
        rescan = bound_states(spec, grid=probes)
        abs_g = rescan.scan.columns["abs_g"]
        dist = np.min(np.abs(rescan.scan.energies[:, None] - result.energies[None, :]), axis=1)
        background = np.nanmax(abs_g[dist > 0.1])
        for e0 in result.energies:
            near = np.abs(rescan.scan.energies - e0) < 1e-6
            assert np.nanmax(abs_g[near]) > 1e3 * background

    def test_abs_g_matches_linear_solve(self):
        # oracle: the last diagonal element of (H - E Omega)^-1 by a dense
        # solve, independent of the eigendecomposition
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        grid = np.linspace(-5.9, -0.05, 10)
        scan = bound_states(spec, grid=grid).scan
        assert scan.flagged == ()
        mats = build_matrices(spec)
        unit = np.zeros(mats.size)
        unit[-1] = 1.0
        for e, got in zip(grid, scan.columns["abs_g"]):
            want = abs(np.linalg.solve(mats.h.data - e * mats.omega.data, unit)[-1])
            assert got == pytest.approx(want, rel=1e-10)

    def test_exact_eigenvalue_flags_only_that_index(self):
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        pole = float(bound_states(spec).energies[0])
        grid = np.array([pole - 0.5, pole - 1e-3, pole, pole + 1e-3, pole + 0.5])
        scan = bound_states(spec, grid=grid).scan
        abs_g = scan.columns["abs_g"]
        assert scan.flagged == (2,)
        assert math.isnan(abs_g[2])
        assert np.all(np.isfinite(np.delete(abs_g, 2)))

    def test_batched_scan_flags_only_the_pole(self):
        # three batches plus one point, with an exact generalized
        # eigenvalue in the second batch
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        pole = float(bound_states(spec).energies[0])
        k = _BATCH_SIZE + _BATCH_SIZE // 2
        grid = pole + 0.005 * (np.arange(3 * _BATCH_SIZE + 1) - k)
        assert grid[k] == pole and grid[-1] < 0.0
        scan = bound_states(spec, grid=grid).scan
        abs_g = scan.columns["abs_g"]
        assert scan.flagged == (k,)
        assert math.isnan(abs_g[k])
        mats = build_matrices(spec)
        unit = np.zeros(mats.size)
        unit[-1] = 1.0
        for i, e in enumerate(grid):
            if i != k:
                want = abs(np.linalg.solve(mats.h.data - e * mats.omega.data, unit)[-1])
                assert abs_g[i] == pytest.approx(want, rel=1e-10)

    def test_scan_covers_spectrum(self):
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        result = bound_states(spec)
        assert result.scan.energies[0] < result.energies.min()
        assert result.scan.energies[-1] < 0.0


class TestDensityOfStates:
    def osc_spec(self, size=40, lam=0.45, pot="7.5*r^2*exp(-r)"):
        return SystemSpec(
            basis=BasisSpec("oscillator", lam=lam, ell=0, size=size),
            potential=parse_potential(pot) if pot else None,
        )

    def test_total_weight_is_one(self):
        grid = np.linspace(0.1, 6.0, 60)
        table = density_of_states(self.osc_spec(), grid)
        assert table.metadata["total_weight"] == pytest.approx(1.0, abs=1e-10)

    def test_smoothing_nonnegative(self):
        grid = np.linspace(0.1, 8.0, 200)
        table = density_of_states(self.osc_spec(), grid, method="smoothing")
        assert np.min(table.columns["rho"]) >= -1e-12

    def test_batched_grid(self):
        # a grid of more than two batches: the weight, the sign, and the
        # smoothing sum against its closed form from numpy's eigh
        spec = self.osc_spec(size=100)
        grid = np.linspace(0.05, 8.0, 2 * _BATCH_SIZE + 3)
        tables = {method: density_of_states(spec, grid, method=method) for method in ("smoothing", "continuation")}
        for table in tables.values():
            assert table.metadata["total_weight"] == pytest.approx(1.0, abs=1e-10)
            assert np.min(table.columns["rho"]) >= -1e-12
        poles, vecs = np.linalg.eigh(build_matrices(spec).h.data)
        smooth = tables["smoothing"]
        width = smooth.metadata["delta"]
        want = [np.sum(vecs[0] ** 2 * (width / math.pi) / ((poles - e) ** 2 + width**2)) for e in grid]
        np.testing.assert_allclose(smooth.columns["rho"], want, rtol=1e-9)

    def test_default_width_rule(self):
        grid = np.linspace(0.1, 6.0, 60)
        table = density_of_states(self.osc_spec(), grid)
        poles, _ = np.linalg.eigh(build_matrices(self.osc_spec()).h.data)
        want = default_smoothing_width(poles, 0.1, 6.0)
        assert table.metadata["delta"] == pytest.approx(want)

    def test_continuation_exact_fit_regime(self):
        # a size-8 system is a rational function of type (7/8): the fit
        # must recover it to round-off
        grid = np.linspace(0.3, 6.0, 120)
        table = density_of_states(self.osc_spec(size=8), grid, method="continuation", fit_order=8)
        assert table.metadata["fit_residual"] < 1e-10

    def test_smoothing_approaches_continuation_off_poles(self):
        spec = self.osc_spec(size=8)
        mats = build_matrices(spec)
        poles = np.linalg.eigvalsh(mats.h.data)
        grid = np.array(
            [e for e in np.linspace(0.3, 6.0, 300) if np.min(np.abs(poles - e)) > 0.35]
        )
        cont = density_of_states(spec, grid, method="continuation", fit_order=8)
        gaps = []
        for width in (0.1, 0.01, 0.001):
            smooth = density_of_states(spec, grid, method="smoothing", delta=width)
            gaps.append(np.max(np.abs(smooth.columns["rho"] - cont.columns["rho"])))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-3

    def test_fit_threshold_enforced(self):
        grid = np.linspace(0.3, 6.0, 120)
        with pytest.raises(FitResidualError) as err:
            density_of_states(
                self.osc_spec(size=60), grid, method="continuation", fit_order=6, fit_threshold=1e-12
            )
        assert err.value.residual > err.value.threshold

    def test_requires_oscillator_basis(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=10))
        with pytest.raises(InputError):
            density_of_states(spec, np.linspace(0.1, 2.0, 10))

    def test_point_on_a_pole_raises(self):
        # a positive width or contour height far below the pole rule puts
        # a grid point on a pole
        spec = self.osc_spec(size=20)
        pole = float(sym_eig(build_matrices(spec).h.data).eps[3])
        grid = np.array([pole - 0.1, pole, pole + 0.1])
        for kwargs in ({"method": "smoothing", "delta": 1e-300}, {"method": "continuation", "fit_height": 1e-300}):
            with pytest.raises(SpectrumEvaluationError) as err:
                density_of_states(spec, grid, **kwargs)
            assert err.value.pole == pole

    def test_unknown_method(self):
        with pytest.raises(InputError):
            density_of_states(self.osc_spec(), np.linspace(0.1, 2.0, 10), method="magic")

    def test_nonpositive_width_or_height_rejected(self):
        # a negative delta or fit_height would return -rho, and delta = 0
        # an all-zero rho off the poles
        grid = np.linspace(0.1, 2.0, 10)
        for name, method in (("delta", "smoothing"), ("fit_height", "continuation")):
            for value in (-0.1, 0.0, math.nan):
                with pytest.raises(InputError, match=name):
                    density_of_states(self.osc_spec(), grid, method=method, **{name: value})
