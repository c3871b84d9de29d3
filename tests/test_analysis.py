import copy
import math

import numpy as np
import pytest
import scipy.signal
import mpmath as mp

from resolvent_kit.analysis import (
    ScanTable,
    _prominent_peaks,
    _quadratic_refine,
    _solve_poles,
    _time_delay,
    bound_states,
    default_smoothing_width,
    density_of_states,
    find_resonances,
    locate_resonances,
    scan_smatrix,
)
from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
from resolvent_kit.errors import ConvergenceError, FitResidualError, InputError, SpectrumEvaluationError
from resolvent_kit.matrix_core import gen_sym_eig, sym_eig
from resolvent_kit.potential import parse_potential
from resolvent_kit.resolvent import _BATCH_SIZE, PartialFractions
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

    def test_empty_grid_raises(self, barrier_calc):
        with pytest.raises(InputError, match="empty grid"):
            scan_smatrix(barrier_calc, [])

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

    def test_report_keeps_its_scan(self):
        table = breit_wigner_table()
        assert find_resonances(table).scan is table
        flat = ScanTable(energies=np.linspace(1.0, 2.0, 50), columns={"delta": np.zeros(50)})
        assert find_resonances(flat).scan is flat


class TestQuadraticRefine:
    @staticmethod
    def peaked_triples(spacing):
        """Seeded (x, y) triples whose middle point is the highest, so
        the vertex lies inside the triple."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            x1 = rng.uniform(0.5, 8.0)
            h0, h2 = spacing(rng)
            x = np.array([x1 - h0, x1, x1 + h2])
            y = -rng.uniform(0.1, 10.0) * (x - rng.uniform(x[0], x[2])) ** 2 + rng.normal()
            if y[1] >= y[0] and y[1] >= y[2]:
                yield x, y

    def test_uneven_spacing_matches_polyfit_vertex(self):
        count = 0
        for x, y in self.peaked_triples(lambda rng: rng.uniform(1e-3, 0.5, 2)):
            a, b, _ = np.polyfit(x - x[1], y, 2)
            want = x[1] - 0.5 * b / a
            assert abs(_quadratic_refine(x, y, 1) - want) <= 1e-12 * (x[2] - x[0])
            count += 1
        assert count > 50

    def test_uniform_spacing_matches_midpoint_formula(self):
        def uniform_vertex(x, y):
            shift = 0.5 * (y[0] - y[2]) / (y[0] - 2.0 * y[1] + y[2])
            return x[1] + np.clip(shift, -1.0, 1.0) * 0.5 * (x[2] - x[0])

        for x, y in self.peaked_triples(lambda rng: (0.01, 0.01)):
            assert _quadratic_refine(x, y, 1) == pytest.approx(uniform_vertex(x, y), abs=4e-16 * x[2])

    def test_clipped_to_the_triple(self):
        # parabolas with their vertex at 0 and at 5, outside [1, 3]
        x = np.array([1.0, 1.1, 3.0])
        assert _quadratic_refine(x, -x**2, 1) == 1.0
        assert _quadratic_refine(x, -(x - 5.0) ** 2, 1) == 3.0

    def test_fallbacks(self):
        x = np.array([1.0, 1.5, 3.0])
        assert _quadratic_refine(x, np.array([1.0, 2.0, 1.5]), 0) == 1.0
        assert _quadratic_refine(x, np.array([1.0, 2.0, 1.5]), 2) == 3.0
        assert _quadratic_refine(x, np.full(3, 2.0), 1) == 1.5
        assert _quadratic_refine(x, np.array([1.0, np.nan, 1.5]), 1) == 1.5

    def test_rows_match_scalar_form(self):
        # each row has its own length n; points past it are padding
        rng = np.random.default_rng(5)
        rows, size = 200, 9
        x = np.sort(rng.uniform(0.5, 8.0, (rows, size)), axis=1)
        y = rng.normal(size=(rows, size))
        n = rng.integers(3, size + 1, rows)
        i = rng.integers(0, n)
        i[:20], i[20:40] = 0, n[20:40] - 1  # endpoints
        inner = np.flatnonzero((i > 0) & (i < n - 1))
        flat, bad = inner[:30], inner[30:60]
        y[flat, i[flat] + 1] = y[flat, i[flat] - 1] = y[flat, i[flat]]  # zero denominator
        y[bad, i[bad] + rng.integers(-1, 2, bad.size)] = rng.choice([np.nan, np.inf, -np.inf], bad.size)
        want = [_quadratic_refine(x[r, : n[r]], y[r, : n[r]], int(i[r])) for r in range(rows)]
        got = _quadratic_refine(x, y, i, n)
        assert got.tolist() == want
        assert np.sum(got == x[np.arange(rows), i]) > 60


class TestTimeDelay:
    @staticmethod
    def one_row(energies, deltas, min_points):
        good = np.isfinite(deltas)
        if good.sum() < min_points:
            return None
        d = np.unwrap(deltas[good], period=math.pi)
        return energies[good], d, np.gradient(d, energies[good])

    @staticmethod
    def windows(rng, rows, size=33):
        """Windows of wrapped phases, a third of them on exactly uniform
        grids, with NaN at the first, middle, last and random points."""
        start = rng.uniform(0.5, 5.0, (rows, 1))
        energies = start + np.sort(rng.uniform(0.0, 0.5, (rows, size)), axis=1)
        # multiples of 2^-8, exact in floating point; a spacing of 3 * 2^-8
        # makes the two gradient formulas round differently
        energies[::3] = np.round(start[::3] * 256.0) / 256.0 + 3.0 * 2.0**-8 * np.arange(size)
        deltas = 0.5 * np.angle(np.exp(2j * np.cumsum(rng.normal(0.0, 1.0, (rows, size)), axis=1)))
        for r in range(rows):
            holes = rng.choice([0, size // 2, size - 1, *rng.integers(0, size, 4)], rng.integers(0, 4), replace=False)
            deltas[r, holes] = np.nan
        deltas[1, 4:] = np.nan  # 4 finite points
        deltas[2, ::2] = np.nan
        deltas[4] = np.nan
        return energies, deltas

    @pytest.mark.parametrize("rows,min_points", [(60, 5), (60, 3), (1, 5)])
    def test_rows_match_unwrap_and_gradient(self, rows, min_points):
        energies, deltas = self.windows(np.random.default_rng(rows + min_points), max(rows, 5))
        energies, deltas = energies[:rows], deltas[:rows]
        x, d, tau, n = _time_delay(energies, deltas, min_points)
        for r in range(rows):
            want = self.one_row(energies[r], deltas[r], min_points)
            if want is None:
                assert n[r] == 0
            else:
                assert n[r] == want[0].size
                for got, expected in zip((x, d, tau), want):
                    assert (got[r, : n[r]] == expected).all()
            assert (tau[r, n[r] :] == -math.inf).all()

    def test_windows_cover_both_gradient_branches(self):
        energies, deltas = self.windows(np.random.default_rng(65), 60)
        spacings = [np.diff(e[np.isfinite(d)]) for e, d in zip(energies, deltas)]
        uniform = [(s == s[0]).all() for s in spacings if s.size]
        assert 5 < sum(uniform) < len(uniform) - 5
        assert np.isnan(deltas[:, [0, 16, 32]]).any(axis=0).all()


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
def two_gaussian_calc():
    pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
    spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=100), potential=pot)
    return ScatteringCalculator(spec)


@pytest.fixture(scope="module")
def p_wave_calc():
    pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
    spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=1, size=100), potential=pot, z_charge=1.0)
    return ScatteringCalculator(spec)


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
        # near threshold the lowest candidates start beside eigenvalues at
        # or below e_min; every pole reported still lies inside the range,
        # and the barrier resonance is the one found on a range away from
        # threshold
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

    def test_range_checked_before_build(self, monkeypatch):
        def build(spec):
            raise AssertionError("matrices built before the range check")

        monkeypatch.setattr("resolvent_kit.scattering.build_matrices", build)
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=10))
        with pytest.raises(InputError, match="0 < e_min < e_max"):
            locate_resonances(spec, 0.0, 2.0, coarse_steps=20)

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"coarse_steps": 0}, "coarse_steps"),
            ({"coarse_steps": -3}, "coarse_steps"),
        ],
    )
    def test_search_settings_checked_before_build(self, monkeypatch, settings, message):
        def build(spec):
            raise AssertionError("matrices built before the settings check")

        monkeypatch.setattr("resolvent_kit.scattering.build_matrices", build)
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=10))
        with pytest.raises(InputError, match=message):
            locate_resonances(spec, 0.5, 2.0, **settings)

    def test_report_scan_is_the_coarse_scan(self, barrier_calc):
        report = locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=100)
        want = scan_smatrix(barrier_calc, np.linspace(2.0, 5.0, 101))
        assert np.array_equal(report.scan.energies, want.energies)
        for name, col in want.columns.items():
            assert np.array_equal(report.scan.columns[name], col, equal_nan=True)
        assert report.scan.flagged == want.flagged

    def test_no_false_positives_in_free_case(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=30))
        report = locate_resonances(spec, 0.5, 4.0, coarse_steps=100)
        assert report.peaks == ()

    def test_one_s_batch_per_refinement_step(self, two_gaussian_calc, monkeypatch):
        calls = []
        real = two_gaussian_calc.s_values

        def s_values(energies):
            calls.append(len(energies))
            return real(energies)

        monkeypatch.setattr(two_gaussian_calc, "s_values", s_values)
        report = locate_resonances(two_gaussian_calc, 1.8, 5.2, coarse_steps=400)
        assert len(report.peaks) == 2
        # the coarse scan is the only S(E) batch: the pole search evaluates
        # the continued factors of S, not S on the real axis
        assert calls == [401]


def mp_pole(calc, start, dps=50):
    """The zero of D(E) = 1 + G J R_N(+) nearest ``start``, by mp.findroot
    at ``dps`` digits. Only G's poles and residues come from the code: J
    is the closed-form boundary element sqrt(N (N+2l+1)) (E + lam^2/8) of
    the Laguerre reference pencil, and R_N(+) is
    e^(-i theta) sqrt(N (N+2l+1)) / (c+N-1) F_(N+1) / F_N with
    F_n = 2F1(a, n; c+n-1; x) from mp.hyp2f1, a = -l + it, c = l + 2 + it,
    x = e^(-2i theta), e^(i theta) = (2k + i lam) / (2k - i lam) and
    t = Z / k."""
    basis = calc.system.basis
    ell, size = basis.ell, basis.size
    with mp.workdps(dps):
        lam, z_charge = mp.mpf(basis.lam), mp.mpf(calc.system.z_charge)
        weights = calc.pair.gamma[-1] ** 2 / calc.pair.sigma
        poles = [(mp.mpf(float(w)), mp.mpf(float(e))) for w, e in zip(weights, calc.pair.eps)]
        root = mp.sqrt(size * (size + 2 * ell + 1))

        def d(energy):
            k = mp.sqrt(2 * energy)
            phase = (2 * k - 1j * lam) / (2 * k + 1j * lam)  # e^(-i theta)
            a, c = -ell + 1j * z_charge / k, ell + 2 + 1j * z_charge / k
            ratio = mp.hyp2f1(a, size + 1, c + size, phase**2) / mp.hyp2f1(a, size, c + size - 1, phase**2)
            r_plus = phase * root / (c + size - 1) * ratio
            g = mp.fsum(w / (e - energy) for w, e in poles)
            return 1 + g * root * (energy + lam**2 / 8) * r_plus

        # the secant's two starts lie well within a width of each other
        starts = (mp.mpc(start), mp.mpc(start) + 1e-6 * abs(start.imag))
        return complex(mp.findroot(d, starts, tol=mp.mpf(10) ** -dps))


@pytest.fixture(scope="module")
def coulomb_calcs():
    """The three criterion-7 systems, with their search ranges."""
    pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
    cases = [(+1.0, 0, 0.15, 0.45), (-1.0, 0, 1.05, 1.45), (+1.0, 1, 1.45, 1.85)]
    return [
        (ScatteringCalculator(SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=ell, size=100),
                                         potential=pot, z_charge=z)), lo, hi)
        for z, ell, lo, hi in cases
    ]


def search_index(calc, e_min, e_max):
    """The eigenvalue indices ``locate_resonances`` seeds candidates at."""
    report = locate_resonances(calc, e_min, e_max, coarse_steps=1)
    return np.searchsorted(calc.eigenvalues, [c.seed for c in report.candidates])


def assert_same_pole(got, want, rtol):
    assert abs(got.real - want.real) <= rtol * abs(want.real)
    assert abs(got.imag - want.imag) <= rtol * abs(want.imag)


class TestPoleSearch:
    def test_poles_match_mpmath(self, two_gaussian_calc, coulomb_calcs):
        searches = [(two_gaussian_calc, 1.8, 5.2)] + coulomb_calcs
        checked = 0
        for calc, e_min, e_max in searches:
            report = locate_resonances(calc, e_min, e_max, coarse_steps=20)
            for c in report.candidates:
                if c.status == "accepted":
                    assert_same_pole(c.pole, mp_pole(calc, c.pole), 1e-10)
                    checked += 1
        assert checked == 5

    @pytest.mark.parametrize(
        "calc_name,e_min,e_max",
        [("two_gaussian_calc", 1.8, 5.2), ("p_wave_calc", 1.45, 1.85), ("barrier_calc", 0.2, 6.0)],
    )
    def test_candidates_solved_together_match_alone(self, request, calc_name, e_min, e_max):
        # every step evaluates each candidate's points on their own, so a
        # candidate solved with all others comes out exactly as alone
        calc = request.getfixturevalue(calc_name)
        index = search_index(calc, e_min, e_max)
        together = _solve_poles(calc, index)
        alone = [_solve_poles(calc, index[i : i + 1])[0] for i in range(index.size)]
        assert list(map(repr, together)) == list(map(repr, alone))
        assert index.size >= 4

    def test_residue_noise_moves_no_pole(self, two_gaussian_calc, barrier_calc, coulomb_calcs):
        # a resonance pole is a well-conditioned zero of D: relative noise of
        # 1e-14 in G's residues moves it by far less than 1e-10 relative
        rng = np.random.default_rng(5)
        searches = [(two_gaussian_calc, 1.8, 5.2), (barrier_calc, 2.0, 5.0)] + coulomb_calcs
        for calc, e_min, e_max in searches:
            want = locate_resonances(calc, e_min, e_max, coarse_steps=20).peaks
            noisy = copy.copy(calc)
            g = calc._g_last
            noise = 1.0 + 1e-14 * rng.uniform(-1.0, 1.0, g.coeffs.size)
            noisy._g_last = PartialFractions(poles=g.poles, coeffs=g.coeffs * noise, n=g.n, m=g.m)
            got = locate_resonances(noisy, e_min, e_max, coarse_steps=20).peaks
            assert len(got) == len(want) >= 1
            for p, q in zip(got, want):
                assert_same_pole(complex(p.e_peak, p.width_estimate), complex(q.e_peak, q.width_estimate), 1e-10)

    def test_level_cap_fails_only_its_candidate(self, coulomb_calcs, monkeypatch):
        calc, e_min, e_max = coulomb_calcs[0]
        want = locate_resonances(calc, e_min, e_max, coarse_steps=20)
        # the candidates nearest threshold need more continued-fraction
        # levels than this; the resonance's own need fewer
        monkeypatch.setattr("resolvent_kit.analysis._POLE_LEVELS", 50)
        got = locate_resonances(calc, e_min, e_max, coarse_steps=20)
        failed = [c for c in got.candidates if c.status == "continued-fraction failure"]
        assert failed and all(isinstance(c.error, ConvergenceError) for c in failed)
        assert "50 levels" in str(failed[0].error)
        assert got.peaks == want.peaks and len(got.peaks) == 1

    def test_continuum_poles_fail_the_rule(self, barrier_calc):
        # the barrier search that reported five continuum eigenvalues near
        # 0.3 - 1.0 as resonances: each has a pole there, of strength < 0.1
        report = locate_resonances(barrier_calc, 0.2, 6.0, coarse_steps=100)
        assert not np.any((report.positions() > 0.3) & (report.positions() < 0.99))
        low = [c for c in report.candidates if 0.3 < c.pole.real < 0.99]
        assert len(low) >= 5 and all(c.status == "rule" and c.strength < 0.1 for c in low)
        assert np.min(np.abs(report.positions() - 3.4276685800)) < 1e-9

    def test_candidates_span_the_range(self, barrier_calc):
        # one candidate per positive eigenvalue from the last <= e_min to
        # the first >= e_max
        ev = barrier_calc.eigenvalues
        report = locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=20)
        seeds = np.array([c.seed for c in report.candidates])
        assert seeds[0] == ev[ev <= 2.0].max() and seeds[-1] == ev[ev >= 5.0].min()
        assert np.array_equal(seeds, ev[(ev >= seeds[0]) & (ev <= seeds[-1])])

    def test_merged_candidates_count_once(self, barrier_calc, monkeypatch):
        want = locate_resonances(barrier_calc, 3.0, 4.0, coarse_steps=20)
        real = _solve_poles
        monkeypatch.setattr(
            "resolvent_kit.analysis._solve_poles", lambda calc, index: real(calc, np.concatenate([index, index]))
        )
        got = locate_resonances(barrier_calc, 3.0, 4.0, coarse_steps=20)
        half = len(want.candidates)
        assert list(map(repr, got.candidates[:half])) == list(map(repr, want.candidates))
        assert [c.status for c in got.candidates[half:]] == ["merged"] * half
        assert got.peaks == want.peaks and len(want.peaks) == 1


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

    def test_method_checked_before_build(self, monkeypatch):
        def build(spec):
            raise AssertionError("matrices built before the method check")

        monkeypatch.setattr("resolvent_kit.analysis.build_matrices", build)
        with pytest.raises(InputError, match="unknown DOS method 'magic'"):
            density_of_states(self.osc_spec(), np.linspace(0.1, 2.0, 10), method="magic")

    def test_nonpositive_width_or_height_rejected(self):
        # a negative delta or fit_height would return -rho, and delta = 0
        # an all-zero rho off the poles
        grid = np.linspace(0.1, 2.0, 10)
        for name, method in (("delta", "smoothing"), ("fit_height", "continuation")):
            for value in (-0.1, 0.0, math.nan):
                with pytest.raises(InputError, match=name):
                    density_of_states(self.osc_spec(), grid, method=method, **{name: value})
