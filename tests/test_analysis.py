import copy
import math

import numpy as np
import pytest
import mpmath as mp

from resolvent_kit import analysis, scattering
from resolvent_kit.analysis import (
    ScanTable,
    _solve_poles,
    bound_states,
    default_smoothing_width,
    density_of_states,
    locate_resonances,
    scan_smatrix,
)
from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
from resolvent_kit.errors import ConvergenceError, FitResidualError, InputError, SpectrumEvaluationError
from resolvent_kit.matrix_core import gen_sym_eigvals, sym_eig
from resolvent_kit.potential import parse_potential
from resolvent_kit.resolvent import _BATCH_SIZE, PartialFractions
from resolvent_kit.scattering import ScatteringCalculator

from conftest import PENCIL_EPS_TOL, mp_pencil_reference


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
        # the coarse scan seeds nothing: every grid gives the same poles
        reports = [locate_resonances(barrier_calc, 2.0, 5.0, coarse_steps=n) for n in (1, 100, 200)]
        for report in reports[1:]:
            assert repr(report.peaks) == repr(reports[0].peaks)
            assert list(map(repr, report.candidates)) == list(map(repr, reports[0].candidates))
        assert len(reports[0].peaks) == 1

    def test_ranges_reaching_threshold_report_poles_in_range(self, barrier_calc):
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

    def test_coarse_scan_is_built_on_first_read(self, two_gaussian_calc, monkeypatch):
        calls = []
        real = two_gaussian_calc.s_values

        def s_values(energies):
            calls.append(len(energies))
            return real(energies)

        monkeypatch.setattr(two_gaussian_calc, "s_values", s_values)
        report = locate_resonances(two_gaussian_calc, 1.8, 5.2, coarse_steps=400)
        assert len(report.peaks) == 2
        # the pole search evaluates the continued factors of S, never S on
        # the real axis; the coarse scan is one batch, on its first read
        assert calls == []
        table = report.scan
        assert calls == [401]
        assert report.scan is table and calls == [401]


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
        weights = calc.pair.gamma[-1] ** 2
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
    def test_poles_match_mpmath(self, two_gaussian_calc, barrier_calc, coulomb_calcs):
        # the barrier search is the README recipe's, with its narrow pole
        # and the two broad ones above the barrier top
        searches = [(two_gaussian_calc, 1.8, 5.2), (barrier_calc, 0.5, 8.0)] + coulomb_calcs
        checked = 0
        for calc, e_min, e_max in searches:
            report = locate_resonances(calc, e_min, e_max, coarse_steps=20)
            for c in report.candidates:
                if c.status == "accepted":
                    assert_same_pole(c.pole, mp_pole(calc, c.pole), 1e-10)
                    checked += 1
        assert checked == 8

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
        # the residue pass's seed, the one over mirrored kinematics, fails
        # at the two candidates nearest threshold as a level cap would fail
        # it; the Halley steps' seeds run as they are. A real cap cannot
        # pick out the residue pass: its fraction, through row 0, needs no
        # more levels than the steps' own
        real = scattering.seed_coefficients

        def seed_coefficients(kin, ell, n, max_levels, errors):
            r_plus = real(kin, ell, n, max_levels=max_levels, errors=errors)
            if kin.mirror is not None:
                for i in np.argsort(kin.energy.real[: kin.energy.size // 2])[:2]:
                    stage = f"R_{n}(+) at E={kin.energy[i]}, ell={ell}, t={kin.t[i]}"
                    errors.setdefault(int(i), scattering._cf_error(stage, max_levels, 0.5))
                    r_plus[i] = complex("nan")
            return r_plus

        monkeypatch.setattr(scattering, "seed_coefficients", seed_coefficients)
        got = locate_resonances(calc, e_min, e_max, coarse_steps=20)
        failed = [c for c in got.candidates if c.status == "continued-fraction failure"]
        assert failed and all(isinstance(c.error, ConvergenceError) for c in failed)
        assert "1000 levels" in str(failed[0].error)
        assert got.peaks == want.peaks and len(got.peaks) == 1
        # they fail in the residue pass: each keeps its pole, without a strength
        assert len(failed) == 2
        for c, d in zip(got.candidates, want.candidates):
            if c in failed:
                assert str(c.error).startswith(f"R_{calc.mats.size}(+) at E=")
                assert repr(c.pole) == repr(d.pole) and c.residual == d.residual and math.isnan(c.strength)

    def test_fraction_level_cap_fails_its_candidate(self, coulomb_calcs, monkeypatch):
        # below the 25 levels R_N(+)'s fraction needs at the start of the
        # candidate nearest threshold, that candidate fails in its Halley
        # steps, naming the fraction
        calc, e_min, e_max = coulomb_calcs[0]
        monkeypatch.setattr("resolvent_kit.analysis._POLE_LEVELS", 20)
        first = locate_resonances(calc, e_min, e_max, coarse_steps=20).candidates[0]
        assert first.status == "continued-fraction failure" and isinstance(first.error, ConvergenceError)
        assert str(first.error).startswith(f"R_{calc.mats.size}(+) at E=")
        assert str(first.error).endswith("continued fraction did not converge in 20 levels")
        assert math.isnan(first.strength)

    def test_pole_search_runs_one_recursion(self, p_wave_calc, monkeypatch):
        # the recursion runs once, for T and R_N(-) at every converged
        # candidate at once; the Halley steps take R_N(+) alone, and the
        # coarse scan is not built unless read
        calls = []
        real = scattering.cs_recursion

        def cs_recursion(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scattering, "cs_recursion", cs_recursion)
        report = locate_resonances(p_wave_calc, 1.45, 1.85, coarse_steps=20)
        assert len(calls) == 1
        assert len(report.peaks) == 1

    @pytest.mark.parametrize("calc_name,e_min,e_max", [("two_gaussian_calc", 1.8, 5.2), ("p_wave_calc", 1.45, 1.85)])
    def test_each_evaluation_takes_one_seed(self, request, monkeypatch, calc_name, e_min, e_max):
        # R_N(+) has one route at Z = 0 and Z != 0 alike: every
        # denominator_terms call makes one seed_coefficients call, and at
        # Z != 0 the residue pass's recursion one more, over mirrored
        # kinematics
        calc = request.getfixturevalue(calc_name)
        evaluations, mirrored = [], []
        real_terms, real_seed = calc.denominator_terms, scattering.seed_coefficients

        def denominator_terms(*args):
            evaluations.append(1)
            return real_terms(*args)

        def seed_coefficients(kin, *args, **kwargs):
            mirrored.append(kin.mirror is not None)
            return real_seed(kin, *args, **kwargs)

        monkeypatch.setattr(calc, "denominator_terms", denominator_terms)
        monkeypatch.setattr(scattering, "seed_coefficients", seed_coefficients)
        report = locate_resonances(calc, e_min, e_max, coarse_steps=20)
        assert report.peaks and evaluations
        assert mirrored.count(False) == len(evaluations)
        assert mirrored.count(True) == (calc.system.z_charge != 0.0)

    @pytest.mark.parametrize(
        "calc_name,e_min,e_max,most",
        [("two_gaussian_calc", 1.8, 5.2, 7), ("p_wave_calc", 1.45, 1.85, 7), ("barrier_calc", 0.5, 8.0, 6)],
    )
    def test_lockstep_evaluations(self, request, monkeypatch, calc_name, e_min, e_max, most):
        # one batch for the starts and one per Halley step, until the
        # slowest candidate converges; Newton's -f/f' took 10 batches on
        # each of these searches, for the 9 steps of its slowest candidates
        calc = request.getfixturevalue(calc_name)
        calls = []
        real = calc.denominator_terms

        def denominator_terms(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(calc, "denominator_terms", denominator_terms)
        report = locate_resonances(calc, e_min, e_max, coarse_steps=20)
        assert report.peaks and len(calls) <= most

    @pytest.mark.parametrize(
        "calc_name,e_min,e_max", [("two_gaussian_calc", 1.8, 5.2), ("p_wave_calc", 1.45, 1.85), ("barrier_calc", 0.5, 8.0)]
    )
    def test_g_evaluated_once_per_point(self, request, monkeypatch, calc_name, e_min, e_max):
        # the residue pass reads the split-off G of each candidate's last
        # Halley step: G is evaluated in the denominator_terms calls alone
        calc = request.getfixturevalue(calc_name)
        calls = {"green_last": 0, "denominator_terms": 0}
        for name in calls:

            def counted(*args, real=getattr(calc, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(calc, name, counted)
        report = locate_resonances(calc, e_min, e_max, coarse_steps=20)
        assert report.peaks and calls["green_last"] == calls["denominator_terms"] >= 2

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
        # the default scan starts at -6 when there is no bound state
        assert result.scan.energies.tobytes() == np.linspace(-6.0, -1e-3, 400).tobytes()

    def test_matches_negative_eigenvalues_exactly(self):
        # exactly the negative eigenvalues of the eigenvalue-only route, and
        # those within the pencil bound of the 40-digit mpmath solve
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        result = bound_states(spec)
        mats = build_matrices(spec)
        eps = gen_sym_eigvals(mats.h.data, mats.omega.data)
        np.testing.assert_array_equal(result.energies, eps[eps < 0])
        eps_ref, _ = mp_pencil_reference(mats.h.data, mats.omega.data)
        assert result.energies.size == np.count_nonzero(eps_ref < 0) == 2
        assert np.max(np.abs(result.energies - eps_ref[eps_ref < 0])) <= PENCIL_EPS_TOL * np.max(np.abs(eps_ref))

    def test_energies_form_no_eigenvectors(self, monkeypatch):
        # the energies come from the eigenvalue-only solve; the scan's
        # weights take one eigendecomposition, on its first read only
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        build_matrices(spec)  # the basis check's Gauss rules are cached from here on
        calls = []
        for owner, name in ((analysis, "gen_sym_eig"), (np.linalg, "eigh")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        result = bound_states(spec)
        assert result.energies.size == 2 and calls == []
        table = result.scan
        assert calls == ["gen_sym_eig", "eigh"]
        assert result.scan is table and calls == ["gen_sym_eig", "eigh"]

    def test_scan_poles_are_the_energies(self, monkeypatch):
        # the scan's G has the reported energies as its poles, bit for bit,
        # and every pole of the eigenvalue-only spectrum
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        seen = []
        real = PartialFractions.evaluate
        monkeypatch.setattr(PartialFractions, "evaluate", lambda self, *a: seen.append(self) or real(self, *a))
        result = bound_states(spec)
        result.scan
        (g,) = seen
        mats = build_matrices(spec)
        assert g.poles.tobytes() == gen_sym_eigvals(mats.h, mats.omega).tobytes()
        assert g.poles[g.poles < 0].tobytes() == result.energies.tobytes()
        on_energies = bound_states(spec, grid=result.energies).scan
        assert on_energies.flagged == (0, 1)

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

    @pytest.mark.parametrize("grid", [[], [-2.0, -3.0], [-2.0, -2.0]])
    def test_grid_checked_at_the_call(self, grid):
        # the scan is built later, but a grid it cannot take fails here
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15))
        with pytest.raises(InputError, match="grid"):
            bound_states(spec, grid=grid)

    def test_scan_covers_spectrum(self):
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=15), potential=pot)
        result = bound_states(spec)
        assert result.scan.energies[0] < result.energies.min()
        assert result.scan.energies[-1] < 0.0
        # the default grid: 400 points from 1.4 E_0 - 0.5 to -1e-3
        lowest = float(result.energies[0])
        assert result.scan.energies.tobytes() == np.linspace(1.4 * lowest - 0.5, -1e-3, 400).tobytes()


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

    @pytest.mark.parametrize("order", [2, 8])
    def test_continuation_needs_more_points_than_unknowns(self, order):
        # on 2 * order points the fit interpolates, so its residual is
        # round-off whatever rho is (rho reached -0.038 on 2 points); one
        # more point makes it a least-squares fit again
        spec = self.osc_spec(size=100)
        with pytest.raises(InputError, match=rf"needs at least {2 * order + 1} grid points, got {2 * order}$"):
            density_of_states(spec, np.linspace(0.05, 8.0, 2 * order), method="continuation", fit_order=order)
        table = density_of_states(spec, np.linspace(0.05, 8.0, 2 * order + 1), method="continuation", fit_order=order)
        assert table.size == 2 * order + 1 and table.metadata["fit_residual"] <= 5e-2

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

    def test_fit_threshold_not_finite_and_positive_rejected_before_build(self, monkeypatch):
        # a NaN threshold would switch the residual gate off, and a
        # nonpositive one would fail every fit as a numerical error
        def build(spec):
            raise AssertionError("matrices built before the fit_threshold check")

        monkeypatch.setattr("resolvent_kit.analysis.build_matrices", build)
        grid = np.linspace(0.3, 6.0, 120)
        for value in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(InputError, match="fit_threshold must be finite and positive"):
                density_of_states(self.osc_spec(size=60), grid, method="continuation", fit_threshold=value)

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
        # a negative delta or fit_height would return -rho, delta = 0 an
        # all-zero rho off the poles, and an infinite one an all-NaN rho
        grid = np.linspace(0.1, 2.0, 10)
        for name, method in (("delta", "smoothing"), ("fit_height", "continuation")):
            for value in (-0.1, 0.0, math.nan, math.inf):
                with pytest.raises(InputError, match=f"{name} must be finite and positive"):
                    density_of_states(self.osc_spec(), grid, method=method, **{name: value})
        # a fit of order below 1 has no terms to fit
        for value in (-2, 0):
            with pytest.raises(InputError, match=r"fit_order must be >= 1"):
                density_of_states(self.osc_spec(), grid, method="continuation", fit_order=value)
