import cmath
import functools
import math

import numpy as np
import pytest

from resolvent_kit import scattering
from resolvent_kit.analysis import locate_resonances
from resolvent_kit.basis import BasisSpec, MatrixSet, SystemSpec, build_matrices
from resolvent_kit.errors import ConvergenceError, InputError, NumericalError, RecursionBreakdownError
from resolvent_kit.potential import parse_potential
from resolvent_kit.scattering import (
    _CF_BLOCK,
    KinematicParams,
    ScatteringCalculator,
    _gauss_cf,
    cs_recursion,
    seed_coefficients,
)

import mpmath as mp


def no_errors(stage, *args, **kwargs):
    """``stage`` called with an error map, which must stay empty."""
    errors = {}
    result = stage(*args, errors=errors, **kwargs)
    assert errors == {}
    return result


def mp_green_boundary(calc, energy):
    """G J at ``energy`` in the current mpmath precision, from the double
    resolvent weights and boundary element of ``calc``."""
    weights = calc.pair.gamma[-1] ** 2
    g = mp.fsum(mp.mpf(float(w)) / (mp.mpf(float(e)) - energy) for w, e in zip(weights, calc.pair.eps))
    return g * mp.mpf(float(calc.mats.j_boundary(energy)))


def mpmath_s(calc, energy, dps=40):
    """S(E) from mpmath seeds and an mpmath recursion, fed the double
    kinematics, J rows and resolvent weights of ``calc``."""
    with mp.workdps(dps):
        basis = calc.system.basis
        ell = basis.ell
        kin = KinematicParams.for_system(energy, basis.lam, calc.system.z_charge)
        theta, it = mp.mpf(float(kin.theta)), 1j * mp.mpf(float(kin.t))
        x = mp.expj(-2 * theta)
        f = mp.hyp2f1(-ell + it, 1, ell + 2 + it, x)
        f2 = mp.hyp2f1(-ell + it, 2, ell + 3 + it, x)
        t = mp.expj(2 * theta) * (ell + 1 + it) * mp.conj(f) / ((ell + 1 - it) * f)
        r = mp.expj(-theta) * mp.sqrt(2 * ell + 2) * f2 / ((ell + 2 + it) * f)
        diag, off = (np.asarray(v, dtype=float).tolist() for v in calc.mats.j_tridiagonal(energy))
        for n in range(1, calc.mats.size):
            t = t * mp.conj(r) / r
            r = -(mp.mpf(diag[n]) + mp.mpf(off[n - 1]) / r) / mp.mpf(off[n])
        gj = mp_green_boundary(calc, energy)
        return complex(t * (1 + gj * mp.conj(r)) / (1 + gj * r))


def hyp2f1_b1(a, c, x, tol=1e-15, max_levels=10**6):
    """2F1(a, 1; c; x) = sum_k (a)_k / (c)_k x^k: ``_gauss_cf`` at alpha = 0
    and gamma = c - 1, whose denominator F(0, a; c - 1; x) is 1. A fraction
    still active at the level cap raises the ConvergenceError of
    ``_cf_error``, as the seeds and the pole search do."""
    values, failed, last_delta = _gauss_cf(
        np.zeros(1), np.array([a], dtype=complex), np.array([c - 1.0], dtype=complex), np.array([x], dtype=complex),
        tol, max_levels,
    )
    if failed.size:
        raise scattering._cf_error(f"2F1(a, 1; c; x) at a={a}, c={c}, x={x}", max_levels, last_delta[0])
    return complex(values[0])


class TestHyp2F1:
    """2F1(a, 1; c; x), the value of the Gauss continued fraction at
    alpha = 0."""

    def test_at_origin(self):
        assert hyp2f1_b1(0.3 + 0.1j, 2.0, 0.0) == pytest.approx(1.0)

    def test_zero_a(self):
        assert hyp2f1_b1(0.0, 2.7, 0.8j) == pytest.approx(1.0)

    def test_terminating_linear(self):
        # a = -1: series is 1 - x/c exactly
        for c, x in ((2.0, 0.5), (3.0 + 1.0j, cmath.exp(0.7j))):
            assert hyp2f1_b1(-1.0, c, x) == pytest.approx(1.0 - x / c, rel=1e-14)

    def test_terminating_quadratic(self):
        a, c, x = -2.0, 4.0, cmath.exp(1.1j)
        want = 1.0 + a / c * x + a * (a + 1.0) / (c * (c + 1.0)) * x**2
        assert hyp2f1_b1(a, c, x) == pytest.approx(want, rel=1e-14)

    def test_against_mpmath_on_unit_circle(self):
        mp.mp.dps = 25
        cases = [
            (0.5j, 2.0 + 0.5j, cmath.exp(2.2j)),
            (-1.0 + 0.8j, 3.0 + 0.8j, cmath.exp(-0.9j)),
            (-0.3j, 2.0 - 0.3j, cmath.exp(-2.8j)),
        ]
        for a, c, x in cases:
            got = hyp2f1_b1(a, c, x, tol=1e-12)
            want = complex(mp.hyp2f1(a, 1, c, x))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_stability_under_tighter_tolerance(self):
        a, c, x = 0.7j, 2.0 + 0.7j, cmath.exp(1.9j)
        loose = hyp2f1_b1(a, c, x, tol=1e-8)
        tight = hyp2f1_b1(a, c, x, tol=1e-11)
        assert abs(loose - tight) < 1e-7

    def test_stable_under_doubled_term_budget(self):
        # once the tail bound stops the sum, a bigger budget changes nothing
        a, c, x = 0.4j, 2.0 + 0.4j, cmath.exp(-2.1j)
        assert hyp2f1_b1(a, c, x) == hyp2f1_b1(a, c, x, max_levels=2 * 10**6)

    def test_slow_corner_raises(self):
        # x exponentially close to 1 needs ~7e4 continued-fraction levels;
        # a smaller cap must surface as an error, not an extrapolation
        with pytest.raises(ConvergenceError) as err:
            hyp2f1_b1(0.5j, 2.0 + 0.5j, cmath.exp(1e-8j), tol=1e-12, max_levels=10**3)
        assert err.value.diagnostics["levels"] == 10**3

    def test_terminating_through_lentz_guard(self):
        # 2F1(-4, 1; 2; 1) = 1 - 2 + 2 - 1 + 1/5; the fraction's level-1
        # 1 + a d is exactly 0, so only the Lentz guard carries it on
        assert abs(hyp2f1_b1(-4.0, 2.0, 1.0) - 0.2) <= 1e-15


def gauss_cf_reference(alpha, beta, gamma, z, tol, max_levels):
    """``_gauss_cf`` one level at a time, with the Lentz guard at every
    level: the reference its blocked evaluation must match bit for bit."""
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


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def cf_batch(seed, size=240):
    """Seeded fractions as their callers pose them: alpha = 0
    (``hyp2f1_b1``'s 2F1(a, 1; c; x), gamma = c - 1) and alpha = n = 1 or
    n = N (R_n(+), gamma = c + n - 1), with c = ell + 2 + it, at real and
    complex energies of one Coulomb system."""
    rng = np.random.default_rng(seed)
    energy = np.geomspace(0.05, 20.0, size) - 1j * rng.uniform(0.0, 0.4, size) * (rng.random(size) < 0.5)
    lam, z_charge = 20.0, float(rng.choice([-1.0, 1.0]))
    ell, n = int(rng.integers(0, 3)), int(rng.choice([15, 100]))
    k = np.sqrt(2.0 * energy)
    it = 1j * z_charge / k
    alpha = rng.choice([0.0, 1.0, float(n)], size)
    gamma = ell + 1.0 + np.where(alpha == 0.0, 0.0, np.where(alpha == 1.0, 1.0, float(n))) + it
    return alpha, -ell + it, gamma, ((2.0 * k - 1j * lam) / (2.0 * k + 1j * lam)) ** 2


class TestBlockedGaussCF:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_levels", [0, 1, 7, _CF_BLOCK, _CF_BLOCK + 1, 60, 10**6])
    def test_matches_level_by_level(self, seed, max_levels):
        # the batch, and elements alone: a cap of B + 1 leaves one element
        # a last block of one level, where a 2-D product would round apart
        args = cf_batch(seed)
        assert_same_bytes(_gauss_cf(*args, 1e-15, max_levels), gauss_cf_reference(*args, 1e-15, max_levels))
        for i in range(0, 240, 30):
            single = [v[i : i + 1] for v in args]
            assert_same_bytes(_gauss_cf(*single, 1e-15, max_levels), gauss_cf_reference(*single, 1e-15, max_levels))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batches_stop_on_both_sides_of_a_block_boundary(self, seed):
        # some elements stop inside the first block, some at the last level
        # of the second and some at the first level of the third, and some
        # run on past it, so the comparisons above cover each case
        args = cf_batch(seed)

        def still_active(levels):
            return gauss_cf_reference(*args, 1e-15, levels)[1].size

        end = 2 * _CF_BLOCK
        assert still_active(_CF_BLOCK) < args[0].size
        assert still_active(end - 1) > still_active(end) > still_active(end + 1) > 0

    def test_guarded_and_non_finite_elements_in_a_batch(self):
        # a terminating fraction whose level-1 1 + a d is exactly 0 (the
        # Lentz guard) and one whose k_1 is infinite (gamma = 0, never
        # converging), inside a seeded batch whose other elements stay exact
        alpha, beta, gamma, z = cf_batch(3, size=40)
        alpha, beta, gamma, z = (np.insert(v, [5, 21], extra) for v, extra in (
            (alpha, [0.0, 0.0]), (beta, [-4.0, 0.5j]), (gamma, [1.0, 0.0]), (z, [1.0, 0.5])
        ))
        for max_levels in (1, 2, _CF_BLOCK + 1, 60):
            with np.errstate(all="ignore"):
                want = gauss_cf_reference(alpha, beta, gamma, z, 1e-15, max_levels)
                got = _gauss_cf(alpha, beta, gamma, z, 1e-15, max_levels)
            assert_same_bytes(got, want)
        values, failed, last_delta = got
        assert abs(values[5] - 0.2) <= 1e-15
        assert np.isnan(last_delta[failed == 22]).all() and 22 in failed


class TestKinematics:
    def test_angle_relation(self):
        kin = KinematicParams.for_system(2.0, 1.0, 0.0)
        assert math.cos(kin.theta) == pytest.approx((16.0 - 1.0) / (16.0 + 1.0))
        assert kin.t == 0.0

    def test_right_angle_when_8e_equals_lam_sq(self):
        kin = KinematicParams.for_system(0.125, 1.0, 0.0)
        assert kin.theta == pytest.approx(math.pi / 2)

    def test_coulomb_strength(self):
        kin = KinematicParams.for_system(0.5, 1.0, -1.0)
        assert kin.t == pytest.approx(-1.0)

    def test_needs_positive_energy(self):
        with pytest.raises(InputError):
            KinematicParams.for_system(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("energy", [math.inf, math.nan])
    def test_needs_finite_energy(self, energy):
        with pytest.raises(InputError, match="must be positive and finite"):
            KinematicParams.for_system([1.0, energy], 1.0, 0.0)


@functools.lru_cache(maxsize=None)
def two_function_pencil(lam, ell, z_charge):
    """A two-function Laguerre system: its rows 0 and 1 are those of
    every basis size."""
    return build_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=2), z_charge=z_charge))


def seeds(kin, lam, ell, z_charge):
    """T_0, the final T of the recursion to up_to = 1 (its row 0 at
    Z != 0, the closed form at Z = 0), and the R_1(+) of
    ``seed_coefficients``."""
    t0 = no_errors(cs_recursion, two_function_pencil(lam, ell, z_charge), kin, up_to=1).t
    return t0, no_errors(seed_coefficients, kin, ell, 1)


class TestSeeds:
    def test_neutral_s_wave_closed_form(self):
        # ell = 0, Z = 0: both hypergeometric factors are 1, so
        # T_0 = e^(2 i theta) and R_1(+) = e^(-i theta)/sqrt(2)
        kin = KinematicParams.for_system(1.3, 1.0, 0.0)
        t0, r1p = seeds(kin, 1.0, 0, 0.0)
        assert t0 == pytest.approx(cmath.exp(2j * kin.theta), rel=1e-12)
        assert r1p == pytest.approx(cmath.exp(-1j * kin.theta) / math.sqrt(2.0), rel=1e-12)

    def test_right_angle_s_wave(self):
        # 8E = lam^2: theta = pi/2 and T_0 = e^(i pi) = -1
        kin = KinematicParams.for_system(0.125, 1.0, 0.0)
        t0, _ = seeds(kin, 1.0, 0, 0.0)
        assert t0 == pytest.approx(-1.0, abs=1e-12)

    def test_unimodular_with_coulomb(self):
        kin = KinematicParams.for_system(0.5, 1.0, 1.0)
        t0, r1p = seeds(kin, 1.0, 1, 1.0)
        assert abs(t0) == pytest.approx(1.0, abs=1e-10)
        assert r1p.imag != 0.0

    def test_higher_ell_terminating(self):
        # Z = 0 keeps the series terminating for any ell
        kin = KinematicParams.for_system(2.3, 1.7, 0.0)
        t0, r1p = seeds(kin, 1.7, 2, 0.0)
        assert abs(t0) == pytest.approx(1.0, abs=1e-12)

    def test_against_mpmath_sweep(self):
        # T_0 and R_1(+) from their defining hypergeometric values, with
        # mpmath fed the same double-precision kinematics
        mp.mp.dps = 20
        worst = 0.0
        for energy in np.geomspace(1e-3, 50.0, 8):
            for lam in (1.0, 20.0):
                for z_charge in (-1.0, 0.0, 1.0):
                    kin = KinematicParams.for_system(float(energy), lam, z_charge)
                    it = 1j * mp.mpf(kin.t)
                    x = mp.expj(-2 * mp.mpf(kin.theta))
                    for ell in (0, 1, 2):
                        f_minus = mp.hyp2f1(-ell + it, 1, ell + 2 + it, x)
                        f_plus = mp.hyp2f1(-ell - it, 1, ell + 2 - it, mp.conj(x))
                        f2 = mp.hyp2f1(-ell + it, 2, ell + 3 + it, x)
                        want_t0 = complex(
                            mp.expj(2 * mp.mpf(kin.theta)) * (ell + 1 + it) * f_plus
                            / ((ell + 1 - it) * f_minus)
                        )
                        want_r1 = complex(
                            mp.expj(-mp.mpf(kin.theta)) * mp.sqrt(2 * ell + 2) * f2
                            / ((ell + 2 + it) * f_minus)
                        )
                        t0, r1p = seeds(kin, lam, ell, z_charge)
                        worst = max(
                            worst,
                            abs(t0 - want_t0) / abs(want_t0),
                            abs(r1p - want_r1) / abs(want_r1),
                        )
        assert worst <= 1e-12

    def test_level_cap_names_stage(self):
        kin = KinematicParams.for_system(0.05, 20.0, 1.0)
        errors = {}
        assert np.isnan(seed_coefficients(kin, 0, 1, max_levels=5, errors=errors))
        assert list(errors) == [0] and type(errors[0]) is ConvergenceError
        msg = str(errors[0])
        assert msg.startswith("R_1(+) at E=0.05, ell=0")
        assert "continued fraction did not converge in 5 levels" in msg
        assert errors[0].diagnostics["levels"] == 5
        assert errors[0].diagnostics["last_delta"] > 0.0

    def test_level_cap_in_batch_matches_single(self):
        # a cap of 50 levels fails the three lowest energies of this batch;
        # each failure carries the ConvergenceError of the one-energy call,
        # and the converged elements equal their one-energy values
        energies = np.geomspace(0.05, 5.0, 9)
        errors = {}
        r1p = seed_coefficients(
            KinematicParams.for_system(energies, 20.0, 1.0), 0, 1, max_levels=50, errors=errors
        )
        assert sorted(errors) == [0, 1, 2]
        for i, energy in enumerate(energies):
            single = KinematicParams.for_system(energy, 20.0, 1.0)
            single_errors = {}
            value = seed_coefficients(single, 0, 1, max_levels=50, errors=single_errors)
            if i in errors:
                assert list(single_errors) == [0] and type(errors[i]) is type(single_errors[0]) is ConvergenceError
                assert str(errors[i]) == str(single_errors[0])
                assert errors[i].diagnostics == single_errors[0].diagnostics
                assert np.isnan(r1p[i]) and np.isnan(value)
            else:
                assert single_errors == {} and value == r1p[i]


class TestRecursion:
    def free_mats(self, size=20, ell=0, lam=1.0, z_charge=0.0):
        return build_matrices(
            SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=size), z_charge=z_charge)
        )

    def test_neutral_s_wave_closed_form(self):
        # for Z = 0, ell = 0 the coefficient ratios are exactly
        # R_n(+) = e^(-i theta) sqrt(n/(n+1)) and T_n = e^(2 i (n+1) theta);
        # the recursion to up_to = n ends at R_n(+) and T_(n-1)
        mats = self.free_mats()
        kin = KinematicParams.for_system(0.9, 1.0, 0.0)
        for n in range(1, 14):
            cs = no_errors(cs_recursion, mats, kin, up_to=n)
            if n <= 12:
                want_r = cmath.exp(-1j * kin.theta) * math.sqrt(n / (n + 1.0))
                assert cs.r_plus == pytest.approx(want_r, rel=1e-10)
            want_t = cmath.exp(2j * n * kin.theta)
            assert cs.t == pytest.approx(want_t, rel=1e-9)

    def test_unimodular_t(self):
        # T_0 .. T_30 as the final T of recursions to up_to = 1 .. 31; the
        # reference pencil does not depend on the basis size, so size 31
        # gives the same T_n as size 30
        pot = parse_potential("7.5*r^2*exp(-r)")
        mats = build_matrices(
            SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=1, size=31), potential=pot)
        )
        kin = KinematicParams.for_system(1.7, 1.0, 0.0)
        t = [no_errors(cs_recursion, mats, kin, up_to=n).t for n in range(1, 32)]
        np.testing.assert_allclose(np.abs(t), 1.0, atol=1e-8)

    def test_minus_branch_matches_conjugate(self):
        # propagate R_n(-) explicitly from conj(R_1(+)) through the rows of
        # J beside R_n(+), upward from T_0, which is accurate at these
        # energies, and build S from both branches; the calculator carries
        # only the plus branch, downward from R_N(+) through row 0
        pot = parse_potential("7.5*r^2*exp(-r)")
        for z_charge in (0.0, 1.0):
            spec = SystemSpec(
                basis=BasisSpec("laguerre", lam=1.0, ell=1, size=30), potential=pot, z_charge=z_charge
            )
            calc = ScatteringCalculator(spec)
            size = calc.mats.size
            for energy in (0.4, 1.1, 3.7):
                kin = KinematicParams.for_system(energy, 1.0, z_charge)
                t, r_plus = (complex(v) for v in seeds(kin, 1.0, 1, z_charge))
                r_minus = r_plus.conjugate()
                diag, off = calc.mats.j_tridiagonal(energy)
                for n in range(1, size):
                    t *= r_minus / r_plus
                    r_plus = -(diag[n] + off[n - 1] / r_plus) / off[n]
                    r_minus = -(diag[n] + off[n - 1] / r_minus) / off[n]
                gj = no_errors(calc.green_last, np.array([energy]))[0] * calc.mats.j_boundary(energy)
                s = t * (1.0 + gj * r_minus) / (1.0 + gj * r_plus)
                assert abs(calc.point(energy).s - s) <= 1e-13 * abs(s)

    def test_recursion_residual(self):
        # rebuild h_n = prod R_k(+) and check it solves the tridiagonal
        # rows J h = 0 for n >= 1
        mats = self.free_mats(size=18)
        kin = KinematicParams.for_system(1.4, 1.0, 0.0)
        up_to = 15
        h = np.ones(up_to + 1, dtype=complex)
        for n in range(1, up_to + 1):
            h[n] = h[n - 1] * no_errors(cs_recursion, mats, kin, up_to=n).r_plus
        diag, off = mats.j_tridiagonal(kin.energy)
        for n in range(1, up_to):
            resid = off[n - 1] * h[n - 1] + diag[n] * h[n] + off[n] * h[n + 1]
            scale = max(abs(off[n - 1] * h[n - 1]), abs(diag[n] * h[n]), 1e-30)
            assert abs(resid) / scale < 1e-8

    @pytest.mark.parametrize(
        "band, row, value, message, index",
        [(1, 4, 0.0, "recursion breakdown at n=5: vanishing coupling", 5),
         (0, 3, math.inf, "recursion breakdown at n=3: vanishing ratio", 3)],
    )
    def test_breakdown_fails_only_its_energy(self, monkeypatch, band, row, value, message, index):
        # cut the coupling J_(4,5), the numerator of R_5, or make J_33
        # infinite and so R_3 zero, at the middle energy of three only; the
        # recursion runs down from n = 12, so it meets row 5 or row 3 first.
        # On Coulomb systems, because only Z != 0 runs the recursion
        # through the rows of J
        build = MatrixSet.j_tridiagonal

        def broken(self, energy):
            bands = [np.array(v) for v in build(self, energy)]
            bands[band][row, 1] = value
            return tuple(bands)

        cases = []
        for z_charge in (-1.0, 1.0):
            mats = self.free_mats(size=12, z_charge=z_charge)
            kin = KinematicParams.for_system(np.array([0.5, 1.0, 1.5]), 1.0, z_charge)
            cases.append((mats, kin, no_errors(cs_recursion, mats, kin, up_to=12)))
        monkeypatch.setattr(MatrixSet, "j_tridiagonal", broken)
        for mats, kin, clean in cases:
            errors = {}
            cs = cs_recursion(mats, kin, up_to=12, errors=errors)
            assert list(errors) == [1] and type(errors[1]) is RecursionBreakdownError
            assert str(errors[1]) == message and errors[1].index == index
            assert np.isnan(cs.t[1]) and np.isnan(cs.r_plus[1])
            for i in (0, 2):
                assert cs.t[i] == clean.t[i] and cs.r_plus[i] == clean.r_plus[i]

    def test_exceeding_basis_rejected(self):
        mats = self.free_mats(size=10)
        kin = KinematicParams.for_system(1.0, 1.0, 0.0)
        with pytest.raises(InputError):
            cs_recursion(mats, kin, up_to=11, errors={})


def closed_form_reference(energy, lam, ell, n, dps=50):
    """T_(n-1) and R_n(+) of a neutral system from their closed forms,
    with F_n = 2F1(-ell, n; ell+n+1; e^(-2i theta)) by mp.hyp2f1 and theta
    from E at ``dps`` digits; it reads neither the J rows nor the double
    kinematics."""
    with mp.workdps(dps):
        theta = 2 * mp.atan2(lam, mp.sqrt(8 * mp.mpf(energy)))
        x = mp.expj(-2 * theta)
        f_n = mp.hyp2f1(-ell, n, ell + n + 1, x)
        f_next = mp.hyp2f1(-ell, n + 1, ell + n + 2, x)
        t = mp.expj(2 * n * theta) * mp.conj(f_n) / f_n
        r = mp.expj(-theta) * mp.sqrt(n * (n + 2 * ell + 1)) / (ell + n + 1) * f_next / f_n
        return complex(t), complex(r)


@functools.lru_cache(maxsize=None)
def coulomb_hypergeometric(energy, lam, z_charge, ell, n):
    """(e^(-i theta), it, F_n) at a real or complex energy, with
    F_n = 2F1(a, n; c+n-1; x) by 30-digit mp.hyp2f1, a = -ell + it,
    c = ell + 2 + it, x = e^(-2i theta), e^(i theta) = (2k + i lam) /
    (2k - i lam), k = sqrt(2E) on its principal branch and t = Z / k.
    Cached, so that tests sharing a point share its mp.hyp2f1 calls."""
    with mp.workdps(30):
        k = mp.sqrt(2 * mp.mpc(energy))
        phase = (2 * k - 1j * lam) / (2 * k + 1j * lam)
        it = 1j * z_charge / k
        return phase, it, mp.hyp2f1(-ell + it, n, ell + 1 + n + it, phase**2)


def coulomb_reference(energy, lam, z_charge, ell, n):
    """T_(n-1) and R_n(+) of a Coulomb system (Z != 0) at a real or complex
    energy E, from the F_n of ``coulomb_hypergeometric``:

        R_n(+)  = e^(-i theta) sqrt(n (n+2ell+1)) / (c+n-1) F_(n+1) / F_n
        T_(n-1) = e^(2in theta) prod_(k=0..n-1) (ell+1+k+it) / (ell+1+k-it) conj(F_n(conj E)) / F_n

    T's conj(F_n(conj E)) is conj(F_n) at real E, and its analytic
    continuation off the axis. It reads neither the J rows nor the double
    kinematics."""
    with mp.workdps(30):
        phase, it, f_n = coulomb_hypergeometric(energy, lam, z_charge, ell, n)
        f_next = coulomb_hypergeometric(energy, lam, z_charge, ell, n + 1)[2]
        f_mirror = coulomb_hypergeometric(complex(energy).conjugate(), lam, z_charge, ell, n)[2]
        r = phase * mp.sqrt(n * (n + 2 * ell + 1)) / (ell + 1 + n + it) * f_next / f_n
        product = mp.fprod((ell + 1 + j + it) / (ell + 1 + j - it) for j in range(n))
        return complex(phase ** (-2 * n) * product * mp.conj(f_mirror) / f_n), complex(r)


def closed_form_s(calc, energy, dps=50):
    """S(E) of a neutral system from ``closed_form_reference`` and the
    resolvent weights of ``calc``; no J rows, no double kinematics."""
    basis = calc.system.basis
    t, r = closed_form_reference(energy, basis.lam, basis.ell, calc.mats.size, dps)
    with mp.workdps(dps):
        t, r, gj = mp.mpc(t), mp.mpc(r), mp_green_boundary(calc, energy)
        return complex(t * (1 + gj * mp.conj(r)) / (1 + gj * r))


class TestNeutralClosedForm:
    """cs_recursion at Z = 0 against the 50-digit closed forms."""

    def worst_error(self, energies, lams, ells, sizes):
        worst = 0.0
        for lam in lams:
            for ell in ells:
                mats = build_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=max(sizes))))
                kin = KinematicParams.for_system(energies, lam, 0.0)
                for n in sizes:
                    cs = no_errors(cs_recursion, mats, kin, up_to=n)
                    for i, energy in enumerate(energies):
                        want_t, want_r = closed_form_reference(float(energy), lam, ell, n)
                        worst = max(
                            worst, abs(cs.t[i] - want_t) / abs(want_t), abs(cs.r_plus[i] - want_r) / abs(want_r)
                        )
        return worst

    def test_against_mpmath(self):
        # worst seen 1e-13, in T; the double-precision recursion this
        # replaces misses the bound by far (9e-7 at lam = 20, ell = 3,
        # n = 120, E = 0.014)
        worst = self.worst_error(np.geomspace(1e-3, 50.0), (1.0, 5.0, 20.0), range(4), (2, 15, 60, 120))
        assert worst <= 1e-10

    @pytest.mark.slow
    def test_against_mpmath_wide(self):
        # past the grid above in ell, n and lam; worst seen 3e-13, at
        # lam = 0.5, ell = 6, n = 250
        worst = self.worst_error(
            np.geomspace(1e-3, 50.0, 31), (0.5, 1.0, 5.0, 20.0, 40.0), range(4, 7), (2, 60, 250)
        )
        assert worst <= 1e-10

    def test_s_against_mpmath(self):
        # S on the calculator's own resolvent element, so this bounds the
        # reference coefficients and the S assembly; worst seen 9e-14,
        # where the recursion reached 1e-11 (lam = 20, ell = 2)
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        energies = np.geomspace(1e-3, 50.0, 25)
        worst = 0.0
        for lam in (1.0, 20.0):
            for ell, size in ((0, 100), (1, 90), (2, 80)):
                calc = ScatteringCalculator(
                    SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=size), potential=pot)
                )
                s, errors = calc.s_values(energies)
                assert errors == {}
                for got, energy in zip(s, energies):
                    want = closed_form_s(calc, float(energy))
                    worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-10

    def test_non_finite_fails_only_its_energy(self):
        # no positive energy makes the closed form non-finite, so a NaN
        # angle at the middle energy of three stands in for one
        mats = build_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=2, size=12)))
        kin = KinematicParams.for_system(np.array([0.5, 1.0, 1.5]), 1.0, 0.0)
        broken = KinematicParams(kin.energy, np.where([False, True, False], np.nan, kin.theta), kin.t)
        clean = no_errors(cs_recursion, mats, kin, up_to=12)
        errors = {}
        cs = cs_recursion(mats, broken, up_to=12, errors=errors)
        assert list(errors) == [1] and type(errors[1]) is NumericalError
        assert str(errors[1]).startswith("closed form at E=1.0, ell=2: non-finite T_11 = ")
        assert np.isnan(cs.t[1]) and np.isnan(cs.r_plus[1])
        for i in (0, 2):
            assert cs.t[i] == clean.t[i] and cs.r_plus[i] == clean.r_plus[i]

    def test_first_index_is_the_seed(self):
        # the closed forms at n = 1 against the R_1(+) fraction, and against
        # the T_0 that row 0 of J gives from it, R_0 = 1 / (J_00 + J_01 R_1)
        # and T_0 = conj(R_0) / R_0, as the Coulomb recursion closes
        energies = np.geomspace(1e-3, 50.0, 25)
        for lam in (1.0, 5.0, 20.0):
            for ell in range(4):
                mats = build_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=4)))
                kin = KinematicParams.for_system(energies, lam, 0.0)
                cs = no_errors(cs_recursion, mats, kin, up_to=1)
                r1p = no_errors(seed_coefficients, kin, ell, 1)
                diag, off = mats.j_tridiagonal(energies)
                r0 = 1.0 / (diag[0] + off[0] * r1p)
                np.testing.assert_allclose(cs.t, np.conj(r0) / r0, rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(cs.r_plus, r1p, rtol=1e-14, atol=0.0)


class TestSMatrix:
    def test_free_particle_unit_s(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=40))
        calc = ScatteringCalculator(spec)
        for energy in np.linspace(0.2, 6.0, 12):
            p = calc.point(energy)
            assert abs(1.0 - p.s) < 1e-10
            assert abs(p.delta) % math.pi < 1e-10

    def test_free_particle_higher_ell(self):
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.3, ell=2, size=40))
        calc = ScatteringCalculator(spec)
        for energy in (0.4, 1.9, 4.2):
            assert abs(1.0 - calc.point(energy).s) < 1e-9

    def test_unitarity_with_potential(self):
        pot = parse_potential("7.5*r^2*exp(-r)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=40), potential=pot)
        calc = ScatteringCalculator(spec)
        for energy in np.linspace(0.5, 7.5, 15):
            assert abs(abs(calc.point(energy).s) - 1.0) < 1e-10

    @pytest.mark.parametrize("z_charge, error", [(0.0, NumericalError), (1.0, RecursionBreakdownError)])
    def test_huge_energy_fails_typed(self, z_charge, error):
        # near the largest double J(E) overflows; no S comes out NaN without
        # an error naming its energy, and E = inf is refused outright
        spec = SystemSpec(
            basis=BasisSpec("laguerre", lam=1.0, ell=1, size=20),
            potential=parse_potential("7.5*r^2*exp(-r)"),
            z_charge=z_charge,
        )
        calc = ScatteringCalculator(spec)
        s, errors = calc.s_values([1.0, 1e306, 1e307, 1e308])
        with pytest.raises(InputError, match="must be positive and finite, got inf"):
            calc.s_values([1.0, math.inf])
        assert np.all(np.isfinite(s[:2])) and np.all(np.isnan(s[2:]))
        assert list(errors) == [2, 3] and all(type(errors[i]) is error for i in errors)
        if error is NumericalError:
            assert str(errors[2]).startswith("S-matrix at E=1e+307: non-finite value")

    def test_oscillator_basis_rejected(self):
        spec = SystemSpec(basis=BasisSpec("oscillator", lam=1.0, ell=0, size=10))
        with pytest.raises(InputError):
            ScatteringCalculator(spec)

    def test_against_mpmath_oracle(self):
        # S(E) with seeds from mp.hyp2f1 and the recursion run at 40 digits,
        # on the calculator's own double-precision inputs (kinematics, J
        # rows, eigenpairs): it bounds the rounding of the double path
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        worst = 0.0
        for z_charge in (-1.0, 0.0, 1.0):
            for ell, size in ((0, 100), (2, 80)):
                spec = SystemSpec(
                    basis=BasisSpec("laguerre", lam=20.0, ell=ell, size=size), potential=pot, z_charge=z_charge
                )
                calc = ScatteringCalculator(spec)
                for energy in (0.3, 0.5, 1.2, 20.0):
                    want = mpmath_s(calc, energy)
                    worst = max(worst, abs(calc.point(energy).s - want) / abs(want))
        assert worst <= 1e-10

    @pytest.mark.slow
    def test_phase_shift_robust_under_scale_change(self):
        # fixed physics, lam varied +/- 20%: delta(2.0) mod pi moves by
        # less than 1e-2 once the basis is big enough
        pot = parse_potential("7.5*r^2*exp(-r)")
        phases = []
        for lam in (0.8, 1.0, 1.2):
            spec = SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=0, size=160), potential=pot)
            phases.append(ScatteringCalculator(spec).point(2.0).delta % math.pi)
        spread = max(
            min(abs(a - b), math.pi - abs(a - b)) for a in phases for b in phases
        )
        assert spread < 1e-2


def nearest_poles(calc, energies):
    """The index of the pole of G nearest each energy."""
    return np.argmin(np.abs(calc.eigenvalues[None, :] - energies.real[:, None]), axis=1)


def continued_s(calc, energies, max_levels=10**6):
    """S = T (1 + G J R_N(-)) / (1 + G J R_N(+)) from the continued factors
    of ``denominator_terms`` and ``numerator_terms``, with the pole of G
    nearest each energy divided out; and the errors."""
    z = energies.astype(complex)
    terms, errors = denominator(calc, z, max_levels)
    t, r_minus = calc.numerator_terms(z, max_levels, errors)
    u = calc.eigenvalues[nearest_poles(calc, energies)] - energies
    with np.errstate(invalid="ignore"):  # NaN where the continued factors failed
        s = t * terms.divided(u, r_minus) / terms.divided(u, terms.r_plus)
    return s, errors


class TestContinuedKinematics:
    SYSTEMS = [(0.0, 0, 1.0), (0.0, 2, 1.3), (1.0, 1, 20.0), (-1.0, 0, 20.0)]

    def test_real_axis_matches_for_system(self):
        energies = np.geomspace(1e-3, 50.0, 400)
        for z_charge, _, lam in self.SYSTEMS:
            real = KinematicParams.for_system(energies, lam, z_charge)
            kin = KinematicParams.continued(energies, lam, z_charge)
            assert np.array_equal(kin.mirror, np.roll(np.arange(800), 400))
            for half in (slice(0, 400), slice(400, 800)):
                # theta from the logarithms of 2k +/- i lam, against atan2
                assert np.max(np.abs(kin.theta[half] - real.theta)) <= 4.5e-16
                assert np.array_equal(kin.energy[half].real, energies)
                np.testing.assert_allclose(kin.t[half], real.t, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("z_charge,ell,lam", SYSTEMS)
    def test_real_axis_reproduces_s(self, z_charge, ell, lam):
        # the continued path at real E (complex kinematics, the minus branch
        # from the mirror element, G's nearest pole divided out) against
        # s_values
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=60), potential=pot, z_charge=z_charge)
        calc = ScatteringCalculator(spec)
        energies = np.linspace(0.3, 6.0, 58)
        want, errors = calc.s_values(energies)
        got, continued_errors = continued_s(calc, energies)
        assert not errors and not continued_errors
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("z_charge,ell,lam", SYSTEMS)
    def test_free_s_is_one_off_the_axis(self, z_charge, ell, lam):
        # with V = 0, S = 1 for real E and so, by analytic continuation, for
        # complex E too: T, R_N(-) and R_N(+) must continue together. T and
        # (1 + G J R(-)) / (1 + G J R(+)) grow as e^(-/+ 2N Im theta) off the
        # axis, so their rounding does too; these points stay close enough
        # that it does not show
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=40), z_charge=z_charge)
        calc = ScatteringCalculator(spec)
        re, im = np.meshgrid(np.linspace(0.4, 5.0, 7), [-0.05, -1e-6, 1e-3])
        s, errors = continued_s(calc, (re + 1j * im).ravel())
        assert not errors
        assert np.max(np.abs(s - 1.0)) <= 1e-10

    def test_level_cap_fails_only_its_energy(self):
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=30), potential=pot, z_charge=1.0)
        calc = ScatteringCalculator(spec)
        energies = np.array([1.0 - 0.01j, 0.02 - 0.01j, 2.0 - 0.1j])
        want, _ = continued_s(calc, energies)
        got, errors = continued_s(calc, energies, max_levels=60)
        assert list(errors) == [1] and isinstance(errors[1], ConvergenceError)
        assert np.isnan(got[1]) and got[0] == want[0] and got[2] == want[2]


def denominator(calc, energies, max_levels=10**6):
    """``denominator_terms`` at ``energies``, with the pole of G nearest
    each split off, and the errors."""
    errors = {}
    terms = calc.denominator_terms(energies, nearest_poles(calc, energies), max_levels, errors)
    return terms, errors


class TestDenominatorTerms:
    @pytest.mark.slow
    def test_coulomb_r_plus_against_mpmath(self):
        # the one continued fraction against 30-digit mp.hyp2f1, on and off
        # the real axis; worst seen 8.8e-15, at lam = 20, ell = 2, N = 15,
        # E = 1e-3 (mp.hyp2f1 near |x| = 1 takes most of the time, about
        # half as long as at 50 digits, whose values the 30-digit ones
        # match to 2e-31 relative at all 240 points)
        energies = np.array([1e-3, 1e-2, 0.05, 0.3, 1.0, 5.0, 50.0, 1.6 - 0.05j, 0.4 - 0.3j, 3.0 - 0.5j])
        worst = 0.0
        for lam in (1.0, 20.0):
            for z_charge in (-1.0, 1.0):
                for ell in range(3):
                    for size in (15, 100):
                        spec = SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=size), z_charge=z_charge)
                        terms, errors = denominator(ScatteringCalculator(spec), energies)
                        assert errors == {}
                        for got, energy in zip(terms.r_plus, energies):
                            _, want = coulomb_reference(complex(energy), lam, z_charge, ell, size)
                            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-13

    @pytest.mark.parametrize("z_charge,ell,lam", TestContinuedKinematics.SYSTEMS)
    def test_agrees_with_continued_terms(self, z_charge, ell, lam):
        # R_N(+) without recursion or mirror energy is the R_N(+) of
        # cs_recursion over the continued kinematics: one seed_coefficients
        # route, the closed form at Z = 0 and the fraction at Z != 0
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=60), potential=pot, z_charge=z_charge)
        calc = ScatteringCalculator(spec)
        re, im = np.meshgrid(np.linspace(0.3, 6.0, 20), [0.0, -0.05, -0.3])
        energies = (re + 1j * im).ravel()
        terms, errors = denominator(calc, energies)
        kin = KinematicParams.continued(energies, lam, z_charge)
        continued_errors = {}
        cs = cs_recursion(calc.mats, kin, up_to=calc.mats.size, errors=continued_errors)
        assert not errors and not continued_errors
        assert np.array_equal(terms.r_plus, cs.r_plus[: energies.size])

    def test_level_cap_fails_only_its_energy(self):
        # the fraction needs under 20 levels at the outer energies and
        # about 95 at the one near threshold
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=0, size=30), potential=pot, z_charge=1.0)
        calc = ScatteringCalculator(spec)
        energies = np.array([1.0 - 0.01j, 0.02 - 0.01j, 2.0 - 0.1j])
        want, _ = denominator(calc, energies)
        got, errors = denominator(calc, energies, max_levels=60)
        assert list(errors) == [1] and isinstance(errors[1], ConvergenceError)
        assert str(errors[1]).startswith("R_30(+) at E=(0.02-0.01j), ell=0, t=")
        assert str(errors[1]).endswith("continued fraction did not converge in 60 levels")
        for field in got._fields:
            values = getattr(got, field)
            assert np.isnan(values[1]) and values[0] == getattr(want, field)[0] and values[2] == getattr(want, field)[2]


class TestCoulombS:
    @pytest.mark.parametrize(
        "lam, z_charge, ell, size, energy",
        [(20.0, 1.0, 0, 100, 0.011), (20.0, 1.0, 2, 80, 0.0011), (20.0, 1.0, 0, 100, 0.05),
         (20.0, -1.0, 0, 100, 0.011), (1.0, 1.0, 1, 60, 0.3), (20.0, 1.0, 0, 100, 1.0)],
    )
    def test_coefficients_against_mpmath(self, lam, z_charge, ell, size, energy):
        # worst seen 9.8e-14 in T, at lam = 20, ell = 2, N = 80, E = 0.0011,
        # where the upward recursion this replaces was off by 2.1e-4
        mats = build_matrices(
            SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=size), z_charge=z_charge)
        )
        cs = no_errors(cs_recursion, mats, KinematicParams.for_system(energy, lam, z_charge), up_to=size)
        want_t, want_r = coulomb_reference(complex(energy), lam, z_charge, ell, size)
        assert abs(complex(cs.t) - want_t) <= 1e-12
        assert abs(complex(cs.r_plus) - want_r) <= 1e-13 * abs(want_r)

    def test_t_off_the_axis_against_mpmath(self):
        # T_(N-1) through row 0 over the continued kinematics, down to
        # Im E = -0.2 Re E. Off the axis |T| = e^(2N Im theta) falls to
        # 1e-6 here, and the error stays absolute: worst seen 8.0e-14 (the
        # T_0 fraction route 8.1e-14), 2.5e-10 relative to |T|
        energies = (np.geomspace(0.05, 20.0, 6)[None, :] * np.array([[1.0 - 1e-3j], [1.0 - 0.05j], [1.0 - 0.2j]])).ravel()
        worst = 0.0
        for lam in (1.0, 20.0):
            for z_charge in (-1.0, 1.0):
                for ell in (0, 2):
                    mats = build_matrices(
                        SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=60), z_charge=z_charge)
                    )
                    cs = no_errors(cs_recursion, mats, KinematicParams.continued(energies, lam, z_charge), up_to=60)
                    for got, energy in zip(cs.t, energies):
                        want, _ = coulomb_reference(complex(energy), lam, z_charge, ell, 60)
                        worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_t_at_residue_pass_points_against_mpmath(self, monkeypatch):
        # T at the centre points of the last Halley steps of the three
        # criterion-7 searches (the third is coulomb-scan's p-wave search),
        # as the residue pass evaluates it: worst seen 1.9e-14, 9.1e-12
        # relative to |T| >= 4e-4 (the T_0 fraction route alike)
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        worst, points = 0.0, 0
        for z_charge, ell, e_min, e_max in ((1.0, 0, 0.15, 0.45), (-1.0, 0, 1.05, 1.45), (1.0, 1, 1.45, 1.85)):
            calc = ScatteringCalculator(
                SystemSpec(basis=BasisSpec("laguerre", lam=20.0, ell=ell, size=100), potential=pot, z_charge=z_charge)
            )
            seen = []
            real = calc.numerator_terms

            def numerator_terms(energies, max_levels, errors):
                t, r_minus = real(energies, max_levels, errors)
                seen.extend(zip(energies, t))
                return t, r_minus

            monkeypatch.setattr(calc, "numerator_terms", numerator_terms)
            assert len(locate_resonances(calc, e_min, e_max, coarse_steps=120).peaks) == 1
            for energy, got in seen:
                want, _ = coulomb_reference(complex(energy), 20.0, z_charge, ell, 100)
                worst = max(worst, abs(got - want))
            points += len(seen)
        assert points == 14
        assert worst <= 1e-12

    @pytest.mark.slow
    def test_s_against_mpmath(self):
        # S on the calculator's own resolvent weights, so this bounds the
        # fractions, the backward recursion and the S assembly; worst seen
        # 1.3e-13, where the upward recursion was off by up to 1.6 (lam = 1,
        # Z = +1, E = 1e-3). E = 1e-3 and 50 at N = 100 are points of
        # test_coulomb_r_plus_against_mpmath, whose references the cache
        # shares
        pot = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        energies = np.geomspace(1e-3, 50.0, 7)
        worst = 0.0
        for lam in (1.0, 20.0):
            for z_charge in (-1.0, 1.0):
                for ell in range(3):
                    spec = SystemSpec(
                        basis=BasisSpec("laguerre", lam=lam, ell=ell, size=100), potential=pot, z_charge=z_charge
                    )
                    calc = ScatteringCalculator(spec)
                    s, errors = calc.s_values(energies)
                    assert errors == {}
                    for got, energy in zip(s, energies):
                        t, r = coulomb_reference(complex(energy), lam, z_charge, ell, calc.mats.size)
                        with mp.workdps(30):
                            t, r, gj = mp.mpc(t), mp.mpc(r), mp_green_boundary(calc, float(energy))
                            want = complex(t * (1 + gj * mp.conj(r)) / (1 + gj * r))
                        worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-10
