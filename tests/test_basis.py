import functools
import math

import mpmath as mp
import numpy as np
import pytest

from resolvent_kit import basis as basis_module
from resolvent_kit.basis import (
    BasisSpec,
    CHECK_TOL,
    CONV_TOL,
    SystemSpec,
    _closed_form_residual,
    _oscillator_analytic,
    _potential_by_quadrature,
    _potential_nodes,
    _y_cut,
    build_matrices,
    gauss_quadrature,
    gauss_rule_log,
    laguerre_matrices,
    orthonormal_laguerre_table,
    oscillator_matrices,
)
from resolvent_kit.errors import InputError, QuadratureError
from resolvent_kit.matrix_core import gen_sym_eig
from resolvent_kit.potential import parse_potential


class TestGaussQuadrature:
    def test_one_point_rule(self):
        nodes, weights = gauss_quadrature(0.0, 1)
        np.testing.assert_allclose(nodes, [1.0])
        np.testing.assert_allclose(weights, [1.0])

    def test_first_moment_any_order(self):
        for npts in (1, 2, 5):
            nodes, weights = gauss_quadrature(0.0, npts)
            assert np.sum(weights * nodes) == pytest.approx(1.0, rel=1e-13)

    def test_x5_moment(self):
        nodes, weights = gauss_quadrature(0.0, 3)
        assert np.sum(weights * nodes**5) == pytest.approx(120.0, rel=1e-12)

    def test_generalized_moments(self):
        # int x^(alpha+k) e^-x dx = Gamma(alpha+k+1)
        for alpha in (0.5, 2.0, -0.3):
            nodes, weights = gauss_quadrature(alpha, 6)
            for k in range(6):
                want = math.gamma(alpha + k + 1.0)
                assert np.sum(weights * nodes**k) == pytest.approx(want, rel=1e-12)

    def test_polynomial_exactness_degree(self):
        # degree 2*npts - 1 is exact, 2*npts is not, for the monic power
        alpha, npts = 1.0, 4
        nodes, weights = gauss_quadrature(alpha, npts)
        exact = np.sum(weights * nodes ** (2 * npts - 1))
        assert exact == pytest.approx(math.gamma(alpha + 2 * npts), rel=1e-12)

    def test_large_rule_tail_weights_accurate(self):
        # the defining property the rule must keep at size ~500: weighted
        # orthonormal polynomial sums stay orthonormal
        x, lw = gauss_rule_log(2.0, 480)
        t = orthonormal_laguerre_table(2.0, 80, x, log_scale=0.5 * lw)
        gram = t @ t.T
        assert np.max(np.abs(gram - np.eye(81))) < 1e-11

    def test_table_rows_past_a_renormalization(self):
        # at x = 2000 the values pass 1e120 near degree 65, so the
        # recurrence renormalizes there; every row, before and after, must
        # still equal the directly evaluated orthonormal polynomial
        from scipy.special import eval_genlaguerre, gammaln

        alpha, n = 1.0, np.arange(76)
        x = np.array([3.0, 2000.0])
        want = eval_genlaguerre(n[:, None], alpha, x) * np.exp(0.5 * (gammaln(n + 1.0) - gammaln(n + alpha + 1.0)))[:, None]
        assert np.abs(want[-1, 1]) > 1e130
        np.testing.assert_allclose(orthonormal_laguerre_table(alpha, 75, x), want, rtol=1e-11)

    def test_one_pass_over_joined_nodes_equals_separate_passes(self):
        # each node runs its own recurrence, renormalizations included, so
        # a table over the nodes of two rules is the two tables side by side
        x1, lw1 = gauss_rule_log(4.0, 960)
        x2, lw2 = gauss_rule_log(4.0, 1920)
        assert np.max(np.abs(orthonormal_laguerre_table(3.0, 119, x2))) > 1e120  # renormalizes
        joined = orthonormal_laguerre_table(
            3.0, 119, np.concatenate([x1, x2]), log_scale=0.5 * np.concatenate([lw1, lw2])
        )
        apart = [orthonormal_laguerre_table(3.0, 119, x, log_scale=0.5 * lw) for x, lw in ((x1, lw1), (x2, lw2))]
        assert np.array_equal(joined, np.hstack(apart))

    @staticmethod
    def _table_checking_every_degree(alpha, degree, x, log_scale):
        # the recurrence with its overflow check at every degree, each
        # operation as in orthonormal_laguerre_table, and each row scaled
        # by the log scale its node had when the row was computed
        cur, prev = np.ones_like(x), np.zeros_like(x)
        logscale = log_scale - 0.5 * math.lgamma(alpha + 1.0)
        rows, scales = [cur], [logscale]
        with np.errstate(under="ignore"):
            for n in range(degree):
                a = (2.0 * n + alpha + 1.0 - x) / math.sqrt((n + 1.0) * (n + alpha + 1.0))
                coupling = math.sqrt(n * (n + alpha) / ((n + 1.0) * (n + alpha + 1.0))) if n else 0.0
                cur, prev = a * cur - prev * coupling, cur
                mag = np.abs(cur)
                if np.fmax.reduce(mag, initial=0.0) > 1e120:
                    factor = np.where(mag > 1e120, mag, 1.0)
                    prev, cur = prev / factor, cur / factor
                    logscale = logscale + np.log(factor)
                rows.append(cur)
                scales.append(logscale)
            return np.array([row * np.exp(ls) for row, ls in zip(rows, scales)])

    def test_skipped_overflow_checks_leave_the_table_bit_identical(self):
        # the table checks for values past 1e120 only from the degree
        # where a bound on them passes it. On the potential rule of the
        # two-Gaussian at lam 10, ell 0, N 120 (levels 0 and 1, live
        # nodes) the bound passes at degree 118 and no value does; at
        # x = 2000 values pass near degree 65 and are renormalized
        spec = SystemSpec(basis=BasisSpec("laguerre", lam=10.0, ell=0, size=120),
                          potential=parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)"))
        x, lw, r = (np.concatenate(part) for part in zip(*(_potential_nodes(120, k, 1, 5, lambda y: y * y / 10.0) for k in (0, 1))))
        live = spec.v_values(r) != 0.0
        bare = self._table_checking_every_degree(1.0, 119, x[live], np.zeros(np.count_nonzero(live)))
        assert 1e100 < np.max(np.abs(bare)) < 1e120
        cases = [(1.0, 119, x[live], 0.5 * lw[live]), (1.0, 75, np.array([3.0, 2000.0]), np.zeros(2))]
        for alpha, degree, nodes, log_scale in cases:
            want = self._table_checking_every_degree(alpha, degree, nodes, log_scale)
            assert np.array_equal(orthonormal_laguerre_table(alpha, degree, nodes, log_scale=log_scale), want)
        assert np.max(np.abs(want)) > 1e130

    def test_bad_args(self):
        with pytest.raises(InputError):
            gauss_quadrature(0.0, 0)
        with pytest.raises(InputError):
            gauss_quadrature(-1.5, 4)


class TestGaussRuleCache:
    def test_rule_is_read_only(self):
        nodes, log_w = gauss_rule_log(1.5, 9)
        for arr in (nodes, log_w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        one_node, one_w = gauss_rule_log(0.0, 1)
        assert not one_node.flags.writeable and not one_w.flags.writeable

    def test_repeat_call_same_rule(self):
        first = [a.copy() for a in gauss_rule_log(2.5, 17)]
        again = gauss_rule_log(2.5, 17)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_int_and_float_alpha_share_rule(self):
        for npts in (1, 12):
            for a, b in zip(gauss_rule_log(2, npts), gauss_rule_log(2.0, npts)):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(gauss_rule_log(2.0, np.int64(12)), gauss_rule_log(np.float64(2.0), 12)):
            np.testing.assert_array_equal(a, b)

    def test_validation_runs_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InputError):
                gauss_rule_log(0.0, 0)
            with pytest.raises(InputError):
                gauss_rule_log(-1.0, 4)
            with pytest.raises(InputError):
                gauss_rule_log(-2.5, 4)

    def test_gauss_quadrature_returns_writable_copies(self):
        nodes, weights = gauss_quadrature(0.5, 6)
        assert nodes.flags.writeable and weights.flags.writeable
        nodes[:] = 0.0
        weights[:] = 0.0
        fresh, _ = gauss_quadrature(0.5, 6)
        assert np.all(fresh > 0.0)
        np.testing.assert_array_equal(fresh, gauss_rule_log(0.5, 6)[0])


class TestLaguerreMatrices:
    def spec(self, lam=1.0, ell=0, size=8, z=0.0, pot=None):
        return SystemSpec(
            basis=BasisSpec("laguerre", lam=lam, ell=ell, size=size),
            z_charge=z,
            potential=pot,
        )

    def test_zero_potential_gives_zero_matrix(self):
        mats = laguerre_matrices(self.spec())
        assert np.all(mats.v.data == 0.0)

    def test_overlap_matches_quadrature_oracle(self):
        # construction runs the oracle at CHECK_TOL = 1e-10; verify the N=8
        # case at 1e-12
        mats = laguerre_matrices(self.spec(size=8))
        assert _closed_form_residual("laguerre", 0, 8) <= 1e-12
        om = mats.omega.data
        n = np.arange(8.0)
        np.testing.assert_allclose(np.diag(om), 2 * n + 2, atol=1e-12)
        np.testing.assert_allclose(
            np.diag(om, 1), -np.sqrt((n[:-1] + 1) * (n[:-1] + 2)), atol=1e-12
        )
        assert np.max(np.abs(om - np.diag(np.diag(om)) - np.diag(np.diag(om, 1), 1) - np.diag(np.diag(om, -1), -1))) == 0.0

    def test_h0_tridiagonal(self):
        mats = laguerre_matrices(self.spec(size=10, z=0.7))
        h0 = mats.h0.data
        off = h0 - np.diag(np.diag(h0)) - np.diag(np.diag(h0, 1), 1) - np.diag(np.diag(h0, -1), -1)
        assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(h0))

    def test_overlap_positive_definite(self):
        for ell in (0, 1, 3):
            mats = laguerre_matrices(self.spec(ell=ell, size=12))
            np.linalg.cholesky(mats.omega.data)  # raises unless SPD

    def test_hydrogen_ground_state_exact(self):
        # lam = 2, Z = -1: the exact 1s orbital lies in the basis span
        mats = laguerre_matrices(self.spec(lam=2.0, z=-1.0, size=6))
        pair = gen_sym_eig(mats.h.data, mats.omega.data)
        assert pair.eps[0] == pytest.approx(-0.5, abs=1e-12)

    def test_boundary_element_extends_tridiagonal(self):
        energies = np.array([0.3, 2.0, 7.5])
        for ell in (0, 1, 2):
            mats = laguerre_matrices(self.spec(size=6, ell=ell))
            bigger = laguerre_matrices(self.spec(size=7, ell=ell))
            want = bigger.h0.data[5, 6] - energies * bigger.omega.data[5, 6]
            for energy, w in zip(energies, want):
                assert mats.j_boundary(energy) == pytest.approx(w, rel=1e-12)
            np.testing.assert_allclose(mats.j_boundary(energies), want, rtol=1e-12)
            np.testing.assert_allclose(mats.j_tridiagonal(energies)[1][-1], want, rtol=1e-12)

    def test_j_tridiagonal_matches_matrices(self):
        mats = laguerre_matrices(self.spec(size=5))
        diag, off = mats.j_tridiagonal(1.7)
        want_diag = np.diag(mats.h0.data) - 1.7 * np.diag(mats.omega.data)
        want_off = np.diag(mats.h0.data, 1) - 1.7 * np.diag(mats.omega.data, 1)
        np.testing.assert_allclose(diag, want_diag)
        np.testing.assert_allclose(off[:-1], want_off)
        assert off[-1] == pytest.approx(mats.j_boundary(1.7))

    def test_potential_quadrature_converges(self):
        pot = parse_potential("7.5*r^2*exp(-r)")
        mats = laguerre_matrices(self.spec(size=12, pot=pot))
        # independent check against a fixed 400-point rule (lam = 1, ell = 0)
        x, lw = gauss_rule_log(2, 400)
        (finer,) = _potential_by_quadrature(self.spec(size=12, pot=pot), 1, [(x, lw, x)])
        assert np.max(np.abs(mats.v.data - finer)) < 1e-9

    @pytest.mark.parametrize(
        "text, lam, ell, size, npts",
        [("exp(-r^2)", 1.0, 0, 30, 240), ("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)", 10.0, 1, 120, 960)],
    )
    def test_zero_nodes_skipped_without_changing_v(self, text, lam, ell, size, npts):
        # V underflows to exactly 0.0 over most nodes; leaving those nodes
        # out of the table may only reorder the sum. The reference is the
        # same signed Gram sum, the table scaled by sqrt(w |V|), with the
        # zero nodes kept as zero columns of its V >= 0 part
        spec = self.spec(lam=lam, ell=ell, size=size, pot=parse_potential(text))
        x, lw = gauss_rule_log(2 * ell + 2, npts)
        v = spec.v_values(x / lam)
        assert np.mean(v == 0.0) > 0.5
        with np.errstate(divide="ignore"):
            t = orthonormal_laguerre_table(2 * ell + 1, size - 1, x, log_scale=0.5 * (lw + np.log(np.abs(v))))
        assert not np.any(t[:, v == 0.0])
        plus, minus = t[:, v >= 0.0], t[:, v < 0.0]
        full = plus @ plus.T - minus @ minus.T
        (got,) = _potential_by_quadrature(spec, 2 * ell + 1, [(x, lw, x / lam)])
        assert np.max(np.abs(got - 0.5 * (full + full.T))) <= 1e-15 * np.max(np.abs(full))

    def test_zero_potential_builds_no_table(self, monkeypatch):
        def table(*args, **kwargs):
            raise AssertionError("table built for V = 0")

        monkeypatch.setattr(basis_module, "orthonormal_laguerre_table", table)
        for pot in (None, parse_potential("0*exp(-r)")):
            spec = self.spec(size=12, pot=pot)
            rules = [_potential_nodes(12, level, 1, 5, lambda y: y * y) for level in (0, 1)]
            got = _potential_by_quadrature(spec, 1, rules)
            assert len(got) == 2 and all(np.array_equal(v, np.zeros((12, 12))) for v in got)

    def test_nonfinite_potential_fails_the_doubling_check(self):
        # a NaN V is not an exact zero, so it stays in the sum and fails
        # the convergence test instead of vanishing from the matrix; a
        # non-finite residual cannot improve, so the first doubling (two
        # panels of 32 points against four) raises
        spec = SystemSpec(
            basis=BasisSpec("laguerre", lam=1.0, ell=0, size=8), potential=parse_potential("0*r^-400"), check_potential=False
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QuadratureError, match="did not converge") as info:
            laguerre_matrices(spec)
        assert math.isnan(info.value.residual)
        assert "doubling 64 -> 128 points" in str(info.value)

    def test_family_mismatch(self):
        with pytest.raises(InputError):
            laguerre_matrices(SystemSpec(basis=BasisSpec("oscillator", lam=1.0, ell=0, size=4)))

    def test_unconverged_doubling_raises_at_cap(self):
        # in y = sqrt(lam r) the weight is y^5 at ell = 0, and r^-2.4
        # leaves y^0.2 in the integrand, so each doubling still moves the
        # matrix far above CONV_TOL; from two panels of 32 points the
        # doublings reach the cap at 2048 -> 4096
        spec = self.spec(pot=parse_potential("r^-2.4"))
        with pytest.raises(QuadratureError, match=r"doubling 2048 -> 4096 points") as info:
            laguerre_matrices(spec)
        residual = info.value.residual
        assert np.isfinite(residual) and residual > 1e-8
        assert f"{residual:.3e}" in str(info.value)


class TestOscillatorMatrices:
    def spec(self, lam=1.0, ell=0, size=8, z=0.0, pot=None, check=True):
        return SystemSpec(
            basis=BasisSpec("oscillator", lam=lam, ell=ell, size=size),
            z_charge=z,
            potential=pot,
            check_potential=check,
        )

    def test_overlap_is_identity(self):
        mats = oscillator_matrices(self.spec(size=9))
        assert np.array_equal(mats.omega.data, np.eye(9))

    def test_normalization_by_quadrature(self):
        # <psi_0|psi_0> through the same machinery that builds V
        one = parse_potential("1")
        mats = oscillator_matrices(self.spec(size=6, pot=one, check=False))
        assert mats.v.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_unit_potential_is_identity(self):
        one = parse_potential("1")
        for ell in (0, 2):
            mats = oscillator_matrices(self.spec(size=10, ell=ell, pot=one, check=False))
            assert np.max(np.abs(mats.v.data - np.eye(10))) < 1e-10

    def test_harmonic_oscillator_exact(self):
        # V = lam^4 r^2 / 2 completes H0 to the oscillator Hamiltonian
        # with eigenvalues lam^2 (2n + ell + 3/2), diagonal in this basis
        lam, ell = 0.9, 1
        pot = parse_potential(f"0.5*{lam**4}*r^2")
        mats = oscillator_matrices(self.spec(lam=lam, ell=ell, size=8, pot=pot, check=False))
        h = mats.h.data
        n = np.arange(8.0)
        want = lam**2 * (2 * n + ell + 1.5)
        np.testing.assert_allclose(np.diag(h), want, rtol=1e-12)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-10 * np.max(want)

    def test_neutral_h0_is_scaled_closed_form(self):
        for lam, ell in ((0.45, 0), (2.5, 3)):
            h0 = oscillator_matrices(self.spec(lam=lam, ell=ell, size=9)).h0.data
            diag, off = _oscillator_analytic(ell, 9)
            np.testing.assert_array_equal(np.diag(h0), lam**2 * diag)
            np.testing.assert_array_equal(np.diag(h0, 1), lam**2 * off[:8])
            np.testing.assert_array_equal(np.triu(h0, 2), 0.0)
            np.testing.assert_array_equal(h0, h0.T)

    def test_coulomb_term_symmetric_full(self):
        mats = oscillator_matrices(self.spec(size=7, z=1.0))
        h0 = mats.h0.data
        assert np.array_equal(h0, h0.T)
        # 1/r couples all n in this basis: off-tridiagonal entries present
        assert np.max(np.abs(h0 - np.diag(np.diag(h0)) - np.diag(np.diag(h0, 1), 1) - np.diag(np.diag(h0, -1), -1))) > 1e-3

    @pytest.mark.parametrize(
        "text, lam, size",
        [("-2*exp(-r)", lam, size) for lam in (0.45, 1.0, 3.0) for size in (20, 100)]
        + [("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)", 0.45, 100)],
    )
    def test_odd_powers_of_r_build(self, text, lam, size):
        # e^(-r) is e^(-sqrt(x)/lam) in x = lam^2 r^2; a rule in x reached
        # the point cap on each of these, the rule in y = lam r converges
        mats = oscillator_matrices(self.spec(lam=lam, size=size, pot=parse_potential(text)))
        assert np.all(np.isfinite(mats.v.data)) and np.array_equal(mats.v.data, mats.v.data.T)

    def test_r_power_in_s_wave_raises_at_cap(self):
        # at ell = 0, r^-1.5 leaves y^(1/2) in the integrand, on which the
        # panels converge only as h^1.5; from 3 panels of 32 points the
        # doublings reach the cap at 3072 -> 6144
        with pytest.raises(QuadratureError, match=r"doubling 3072 -> 6144 points") as info:
            oscillator_matrices(self.spec(size=20, pot=parse_potential("r^-1.5")))
        residual = info.value.residual
        assert np.isfinite(residual) and residual > CONV_TOL

    def test_family_mismatch(self):
        with pytest.raises(InputError):
            oscillator_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4)))

    def test_no_reference_pencil(self):
        # 1/r couples every pair of oscillator functions, so there are no
        # bands for the scattering recursion to run on
        mats = oscillator_matrices(self.spec(size=6, z=1.0))
        with pytest.raises(InputError, match="oscillator"):
            mats.j_tridiagonal(1.0)
        with pytest.raises(InputError, match="oscillator"):
            mats.j_boundary(np.array([0.5, 1.0]))


BARRIER = "7.5*r^2*exp(-r)"
TWO_GAUSSIAN = "5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)"
MP_POTENTIALS = {
    "-2*exp(-r)": lambda r: -2 * mp.exp(-r),
    BARRIER: lambda r: mp.mpf("7.5") * r**2 * mp.exp(-r),
    TWO_GAUSSIAN: lambda r: 5 * mp.exp(-((r - mp.mpf("3.5")) ** 2) / 4) - 8 * mp.exp(-(r**2) / 5),
    "r^-1.5": lambda r: r ** mp.mpf("-1.5"),
}


def mp_basis_function(family, lam, ell, n):
    """psi_n(r) from mp.laguerre, lhat_n = sqrt(n!/Gamma(n+alpha+1)) L_n^alpha:

        laguerre:   sqrt(lam)   (lam r)^(ell+1) e^(-lam r/2)       lhat_n^(2ell+1)(lam r)
        oscillator: sqrt(2 lam) (lam r)^(ell+1) e^(-(lam r)^2/2)   lhat_n^(ell+1/2)((lam r)^2)
    """
    lam = mp.mpf(lam)
    if family == "laguerre":
        alpha, width, arg = 2 * ell + 1, 1, lambda r: lam * r
    else:
        alpha, width, arg = ell + mp.mpf(1) / 2, 2, lambda r: (lam * r) ** 2
    norm = mp.sqrt(width * lam * mp.factorial(n) / mp.gamma(n + alpha + 1))
    return lambda r: norm * (lam * r) ** (ell + 1) * mp.exp(-arg(r) / 2) * mp.laguerre(n, alpha, arg(r))


@functools.lru_cache(maxsize=None)
def mp_pair(family, lam, ell, n, m):
    """r -> psi_n(r) psi_m(r), remembered per node, so that integrals of
    several potentials against one pair share their basis evaluations."""
    f, g = mp_basis_function(family, lam, ell, n), mp_basis_function(family, lam, ell, m)
    return functools.lru_cache(maxsize=None)(lambda r: f(r) * g(r))


def mp_potential_element(family, lam, ell, size, n, m, text):
    """<psi_n|V|psi_m> as a 30-digit mp.quad over r. In the basis variable
    (lam r, or (lam r)^2) every psi_n of the size-N basis has its last zero
    below 4N + 2 alpha + 2 and decays as e^(-x/2) beyond it; the integral
    stops 100 + 20 N^(1/3) further out, far past anything double
    precision can see, and runs on one panel per two basis functions.
    A power of r leaves a fractional power of r at the origin, which
    Gauss-Legendre panels resolve only to about 1e-6; tanh-sinh takes
    those to full accuracy."""
    alpha = 2 * ell + 1 if family == "laguerre" else ell + 0.5
    x_cut = 4 * size + 2 * alpha + 2 + 20 * size ** (1 / 3) + 100
    method = "tanh-sinh" if text.startswith("r^") else "gauss-legendre"
    with mp.workdps(30):
        r_cut = mp.mpf(x_cut) / lam if family == "laguerre" else mp.sqrt(x_cut) / lam
        pair, v = mp_pair(family, lam, ell, n, m), MP_POTENTIALS[text]
        return mp.quad(lambda r: pair(r) * v(r), mp.linspace(0, r_cut, size // 2 + 4), method=method)


def assert_elements_match_mpmath(family, lam, ell, size, text, tol):
    spec = SystemSpec(basis=BasisSpec(family, lam=lam, ell=ell, size=size), potential=parse_potential(text))
    v = build_matrices(spec).v.data
    for n, m in ((0, 0), (3, 7), (size - 1, size - 1)):
        want = mp_potential_element(family, lam, ell, size, n, m, text)
        assert abs(v[n, m] - float(want)) <= tol, (family, lam, ell, size, text, n, m, v[n, m], want)


class TestPotentialAgainstMpmath:
    """The built V against <psi_n|V|psi_m> integrated over r by mpmath,
    with basis functions from mp.laguerre: neither the rule nor the
    polynomial recurrence of the build."""

    @pytest.mark.parametrize(
        "family, lam, ell",
        [("oscillator", 0.45, 0), ("oscillator", 1.0, 2), ("laguerre", 1.0, 0), ("laguerre", 10.0, 1)],
    )
    @pytest.mark.parametrize("text", ["-2*exp(-r)", BARRIER, TWO_GAUSSIAN])
    def test_elements(self, family, lam, ell, text):
        assert_elements_match_mpmath(family, lam, ell, 20, text, 1e-10)

    def test_oscillator_r_power_above_s_wave(self):
        # y^(2ell+2) r^-1.5 leaves y^(2ell+1/2) at the origin: at ell = 2
        # the first panel converges fast enough for 1e-10; at ell = 1 it
        # converges as h^3.5, so the doubling check certifies CONV_TOL,
        # not 1e-10
        assert_elements_match_mpmath("oscillator", 1.0, 2, 20, "r^-1.5", 1e-10)
        assert_elements_match_mpmath("oscillator", 1.0, 1, 20, "r^-1.5", CONV_TOL)

    def test_laguerre_r_power_in_s_wave(self):
        # in y = sqrt(lam r) the weight y^5 times r^-1.5 leaves y^2: the
        # integrand is analytic, and the panels reach 1e-10
        assert_elements_match_mpmath("laguerre", 1.0, 0, 20, "r^-1.5", 1e-10)


@pytest.mark.parametrize("family", ["laguerre", "oscillator"])
def test_cut_leaves_out_below_2e_14_of_the_basis_density(family):
    """The potential rule stops at Y (``_y_cut``). There the basis
    densities e^(-x) x^a lhat_n(x)^2, n < N, which weight V in each
    diagonal V_nn, are at most 2e-14 of the largest density's peak for
    N <= 120. The doubling check cannot see what the cut leaves out, and
    that grows with N past 120: 1.9e-13 at N = 200 for the oscillator at
    ell = 0, 2.1e-13 for the Laguerre basis at ell = 3."""
    for ell in range(4):
        # (polynomial parameter, weight power of y = 2a + 1)
        alpha, power = (2 * ell + 1, 4 * ell + 5) if family == "laguerre" else (ell + 0.5, 2 * ell + 2)
        a = 0.5 * (power - 1)
        for size in (2, 15, 60, 120):
            y_cut = _y_cut(size, alpha, power)
            x = np.append(np.linspace(1e-6, y_cut**2, 20001), y_cut**2)
            density = orthonormal_laguerre_table(alpha, size - 1, x, log_scale=0.5 * (a * np.log(x) - x)) ** 2
            assert np.max(density[:, -1]) <= 2e-14 * np.max(density), (family, ell, size)


@pytest.fixture
def fresh_check_cache():
    # a tampered band function leaves its residual in the cache
    basis_module._closed_form_residual.cache_clear()
    yield
    basis_module._closed_form_residual.cache_clear()


class TestClosedFormCheck:
    @pytest.mark.parametrize("family, band_fn, band", [
        ("laguerre", "_laguerre_analytic", 0),
        ("laguerre", "_laguerre_analytic", 3),
        ("oscillator", "_oscillator_analytic", 1),
    ])
    def test_tampered_closed_form_raises(self, monkeypatch, fresh_check_cache, family, band_fn, band):
        honest = getattr(basis_module, band_fn)

        def tampered(ell, size):
            bands = [b.copy() for b in honest(ell, size)]
            bands[band][2] *= 1.0 + 1e-6
            return tuple(bands)

        monkeypatch.setattr(basis_module, band_fn, tampered)
        spec = SystemSpec(basis=BasisSpec(family, lam=1.3, ell=2, size=11))
        for _ in range(2):  # the second build is answered from the cache
            with pytest.raises(QuadratureError, match=rf"{family} .*ell = 2, N = 11") as info:
                build_matrices(spec)
            assert info.value.residual > CHECK_TOL

    def test_quadrature_runs_once_per_key(self, monkeypatch, fresh_check_cache):
        calls = []
        honest = basis_module._kinetic_by_quadrature

        def spy(ell, size, *args):
            calls.append((ell, size))
            return honest(ell, size, *args)

        monkeypatch.setattr(basis_module, "_kinetic_by_quadrature", spy)
        well = parse_potential("-2*exp(-r^2)")
        specs = [
            SystemSpec(basis=BasisSpec(family, lam=lam, ell=ell, size=size), z_charge=z, potential=pot)
            for family in ("laguerre", "oscillator")
            for ell, size in ((0, 10), (1, 12))
            for lam in (0.7, 3.0)
            for z in (-1.0, 0.0, 1.0)
            for pot in (None, well)
        ]
        for spec in specs:
            build_matrices(spec)
        assert sorted(calls) == [(0, 10), (0, 10), (1, 12), (1, 12)]
        for spec in specs[:6]:
            build_matrices(spec)
        assert len(calls) == 4


class TestSystemSpec:
    def test_rejects_nondecaying_potential(self):
        growing = parse_potential("r")
        with pytest.raises(InputError, match="decay"):
            SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4), potential=growing)

    def test_rejects_singular_potential(self):
        diverging = parse_potential("1/(r - 10)")  # pole inside the sampled range
        with pytest.raises(InputError):
            SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4), potential=diverging)

    def test_escape_hatch(self):
        growing = parse_potential("r")
        spec = SystemSpec(
            basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4),
            potential=growing,
            check_potential=False,
        )
        assert spec.potential is growing

    def test_basis_validation(self):
        with pytest.raises(InputError):
            BasisSpec("laguerre", lam=-1.0, ell=0, size=4)
        with pytest.raises(InputError):
            BasisSpec("laguerre", lam=1.0, ell=-1, size=4)
        with pytest.raises(InputError):
            BasisSpec("laguerre", lam=1.0, ell=0, size=1)
        with pytest.raises(InputError):
            BasisSpec("fourier", lam=1.0, ell=0, size=4)
        basis, barrier = BasisSpec("laguerre", lam=1.0, ell=0, size=4), parse_potential("7.5*r^2*exp(-r)")
        for range_r in (0.0, -5.0, math.inf, math.nan):
            for potential in (None, barrier):
                with pytest.raises(InputError, match="range_r must be finite and positive"):
                    SystemSpec(basis=basis, potential=potential, range_r=range_r)

    def test_build_dispatch(self):
        lag = build_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4)))
        osc = build_matrices(SystemSpec(basis=BasisSpec("oscillator", lam=1.0, ell=0, size=4)))
        assert not np.array_equal(lag.omega.data, np.eye(4))
        assert np.array_equal(osc.omega.data, np.eye(4))
