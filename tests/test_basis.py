import math

import numpy as np
import pytest

from resolvent_kit.basis import (
    BasisSpec,
    SystemSpec,
    _check_laguerre_against_quadrature,
    _potential_by_quadrature,
    build_matrices,
    gauss_quadrature,
    gauss_rule_log,
    laguerre_matrices,
    orthonormal_laguerre_table,
    oscillator_matrices,
)
from resolvent_kit.errors import InputError, QuadratureError
from resolvent_kit.matrix_core import gen_sym_eig, is_spd
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
        spec = self.spec(size=8)
        mats = laguerre_matrices(spec)
        _check_laguerre_against_quadrature(spec, mats.h0.data, mats.omega.data, 1e-12)
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
            assert is_spd(mats.omega.data)

    def test_hydrogen_ground_state_exact(self):
        # lam = 2, Z = -1: the exact 1s orbital lies in the basis span
        mats = laguerre_matrices(self.spec(lam=2.0, z=-1.0, size=6))
        pair = gen_sym_eig(mats.h.data, mats.omega.data)
        assert pair.eps[0] == pytest.approx(-0.5, abs=1e-12)

    def test_boundary_element_extends_tridiagonal(self):
        spec = self.spec(size=6, ell=1)
        mats = laguerre_matrices(spec)
        bigger = laguerre_matrices(self.spec(size=7, ell=1))
        for energy in (0.3, 2.0):
            want = bigger.h0.data[5, 6] - energy * bigger.omega.data[5, 6]
            assert mats.j_boundary(energy) == pytest.approx(want, rel=1e-12)

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
        finer = _potential_by_quadrature(self.spec(size=12, pot=pot), 2, 1, 400, lambda x: x)
        assert np.max(np.abs(mats.v.data - finer)) < 1e-9

    def test_family_mismatch(self):
        with pytest.raises(InputError):
            laguerre_matrices(SystemSpec(basis=BasisSpec("oscillator", lam=1.0, ell=0, size=4)))

    def test_unconverged_doubling_raises_at_cap(self):
        # r^-1.5 against the weight x^2 leaves x^(1/2) in the integrand, so
        # each doubling still moves the matrix far above CONV_TOL; from 40
        # points the doublings reach the cap at 2560 -> 5120
        spec = self.spec(pot=parse_potential("r^-1.5"))
        with pytest.raises(QuadratureError, match=r"doubling 2560 -> 5120 points") as info:
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

    def test_coulomb_term_symmetric_full(self):
        mats = oscillator_matrices(self.spec(size=7, z=1.0))
        h0 = mats.h0.data
        assert np.array_equal(h0, h0.T)
        # 1/r couples all n in this basis: off-tridiagonal entries present
        assert np.max(np.abs(h0 - np.diag(np.diag(h0)) - np.diag(np.diag(h0, 1), 1) - np.diag(np.diag(h0, -1), -1))) > 1e-3

    def test_family_mismatch(self):
        with pytest.raises(InputError):
            oscillator_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4)))


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

    def test_build_dispatch(self):
        lag = build_matrices(SystemSpec(basis=BasisSpec("laguerre", lam=1.0, ell=0, size=4)))
        osc = build_matrices(SystemSpec(basis=BasisSpec("oscillator", lam=1.0, ell=0, size=4)))
        assert not np.array_equal(lag.omega.data, np.eye(4))
        assert np.array_equal(osc.omega.data, np.eye(4))
