import numpy as np
import pytest

from resolvent_kit import matrix_core
from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
from resolvent_kit.errors import InputError, OverlapNotSPDError
from resolvent_kit.potential import parse_potential
from resolvent_kit.matrix_core import (
    SymMatrix,
    _fix_column_signs,
    delete_row_col,
    gen_sym_eig,
    gen_sym_eigvals,
    sym_eig,
)

from conftest import (
    PENCIL_EPS_TOL,
    char_poly_3x3,
    cubic_roots,
    det_cofactor,
    mp_pencil_reference,
    random_spd,
    random_symmetric,
)


class TestTypes:
    def test_sym_matrix_rejects_asymmetry(self):
        with pytest.raises(InputError):
            SymMatrix(np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]]))

    def test_plain_arrays_checked_for_symmetry(self, rng):
        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        skew = h.copy()
        skew[0, 1] += 1e-3
        calls = (
            lambda: sym_eig(skew),
            lambda: gen_sym_eig(skew, om),
            lambda: gen_sym_eig(h, skew + 10.0 * np.eye(4)),
            lambda: gen_sym_eigvals(skew),
            lambda: gen_sym_eigvals(skew, om),
            lambda: gen_sym_eigvals(h, skew + 10.0 * np.eye(4)),
        )
        for call in calls:
            with pytest.raises(InputError, match="not symmetric"):
                call()

    def test_sym_matrix_not_checked_again(self, rng, monkeypatch):
        # a SymMatrix was checked bit-exact when built; the eigensolvers
        # take it as it is and give the same pair as the checked arrays
        h = random_symmetric(rng, 5)
        om = random_spd(rng, 5)
        want = gen_sym_eig(h, om), sym_eig(h)
        want_eps = gen_sym_eigvals(h, om), gen_sym_eigvals(h)
        sh, som = SymMatrix(h), SymMatrix(om)

        def refuse(*args, **kwargs):
            raise AssertionError("symmetry checked again")

        monkeypatch.setattr(np, "allclose", refuse)
        for got, ref in zip((gen_sym_eig(sh, som), sym_eig(sh)), want):
            assert np.array_equal(got.eps, ref.eps) and np.array_equal(got.gamma, ref.gamma)
        for got, ref in zip((gen_sym_eigvals(sh, som), gen_sym_eigvals(sh)), want_eps):
            assert np.array_equal(got, ref)

    def test_sym_matrix_frozen(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_rejected(self, rng, bad):
        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        broken = h.copy()
        broken[1, 2] = broken[2, 1] = bad
        calls = (
            lambda: SymMatrix(broken),
            lambda: sym_eig(broken),
            lambda: gen_sym_eig(broken, om),
            lambda: gen_sym_eig(h, broken),
            lambda: gen_sym_eigvals(broken),
            lambda: gen_sym_eigvals(broken, om),
            lambda: gen_sym_eigvals(h, broken),
        )
        for call in calls:
            with pytest.raises(InputError, match="non-finite"):
                call()


class TestSymEig:
    def test_diagonal(self):
        pair = sym_eig(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(pair.eps, [2.0, 3.0])
        np.testing.assert_allclose(pair.gamma, np.eye(2))
        h = np.diag([2.0, 3.0])
        np.testing.assert_allclose(pair.gamma.T @ pair.gamma, np.eye(2))
        np.testing.assert_allclose(pair.gamma.T @ h @ pair.gamma, np.diag(pair.eps))

    def test_off_diagonal_pair(self):
        pair = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(pair.eps, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        # sign convention: first nonzero component positive
        np.testing.assert_allclose(pair.gamma[:, 0], [s, -s])
        np.testing.assert_allclose(pair.gamma[:, 1], [s, s])

    def test_cubic_oracle(self, rng):
        for _ in range(10):
            h = random_symmetric(rng, 3)
            pair = sym_eig(h)
            roots = cubic_roots(*char_poly_3x3(h))
            np.testing.assert_allclose(pair.eps, roots, atol=1e-10)

    def test_orthonormal_columns(self, rng):
        h = random_symmetric(rng, 7)
        pair = sym_eig(h)
        np.testing.assert_allclose(pair.gamma.T @ pair.gamma, np.eye(7), atol=1e-12)

    def test_sign_convention_deterministic(self, rng):
        h = random_symmetric(rng, 6)
        g1 = sym_eig(h).gamma
        g2 = sym_eig(h.copy()).gamma
        assert np.array_equal(g1, g2)
        for j in range(6):
            col = g1[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0

    def test_column_signs_match_loop_rule(self, rng):
        def loop_rule(gamma):
            g = gamma.copy()
            for j in range(g.shape[1]):
                col = g[:, j]
                nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
                if nz.size and col[nz[0]] < 0.0:
                    g[:, j] = -col
            return g

        gamma = rng.standard_normal((7, 9))
        gamma[:, 2] = 0.0  # all zero: left alone
        gamma[:, 4] = 0.0
        gamma[:, 5] = -gamma[:, 5]
        gamma[0, 3], gamma[1, 3] = -1e-14, 0.5  # negative but below threshold
        gamma[0, 6], gamma[1, 6] = -1e-14, -0.5  # negative below, negative lead
        gamma[:3, 7], gamma[3, 7] = 0.0, -2.0  # leading zeros, negative lead
        gamma[0, 8] = -0.0
        got = _fix_column_signs(gamma)
        want = loop_rule(gamma)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got[1, 3] > 0 and got[1, 6] > 0 and got[3, 7] > 0
        assert not np.any(got[:, 2]) and not np.any(got[:, 4])


class TestGenSymEig:
    def test_identity_overlap_matches_sym_eig(self, rng, monkeypatch):
        # an identity overlap is reduced by scaling, with no inverse formed,
        # and gives sym_eig's eigenpairs bit for bit: on a random matrix and
        # on the oscillator barrier of the README dos recipe
        inverses = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m) or real_inv(m))
        mats = build_matrices(
            SystemSpec(basis=BasisSpec("oscillator", lam=0.45, ell=0, size=100), potential=parse_potential("7.5*r^2*exp(-r)"))
        )
        assert np.array_equal(mats.omega.data, np.eye(100))
        for h, om in ((random_symmetric(rng, 5), np.eye(5)), (mats.h, mats.omega)):
            want, got = sym_eig(h), gen_sym_eig(h, om)
            assert got.eps.tobytes() == want.eps.tobytes() and got.gamma.tobytes() == want.gamma.tobytes()
        assert inverses == []

    def test_diagonal_pencil(self):
        pair = gen_sym_eig(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(pair.eps, [2.0, 3.0])

    def test_determinant_root_oracle(self, rng):
        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        pair = gen_sym_eig(h, om)
        for eps in pair.eps:
            val = det_cofactor(h - eps * om)
            scale = abs(det_cofactor(om)) * max(1.0, np.max(np.abs(pair.eps))) ** 4
            assert abs(val) / scale < 1e-8

    def test_simultaneous_diagonalization(self, rng):
        h = random_symmetric(rng, 6)
        om = random_spd(rng, 6)
        pair = gen_sym_eig(h, om)
        ht = pair.gamma.T @ h @ pair.gamma
        ot = pair.gamma.T @ om @ pair.gamma
        tol = 1e-10 * max(np.abs(h).max(), 1.0)
        # the normalization every consumer relies on: gamma^T Omega gamma = I
        # and gamma^T H gamma = diag(eps)
        np.testing.assert_allclose(ot, np.eye(6), rtol=0, atol=1e-10)
        np.testing.assert_allclose(ht, np.diag(pair.eps), rtol=0, atol=tol)

    def test_not_spd_rejected(self, rng):
        h = random_symmetric(rng, 4)
        with pytest.raises(OverlapNotSPDError, match="overlap not SPD"):
            gen_sym_eig(h, np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_overlap_factored_once(self, rng, monkeypatch):
        # the reduction's Cholesky factorization is the only one, for an
        # SPD overlap and for one that is not, which it refuses
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(matrix_core, "_has_cholesky", spy("_has_cholesky", matrix_core._has_cholesky))
        monkeypatch.setattr(np.linalg, "cholesky", spy("cholesky", np.linalg.cholesky))
        h = random_symmetric(rng, 6)
        gen_sym_eig(h, random_spd(rng, 6))
        assert calls == ["cholesky"]
        calls.clear()
        gen_sym_eig(h, _tridiagonal_spd(rng, 6))  # the bidiagonal route
        assert calls == ["cholesky"]
        calls.clear()
        with pytest.raises(OverlapNotSPDError, match="overlap not SPD"):
            gen_sym_eig(h, np.diag([1.0, 2.0, -0.5, 1.0, 3.0, 1.0]))
        assert calls == ["cholesky"]

    @pytest.mark.parametrize(
        "sub, inverses_formed",
        [
            ([0.0] * 5, 0),  # a diagonal overlap, reduced by scaling
            ([0.3, -0.2, 0.5, 0.4, -0.1], 0),  # the bidiagonal route
            ([0.3, -0.2, 0.0, 0.4, -0.1], 1),  # a zero sub-diagonal entry
            ([1e-160] * 5, 1),  # q_n = (-1e-160)^n underflows from n = 2
            ([1e-160, 0.3, -0.2, 0.4, 0.1], 1),  # q finite and nonzero, but r_k^2 H_kk overflows
        ],
        ids=["diagonal", "bidiagonal", "zero-sub-diagonal", "underflowing-q", "overflowing-sums"],
    )
    def test_tridiagonal_overlap_routes(self, rng, monkeypatch, sub, inverses_formed):
        # a tridiagonal overlap is reduced through its bidiagonal factor,
        # unless one of these takes it to the dense route through L^-1;
        # either keeps the normalization of test_simultaneous_diagonalization
        inverses = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m) or real_inv(m))
        h = random_symmetric(rng, 6)
        om = np.diag(1.0 + rng.rand(6)) + np.diag(sub, 1) + np.diag(sub, -1)
        pair = gen_sym_eig(h, om)
        assert len(inverses) == inverses_formed
        tol = 1e-10 * max(np.abs(h).max(), 1.0)
        np.testing.assert_allclose(pair.gamma.T @ om @ pair.gamma, np.eye(6), rtol=0, atol=1e-10)
        np.testing.assert_allclose(pair.gamma.T @ h @ pair.gamma, np.diag(pair.eps), rtol=0, atol=tol)


class TestGenSymEigvals:
    """The eigenvalue-only solve: gen_sym_eig's reduction, no eigenvectors."""

    @pytest.mark.parametrize("overlap", ["dense", "tridiagonal", "identity"])
    def test_eigenvalues_of_the_pencil(self, rng, overlap):
        h = random_symmetric(rng, 6)
        om = {"dense": random_spd(rng, 6), "tridiagonal": _tridiagonal_spd(rng, 6), "identity": np.eye(6)}[overlap]
        eps = gen_sym_eigvals(h, om)
        assert np.all(np.diff(eps) > 0) and not eps.flags.writeable
        np.testing.assert_allclose(eps, gen_sym_eig(h, om).eps, rtol=0, atol=1e-13 * np.max(np.abs(eps)))
        for e in eps:
            val = det_cofactor(h - e * om)
            assert abs(val) / (abs(det_cofactor(om)) * max(1.0, np.max(np.abs(eps))) ** 6) < 1e-10

    def test_identity_overlap_is_no_overlap(self, rng):
        # scaling by a unit diagonal factor hands H to eigvalsh bit for bit
        h = random_symmetric(rng, 7)
        assert gen_sym_eigvals(h, np.eye(7)).tobytes() == gen_sym_eigvals(h).tobytes()

    def test_pencil_refused(self, rng):
        h = random_symmetric(rng, 4)
        with pytest.raises(OverlapNotSPDError, match="overlap not SPD"):
            gen_sym_eigvals(h, np.diag([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(InputError, match="dimension mismatch"):
            gen_sym_eigvals(h, np.eye(3))


def _tridiagonal_spd(rng, n):
    off = 0.5 * rng.randn(n - 1)
    return np.diag(2.0 + rng.rand(n)) + np.diag(off, 1) + np.diag(off, -1)


BARRIER = "7.5*r^2*exp(-r)"
TWO_GAUSSIAN = "5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)"


def _laguerre_pencil(text, lam, ell, size):
    mats = build_matrices(
        SystemSpec(basis=BasisSpec("laguerre", lam=lam, ell=ell, size=size), potential=parse_potential(text))
    )
    return mats.h.data, mats.omega.data


def _permuted(h, omega):
    """The pencil with rows and columns reordered 0, 3, 6, ..., 1, 4, ...,
    so that its overlap is no longer tridiagonal, and the new index of
    the last basis row."""
    perm = np.argsort(np.arange(h.shape[0]) % 3, kind="stable")
    return h[np.ix_(perm, perm)], omega[np.ix_(perm, perm)], int(np.flatnonzero(perm == h.shape[0] - 1)[0])


class TestLaguerrePencilsAgainstMpmath:
    """Both reductions of gen_sym_eig, and the eigenvalue-only solve
    gen_sym_eigvals on each, against a 40-digit solve of the same
    Laguerre pencil: the bidiagonal one on the pencil as built, the dense
    one on the pencil permuted. Largest errors measured, over the five
    systems and both routes: eigenvalues 1.24e-14 of max |eps|, last-row
    weights 2.95e-12 of the largest weight (both at N = 100-120, dense);
    at N <= 60 they are 1.7e-15 and 5.5e-13."""

    EPS_TOL = PENCIL_EPS_TOL
    WEIGHT_TOL = 5e-12

    @pytest.mark.parametrize(
        "text, lam, ell, size",
        [
            pytest.param(BARRIER, 1.0, 0, 60, id="barrier-lam1-ell0-N60"),
            pytest.param("-2*exp(-r)", 3.0, 2, 40, id="exp-lam3-ell2-N40"),
            pytest.param(BARRIER, 3.0, 3, 80, id="barrier-lam3-ell3-N80", marks=pytest.mark.slow),
            pytest.param(TWO_GAUSSIAN, 20.0, 0, 100, id="gauss-lam20-ell0-N100", marks=pytest.mark.slow),
            pytest.param(TWO_GAUSSIAN, 10.0, 1, 120, id="gauss-lam10-ell1-N120", marks=pytest.mark.slow),
        ],
    )
    def test_eigenpairs(self, monkeypatch, text, lam, ell, size):
        h, om = _laguerre_pencil(text, lam, ell, size)
        eps_ref, weights_ref = mp_pencil_reference(h, om)
        inverses = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m) or real_inv(m))
        for hh, oo, last, dense in ((h, om, size - 1, False), (*_permuted(h, om), True)):
            inverses.clear()
            pair = gen_sym_eig(hh, oo)
            assert len(inverses) == dense
            assert np.max(np.abs(pair.eps - eps_ref)) <= self.EPS_TOL * np.max(np.abs(eps_ref))
            weights = pair.gamma[last] ** 2
            assert np.max(np.abs(weights - weights_ref)) <= self.WEIGHT_TOL * np.max(weights_ref)
            eps = gen_sym_eigvals(hh, oo)
            assert len(inverses) == 2 * dense
            assert np.max(np.abs(eps - eps_ref)) <= self.EPS_TOL * np.max(np.abs(eps_ref))

    def test_identity_overlap(self):
        # an oscillator pencil, whose overlap is the identity: reduced by
        # scaling, and with no overlap given at all
        mats = build_matrices(
            SystemSpec(basis=BasisSpec("oscillator", lam=0.45, ell=0, size=40), potential=parse_potential(BARRIER))
        )
        h, om = mats.h.data, mats.omega.data
        np.testing.assert_array_equal(om, np.eye(40))
        eps_ref, weights_ref = mp_pencil_reference(h, om)
        tol = self.EPS_TOL * np.max(np.abs(eps_ref))
        pair = gen_sym_eig(h, om)
        assert np.max(np.abs(pair.eps - eps_ref)) <= tol
        assert np.max(np.abs(pair.gamma[-1] ** 2 - weights_ref)) <= self.WEIGHT_TOL * np.max(weights_ref)
        for eps in (gen_sym_eigvals(h, om), gen_sym_eigvals(h)):
            assert np.max(np.abs(eps - eps_ref)) <= tol

    @pytest.mark.parametrize("text, lam, ell", [(TWO_GAUSSIAN, 10.0, 1), (BARRIER, 1.0, 0)])
    def test_routes_agree_at_n200(self, text, lam, ell):
        # the largest N of the documented parameter space, where no oracle
        # runs in Tier-1 time, so the two routes are held to each other.
        # Measured on the barrier (lam 1, ell 0; lam 3, ell 3) and the
        # two-Gaussian (lam 20, ell 0; lam 10, ell 1): eigenvalues within
        # 3.3e-14 of max |eps| (this two-Gaussian), weights within 6.0e-12
        # of the largest (this barrier)
        h, om = _laguerre_pencil(text, lam, ell, 200)
        pair = gen_sym_eig(h, om)
        hp, omp, last = _permuted(h, om)
        dense = gen_sym_eig(hp, omp)
        assert np.max(np.abs(pair.eps - dense.eps)) <= 5e-14 * np.max(np.abs(pair.eps))
        weights, dense_weights = pair.gamma[-1] ** 2, dense.gamma[last] ** 2
        assert np.max(np.abs(weights - dense_weights)) <= 1e-11 * np.max(weights)


class TestDeleteRowCol:
    def test_index_bookkeeping(self):
        a = np.arange(9.0).reshape(3, 3)  # a[i, j] = 3 i + j
        out = delete_row_col(a, 0, 1)
        np.testing.assert_array_equal(out, [[3.0, 5.0], [6.0, 8.0]])

    def test_identity_center(self):
        out = delete_row_col(np.eye(3), 1, 1)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_identity_off_center(self):
        # hand enumeration: rows (1, 2) and columns (0, 2) of the identity
        out = delete_row_col(np.eye(3), 0, 1)
        np.testing.assert_array_equal(out, [[0.0, 0.0], [0.0, 1.0]])

    def test_entry_map_property(self, rng):
        a = rng.randn(5, 5)
        n, m = 2, 3
        out = delete_row_col(a, n, m)
        for i in range(4):
            for j in range(4):
                assert out[i, j] == a[i + (i >= n), j + (j >= m)]

    def test_too_small(self):
        with pytest.raises(InputError, match="empty submatrix"):
            delete_row_col(np.array([[1.0]]), 0, 0)


class TestDet:
    """The cofactor-expansion determinant that the tests use as an oracle."""

    def test_identity(self):
        assert det_cofactor(np.eye(6)) == 1.0

    def test_upper_triangular(self, rng):
        a = np.triu(rng.randn(5, 5))
        np.testing.assert_allclose(det_cofactor(a), np.prod(np.diag(a)), rtol=1e-12)

    def test_cofactor_oracle(self, rng):
        for _ in range(5):
            a = rng.randn(4, 4)
            np.testing.assert_allclose(np.linalg.det(a), det_cofactor(a), rtol=1e-10)

    def test_singular_is_zero(self):
        assert abs(det_cofactor(np.ones((3, 3)))) < 1e-12


class TestInterlacing:
    def test_cauchy_interlacing(self, rng):
        h = random_symmetric(rng, 7)
        eps = np.linalg.eigvalsh(h)
        for n in range(7):
            sub = np.linalg.eigvalsh(delete_row_col(h, n, n))
            assert np.all(eps[:-1] <= sub + 1e-12)
            assert np.all(sub <= eps[1:] + 1e-12)


class TestCofactorInverseIdentity:
    def test_inverse_from_deleted_determinants(self, rng):
        c = rng.randn(5, 5) + 5.0 * np.eye(5)
        inv = np.linalg.inv(c)
        dc = det_cofactor(c)
        for n in range(5):
            for m in range(5):
                val = det_cofactor(delete_row_col(c, n, m)) * (-1.0) ** (n + m) / dc
                np.testing.assert_allclose(val, inv[m, n], rtol=1e-9, atol=1e-12)
