import numpy as np
import pytest

from resolvent_kit import matrix_core
from resolvent_kit.errors import InputError, OverlapNotSPDError
from resolvent_kit.matrix_core import (
    SymMatrix,
    _fix_column_signs,
    delete_row_col,
    gen_sym_eig,
    sym_eig,
)

from conftest import char_poly_3x3, cubic_roots, det_cofactor, random_spd, random_symmetric


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
        sh, som = SymMatrix(h), SymMatrix(om)

        def refuse(*args, **kwargs):
            raise AssertionError("symmetry checked again")

        monkeypatch.setattr(np, "allclose", refuse)
        for got, ref in zip((gen_sym_eig(sh, som), sym_eig(sh)), want):
            assert np.array_equal(got.eps, ref.eps) and np.array_equal(got.gamma, ref.gamma)

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
    def test_identity_overlap_matches_sym_eig(self, rng):
        h = random_symmetric(rng, 5)
        a = sym_eig(h)
        b = gen_sym_eig(h, np.eye(5))
        np.testing.assert_allclose(a.eps, b.eps, atol=1e-12)
        np.testing.assert_allclose(a.gamma, b.gamma, atol=1e-10)

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
        with pytest.raises(OverlapNotSPDError, match="overlap not SPD"):
            gen_sym_eig(h, np.diag([1.0, 2.0, -0.5, 1.0, 3.0, 1.0]))
        assert calls == ["cholesky"]


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
