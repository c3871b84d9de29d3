import numpy as np
import pytest

from resolvent_kit import matrix_core
from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
from resolvent_kit.errors import (
    DegenerateSpectrumError,
    InputError,
    SingularSubmatrixError,
    SpectrumEvaluationError,
)
from resolvent_kit.matrix_core import SymMatrix, delete_row_col, gen_sym_eig, sym_eig
from resolvent_kit.potential import parse_potential
from resolvent_kit.resolvent import (
    _BATCH_SIZE,
    PartialFractions,
    ResolventInput,
    _product_form,
    eigvec_from_eigs_general,
    green_cofactor,
    green_eigprod_general,
    green_partial_fractions,
    green_spectral,
    inverse_oracle,
    paired_product_ratio,
)

from conftest import det_cofactor, random_spd, random_symmetric


def tridiag_spd(n):
    return np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -0.7), 1) + np.diag(np.full(n - 1, -0.7), -1)


def diag_orthonormal(h, z, n):
    """G_nn(z) in an orthonormal basis as a pure eigenvalue ratio."""
    return green_eigprod_general(ResolventInput(h=h, omega=None, z=z), n, n)


class TestResolventInputValidation:
    def test_matrices_kept_exactly_as_sym_matrix(self, rng):
        h, om = random_symmetric(rng, 4), random_spd(rng, 4)
        inp = ResolventInput(h=h, omega=om, z=1j)
        assert isinstance(inp.h, SymMatrix) and isinstance(inp.omega, SymMatrix)
        assert np.array_equal(inp.h.data, h) and np.array_equal(inp.omega.data, om)
        pair, want = inp.spectral_pair, gen_sym_eig(h, om)
        assert np.array_equal(pair.eps, want.eps) and np.array_equal(pair.gamma, want.gamma)

    def test_round_off_asymmetry_is_symmetrized(self, rng):
        h = random_symmetric(rng, 4)
        h[0, 1] += 1e-15
        inp = ResolventInput(h=h, omega=None, z=1j)
        assert np.array_equal(inp.h.data, inp.h.data.T)
        assert inp.h.data[0, 1] == 0.5 * (h[0, 1] + h[1, 0])

    def test_spectral_pair_validates_no_matrix_again(self, rng, monkeypatch):
        inp = ResolventInput(h=random_symmetric(rng, 4), omega=random_spd(rng, 4), z=1j)
        seen = []
        check = matrix_core._as_sym_array
        monkeypatch.setattr(matrix_core, "_as_sym_array", lambda a: seen.append(type(a)) or check(a))
        inp.spectral_pair
        assert seen == [SymMatrix, SymMatrix]

    def test_spectral_pair_computed_once(self, rng, monkeypatch):
        # construction factors the overlap once to check it is SPD, and the
        # first green_spectral once more for the pencil; the second call
        # reuses that pair, with values identical to a fresh input's
        h, om = random_symmetric(rng, 5), random_spd(rng, 5)
        want = [green_spectral(ResolventInput(h=h, omega=om, z=0.3j), n, n) for n in (0, 3)]
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        inp = ResolventInput(h=h, omega=om, z=0.3j)
        got = [green_spectral(inp, n, n) for n in (0, 3)]
        assert len(calls) == 2
        assert got[0] == want[0] and got[1] == want[1]

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(InputError, match="dimensions differ"):
            ResolventInput(h=random_symmetric(rng, 3), omega=random_spd(rng, 4), z=1j)


class TestIndexChecks:
    """Every route refuses an index outside 0..size-1 with InputError; -1
    would otherwise wrap around to the last basis function or eigenvalue."""

    ROUTES = (
        "green_spectral",
        "green_cofactor",
        "green_eigprod_general",
        "green_partial_fractions",
        "from_pair",
        "eigvec_from_eigs_general",
    )

    @staticmethod
    def call(route, h, om, n, m):
        inp = ResolventInput(h=h, omega=om, z=0.3j)
        if route == "green_spectral":
            return green_spectral(inp, n, m)
        if route == "green_cofactor":
            return green_cofactor(inp, n, m)
        if route == "green_eigprod_general":
            return green_eigprod_general(inp, n, m)
        if route == "green_partial_fractions":
            return green_partial_fractions(h, n, m)
        if route == "from_pair":
            return PartialFractions.from_pair(inp.spectral_pair, n, m)
        return eigvec_from_eigs_general(h, om, n, m)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n, m", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_basis_index_out_of_range(self, route, n, m, rng):
        h = random_symmetric(rng, 3)
        om = None if route == "green_partial_fractions" else tridiag_spd(3)
        with pytest.raises(InputError, match="out of range"):
            self.call(route, h, om, n, m)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("omega", [None, 2.0])
    def test_one_by_one(self, route, omega):
        h, om = np.array([[3.0]]), None if omega is None else np.array([[omega]])
        weight = 1.0 if omega is None else 1.0 / omega
        got = self.call(route, h, om, 0, 0)
        if route in ("green_spectral", "green_cofactor", "green_eigprod_general"):
            want = 1.0 / (3.0 - 0.3j * (1.0 if omega is None else omega))
            assert got == pytest.approx(want, rel=1e-14)
        elif route == "eigvec_from_eigs_general":
            np.testing.assert_allclose(got, [weight], rtol=1e-14)
        else:  # green_partial_fractions reads H alone, as an orthonormal basis
            want = 1.0 if route == "green_partial_fractions" else weight
            np.testing.assert_allclose(got.coeffs, [want], rtol=1e-14)
        for n, m in [(1, 0), (0, 1), (-1, -1)]:
            with pytest.raises(InputError, match="out of range"):
                self.call(route, h, om, n, m)


class TestGreenSpectral:
    def test_scalar_case(self):
        inp = ResolventInput(h=np.array([[2.5]]), omega=None, z=1.0 + 1.0j)
        assert green_spectral(inp, 0, 0) == pytest.approx(1.0 / (2.5 - (1 + 1j)))

    def test_diagonal(self):
        inp = ResolventInput(h=np.diag([1.0, 2.0]), omega=None, z=0.0)
        assert green_spectral(inp, 0, 0) == pytest.approx(1.0)
        assert green_spectral(inp, 1, 1) == pytest.approx(0.5)
        assert green_spectral(inp, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_against_direct_inverse(self, rng):
        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        inp = ResolventInput(h=h, omega=om, z=0.3 + 0.1j)
        inv = inverse_oracle(inp)
        for n in range(4):
            for m in range(4):
                got = green_spectral(inp, n, m)
                assert abs(got - inv[n, m]) <= 1e-9 * abs(inv[n, m]) + 1e-12

    def test_pole_rejection(self):
        h = np.diag([1.0, 2.0])
        inp = ResolventInput(h=h, omega=None, z=1.0)
        with pytest.raises(SpectrumEvaluationError) as err:
            green_spectral(inp, 0, 0)
        assert err.value.pole == pytest.approx(1.0)

    def test_symmetry(self, rng):
        h = random_symmetric(rng, 5)
        om = random_spd(rng, 5)
        inp = ResolventInput(h=h, omega=om, z=0.2 + 0.4j)
        for n in range(5):
            for m in range(n):
                assert green_spectral(inp, n, m) == pytest.approx(green_spectral(inp, m, n))

    def test_herglotz(self, rng):
        h = random_symmetric(rng, 6)
        for e in (-1.0, 0.3, 2.0):
            inp = ResolventInput(h=h, omega=None, z=e + 0.05j)
            for n in range(6):
                assert green_spectral(inp, n, n).imag > 0.0


class TestGreenCofactor:
    def test_two_by_two(self):
        inp = ResolventInput(h=np.array([[2.0, 1.0], [1.0, 3.0]]), omega=None, z=0.0)
        # direct inversion: inv = [[3, -1], [-1, 2]] / 5
        assert green_cofactor(inp, 0, 1) == pytest.approx(-1.0 / 5.0)

    def test_identity_diagonal(self):
        inp = ResolventInput(h=np.eye(4), omega=None, z=0.0)
        for n in range(4):
            assert green_cofactor(inp, n, n) == pytest.approx(1.0)

    def test_matches_spectral(self, rng):
        h = random_symmetric(rng, 5)
        om = random_spd(rng, 5)
        zs = rng.randn(10) + 1j * rng.uniform(0.1, 1.0, 10)
        for z in zs:
            inp = ResolventInput(h=h, omega=om, z=complex(z))
            for n in range(5):
                for m in range(5):
                    a = green_spectral(inp, n, m)
                    b = green_cofactor(inp, n, m)
                    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-3)

    def test_singular_pencil_rejected(self):
        inp = ResolventInput(h=np.diag([1.0, 2.0]), omega=None, z=1.0)
        with pytest.raises(SpectrumEvaluationError):
            green_cofactor(inp, 0, 0)

    def test_every_eigenvalue_refused(self):
        # on this pencil the LU pivot rounds to ~1e-16, not 0, at most of
        # its eigenvalues, which once gave |G_11| of 1e12 .. 6e14 there
        rng = np.random.RandomState(3)
        h, om = random_symmetric(rng, 6), random_spd(rng, 6)
        for pole in gen_sym_eig(h, om).eps:
            inp = ResolventInput(h=h, omega=om, z=float(pole))
            with pytest.raises(SpectrumEvaluationError) as err:
                green_cofactor(inp, 1, 1)
            assert err.value.pole == pole and isinstance(err.value.pole, float)
            with pytest.raises(SpectrumEvaluationError) as spectral:
                green_spectral(inp, 1, 1)
            assert str(err.value) == str(spectral.value)


class TestGreenEigprodGeneral:
    def test_identity_overlap_diagonal_matches_orthonormal_form(self, rng):
        h = random_symmetric(rng, 4)
        z = 0.37 + 0.2j
        inp = ResolventInput(h=h, omega=np.eye(4), z=z)
        for n in range(4):
            a = green_eigprod_general(inp, n, n)
            b = diag_orthonormal(h, z, n)
            assert a == pytest.approx(b, rel=1e-10)

    def test_tridiagonal_overlap_matches_cofactor(self, rng):
        h = random_symmetric(rng, 3)
        om = tridiag_spd(3)
        inp = ResolventInput(h=h, omega=om, z=0.0)
        a = green_eigprod_general(inp, 1, 1)
        b = green_cofactor(inp, 1, 1)
        assert a == pytest.approx(b, rel=1e-9)

    def test_off_diagonal_with_complex_sub_eigenvalues(self, rng):
        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        inp = ResolventInput(h=h, omega=om, z=0.15 + 0.3j)
        for n, m in ((0, 1), (2, 0), (3, 1)):
            a = green_eigprod_general(inp, n, m)
            b = green_cofactor(inp, n, m)
            assert abs(a - b) <= 1e-9 * max(abs(b), 1e-3)

    def test_singular_deleted_overlap_rejected(self, rng):
        # diagonal (non-identity) overlap: deleting row 0 and column 2
        # leaves a matrix with a zero column, exactly singular
        om = np.diag([1.0, 2.0, 3.0])
        assert det_cofactor(delete_row_col(om, 0, 2)) == 0.0
        h = random_symmetric(rng, 3)
        inp = ResolventInput(h=h, omega=om, z=0.1j)
        with pytest.raises(SingularSubmatrixError, match="green_cofactor"):
            green_eigprod_general(inp, 0, 2)

    def test_tridiagonal_far_off_diagonal_is_fine(self, rng):
        # a tridiagonal overlap's deleted submatrix at |n-m| = 2 is
        # triangular with nonzero diagonal, so the product form applies
        om = tridiag_spd(3)
        assert abs(det_cofactor(delete_row_col(om, 0, 2))) > 0.1
        h = random_symmetric(rng, 3)
        inp = ResolventInput(h=h, omega=om, z=0.1j)
        a = green_eigprod_general(inp, 0, 2)
        b = green_cofactor(inp, 0, 2)
        assert abs(a - b) <= 1e-9 * max(abs(b), 1e-6)

    def test_orthonormal_basis_diagonal_matches_inverse(self, rng):
        h = random_symmetric(rng, 5)
        for z in (0.3 + 0.4j, -1.2 + 0.05j, 7.0):
            inp = ResolventInput(h=h, omega=None, z=z)
            inv = inverse_oracle(inp)
            for n in range(5):
                got = green_eigprod_general(inp, n, n)
                assert abs(got - inv[n, n]) <= 1e-10 * abs(inv[n, n])
                assert abs(got - green_cofactor(inp, n, n)) <= 1e-10 * abs(inv[n, n])

    def test_orthonormal_basis_off_diagonal_refused(self, rng):
        # the deleted identity I^(n,m) has a zero row for n != m
        inp = ResolventInput(h=random_symmetric(rng, 4), omega=None, z=1j)
        for n, m in ((0, 1), (3, 0), (1, 3)):
            with pytest.raises(SingularSubmatrixError, match="green_partial_fractions"):
                green_eigprod_general(inp, n, m)

    def test_deleted_pencil_eigenvalues_are_determinant_roots(self, rng):
        # off the diagonal the deleted pencil is nonsymmetric: its complex
        # eigenvalues multiply to det H^(n,m) / det Omega^(n,m), and each
        # is a root of det(H^(n,m) - lam Omega^(n,m)), by cofactor expansion
        h = random_symmetric(rng, 5)
        om = random_spd(rng, 5)
        for n, m in ((0, 1), (3, 1), (4, 2)):
            hs, os_ = delete_row_col(h, n, m), delete_row_col(om, n, m)
            sub = _product_form(h, om, n, m)[1]
            assert sub.size == 4
            np.testing.assert_allclose(np.prod(sub), det_cofactor(hs) / det_cofactor(os_), rtol=1e-10)
            scale = abs(det_cofactor(os_)) * max(1.0, np.max(np.abs(sub))) ** 4
            for lam in sub:
                assert abs(det_cofactor(hs - lam * os_)) / scale < 1e-10


class TestGreenDiagOrthonormal:
    def test_two_by_two_exact(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        # deleted spectrum {0}, full spectrum {-1, 1}:
        # (0 - 2i) / ((-1 - 2i)(1 - 2i)) = -2i / -5 = 0.4i
        got = diag_orthonormal(h, 2j, 0)
        assert got == pytest.approx(0.4j)

    def test_diagonal(self):
        assert diag_orthonormal(np.diag([1.0, 2.0]), 0.0, 0) == pytest.approx(1.0)

    def test_matches_spectral(self, rng):
        h = random_symmetric(rng, 6)
        zs = rng.randn(5) + 1j * rng.uniform(0.1, 1.0, 5)
        for z in zs:
            inp = ResolventInput(h=h, omega=None, z=complex(z))
            for n in range(6):
                a = diag_orthonormal(h, complex(z), n)
                b = green_spectral(inp, n, n)
                assert abs(a - b) <= 1e-10 * max(abs(b), 1e-3)


class TestInverseOracle:
    def test_identity(self):
        inp = ResolventInput(h=np.eye(3), omega=None, z=0.0)
        np.testing.assert_allclose(inverse_oracle(inp), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        inp = ResolventInput(h=np.diag([1.0, 2.0]), omega=None, z=0.0)
        np.testing.assert_allclose(inverse_oracle(inp), np.diag([1.0, 0.5]), atol=1e-14)

    def test_residual(self, rng):
        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        inp = ResolventInput(h=h, omega=om, z=0.2 + 0.7j)
        res = inp.pencil() @ inverse_oracle(inp) - np.eye(4)
        assert np.max(np.abs(res)) < 1e-11


class TestPartialFractions:
    def test_diagonal(self):
        pf = green_partial_fractions(np.diag([1.0, 2.0]), 0, 0)
        np.testing.assert_allclose(pf.poles, [1.0, 2.0])
        np.testing.assert_allclose(pf.coeffs, [1.0, 0.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        # off-diagonal element of [[2,1],[1,3]]: -1/((e0-z)(e1-z)) expands
        # to A0/(e0-z) + A1/(e1-z) with A0 = -1/(e1-e0), A1 = +1/(e1-e0)
        # and e = (5 -/+ sqrt(5))/2, so e1 - e0 = sqrt(5)
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        pf = green_partial_fractions(h, 0, 1)
        np.testing.assert_allclose(pf.poles, [(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2])
        np.testing.assert_allclose(pf.coeffs, [-1 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-12)

    def test_sum_rule(self, rng):
        h = random_symmetric(rng, 5)
        for n in range(5):
            for m in range(5):
                pf = green_partial_fractions(h, n, m)
                target = 1.0 if n == m else 0.0
                assert abs(pf.coeffs.sum() - target) < 1e-10

    def test_reproduces_spectral_sum(self, rng):
        h = random_symmetric(rng, 5)
        pf = green_partial_fractions(h, 1, 3)
        for z in (0.3 + 0.4j, -2.0 + 0.0j, 5.0 + 2.0j):
            inp = ResolventInput(h=h, omega=None, z=z)
            value, on_pole = pf.evaluate(z)
            assert not on_pole
            assert complex(value) == pytest.approx(green_spectral(inp, 1, 3), rel=1e-9, abs=1e-12)

    def test_from_pair_matches_inverse_across_batches(self, rng):
        # a non-orthogonal pencil, an off-diagonal element, and complex
        # points filling three batches and one point of a fourth
        h = random_symmetric(rng, 6)
        om = random_spd(rng, 6)
        pair = gen_sym_eig(h, om)
        zs = rng.uniform(-4.0, 4.0, 3 * _BATCH_SIZE + 1) + 1j * rng.uniform(0.05, 2.0, 3 * _BATCH_SIZE + 1)
        want = np.array([inverse_oracle(ResolventInput(h=h, omega=om, z=z))[1, 4] for z in zs])
        values, on_pole = PartialFractions.from_pair(pair, 1, 4).evaluate(zs)
        assert values.shape == on_pole.shape == zs.shape
        assert not on_pole.any()
        assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-10

    def test_from_pair_residues_match_eigenvalue_only_route(self, rng):
        h = random_symmetric(rng, 5)
        for n, m in ((0, 0), (1, 3), (4, 2)):
            got = PartialFractions.from_pair(sym_eig(h), n, m).coeffs
            np.testing.assert_allclose(got, green_partial_fractions(h, n, m).coeffs, rtol=0, atol=1e-10)

    def test_real_points_stay_real_and_flag_poles(self):
        pf = PartialFractions.from_pair(sym_eig(np.diag([1.0, 2.0])), 0, 0)
        values, on_pole = pf.evaluate(np.array([0.5, 1.0, 3.0]))
        assert values.dtype == np.float64
        assert on_pole.tolist() == [False, True, False]
        assert values[0] == 2.0 and np.isnan(values[1]) and values[2] == -0.5
        value, on_pole = pf.evaluate(1.0 + 0j)
        assert value.shape == () and bool(on_pole)
        assert np.isnan(value.real) and np.isnan(value.imag)

    def test_residues_are_eigenvector_products(self, rng):
        h = random_symmetric(rng, 5)
        pair = sym_eig(h)
        pf = green_partial_fractions(h, 0, 2)
        np.testing.assert_allclose(pf.coeffs, pair.gamma[0] * pair.gamma[2], atol=1e-10)

    def test_diagonal_coeffs_nonnegative(self, rng):
        h = random_symmetric(rng, 6)
        for n in range(6):
            pf = green_partial_fractions(h, n, n)
            assert np.all(pf.coeffs >= -1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError, match="green_spectral"):
            green_partial_fractions(np.eye(3), 0, 0)


class TestEigvecFromEigenvalues:
    def test_half_by_symmetry(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(eigvec_from_eigs_general(h, None, 0, 0), [0.5, 0.5], rtol=1e-14)

    def test_scalar(self):
        np.testing.assert_allclose(eigvec_from_eigs_general(np.array([[3.0]]), None, 0, 0), [1.0], rtol=1e-14)

    def test_against_eigensolver(self, rng):
        h = random_symmetric(rng, 8)
        pair = sym_eig(h)
        for n in range(8):
            got = eigvec_from_eigs_general(h, None, n, n)
            assert got.shape == (8,)
            assert np.max(np.abs(got - pair.gamma[n] ** 2)) < 1e-10
            assert np.all((-1e-12 <= got) & (got <= 1.0 + 1e-12))

    def test_completeness(self, rng):
        h = random_symmetric(rng, 7)
        for n in range(7):
            assert abs(eigvec_from_eigs_general(h, None, n, n).sum() - 1.0) < 1e-10

    def test_prod_reduces_to_square(self, rng):
        h = random_symmetric(rng, 5)
        pair = sym_eig(h)
        for n in range(5):
            got = green_partial_fractions(h, n, n).coeffs
            np.testing.assert_allclose(got, pair.gamma[n] * pair.gamma[n], rtol=0, atol=1e-11)

    def test_prod_against_eigensolver(self):
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        pair = sym_eig(h)
        got = green_partial_fractions(h, 0, 1).coeffs[0]
        assert abs(got - pair.gamma[0, 0] * pair.gamma[1, 0]) < 1e-12

    def test_spectral_reconstruction(self, rng):
        h = random_symmetric(rng, 6)
        eps = np.linalg.eigvalsh(h)
        for n in range(6):
            for m in range(6):
                assert abs(green_partial_fractions(h, n, m).coeffs @ eps - h[n, m]) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            eigvec_from_eigs_general(np.eye(2), None, 0, 0)

    def test_oscillator_rows_and_residues_at_n100(self):
        # the oscillator barrier pencil of the DOS recipe; the polarized
        # residues are a difference of two weight rows, so both are bounded
        # in absolute terms, relative to the largest weight of rows n and m.
        # Measured worst against numpy's eigh: 5.4e-13 over all 100 rows,
        # 6.0e-13 over the residues of all 4950 pairs n > m
        spec = SystemSpec(
            basis=BasisSpec("oscillator", lam=0.45, ell=0, size=100), potential=parse_potential("7.5*r^2*exp(-r)")
        )
        h = build_matrices(spec).h
        gamma = sym_eig(h).gamma
        scale = np.max(gamma**2, axis=1)
        for n in range(100):
            row = eigvec_from_eigs_general(h, None, n, n)
            assert np.max(np.abs(row - gamma[n] ** 2)) <= 1e-12 * scale[n]
        for n in range(3, 100):
            coeffs = green_partial_fractions(h, n, n - 3).coeffs
            err = np.max(np.abs(coeffs - gamma[n] * gamma[n - 3]))
            assert err <= 1e-12 * max(scale[n], scale[n - 3])


class TestEigvecGeneral:
    def test_identity_overlap_reduction(self, rng):
        h = random_symmetric(rng, 4)
        for n in range(4):
            a = eigvec_from_eigs_general(h, np.eye(4), n, n)
            b = green_partial_fractions(h, n, n).coeffs
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        # off the diagonal the deleted identity is singular and the
        # product form is undefined, exactly like the resolvent case
        with pytest.raises(SingularSubmatrixError):
            eigvec_from_eigs_general(h, np.eye(4), 1, 2)

    def test_against_generalized_eigensolver(self, rng):
        h = random_symmetric(rng, 3)
        om = tridiag_spd(3)
        pair = gen_sym_eig(h, om)
        got = eigvec_from_eigs_general(h, om, 1, 1)
        assert np.max(np.abs(got - pair.gamma[1] ** 2)) < 1e-9

    def test_overlap_eigenvalue_form(self, rng):
        # same quantity written with the overlap eigenvalue products
        # tau (full) and tau (deleted) instead of determinants
        import scipy.linalg

        h = random_symmetric(rng, 4)
        om = random_spd(rng, 4)
        pair = gen_sym_eig(h, om)
        n = 2
        tau = np.linalg.eigvalsh(om)
        tau_sub = np.linalg.eigvalsh(delete_row_col(om, n, n))
        eps = pair.eps
        eps_sub = scipy.linalg.eigh(
            delete_row_col(h, n, n), delete_row_col(om, n, n), eigvals_only=True
        )
        got = eigvec_from_eigs_general(h, om, n, n)
        for k in range(4):
            ratio = (np.prod(tau_sub) / np.prod(tau)) * np.prod(eps_sub - eps[k]) / np.prod(
                np.delete(eps, k) - eps[k]
            )
            assert got[k] == pytest.approx(ratio, rel=1e-10, abs=1e-12)

    def test_singular_deleted_overlap_rejected(self, rng):
        om = np.diag([1.0, 2.0, 3.0])
        h = random_symmetric(rng, 3)
        with pytest.raises(SingularSubmatrixError):
            eigvec_from_eigs_general(h, om, 0, 2)

    def test_orthonormal_basis_weights_sum_to_inverse(self, rng):
        # sum_k gamma[n,k]^2 / (eps_k - z) is G_nn(z)
        h = random_symmetric(rng, 5)
        eps = np.linalg.eigvalsh(h)
        inp = ResolventInput(h=h, omega=None, z=0.3 + 0.4j)
        inv = inverse_oracle(inp)
        for n in range(5):
            got = np.sum(eigvec_from_eigs_general(h, None, n, n) / (eps - inp.z))
            assert abs(got - inv[n, n]) <= 1e-10 * abs(inv[n, n])
            assert abs(got - green_cofactor(inp, n, n)) <= 1e-10 * abs(inv[n, n])

    def test_orthonormal_basis_off_diagonal_refused(self, rng):
        h = random_symmetric(rng, 4)
        with pytest.raises(SingularSubmatrixError, match="green_partial_fractions"):
            eigvec_from_eigs_general(h, None, 1, 3)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_matrices_rejected(rng, bad):
    h = random_symmetric(rng, 4)
    om = random_spd(rng, 4)
    calls = []
    for which in ("h", "omega"):
        mats = {"h": h.copy(), "omega": om.copy()}
        mats[which][0, 3] = mats[which][3, 0] = bad
        calls.append(lambda mats=mats: ResolventInput(h=mats["h"], omega=mats["omega"], z=0.2j))
        calls.append(lambda mats=mats: eigvec_from_eigs_general(mats["h"], mats["omega"], 1, 2))
    for call in calls:
        with pytest.raises(InputError, match="non-finite"):
            call()


class TestFormulaEquivalence:
    def test_all_routes_agree(self, rng):
        for n_dim in (2, 4, 6, 8):
            h = random_symmetric(rng, n_dim)
            om = random_spd(rng, n_dim)
            for _ in range(20):
                z = complex(rng.randn() * 2.0, rng.uniform(0.05, 1.0))
                inp = ResolventInput(h=h, omega=om, z=z)
                inv = inverse_oracle(inp)
                n = rng.randint(n_dim)
                m = rng.randint(n_dim)
                ref = inv[n, m]
                tol = 1e-9 * max(abs(ref), 1e-3)
                assert abs(green_spectral(inp, n, m) - ref) <= tol
                assert abs(green_cofactor(inp, n, m) - ref) <= tol
                try:
                    assert abs(green_eigprod_general(inp, n, m) - ref) <= tol
                except SingularSubmatrixError:
                    pass  # legitimately undefined for this (n, m)

    def test_pole_residue_limit(self, rng):
        # approaching a pole, (eps_k - z) * G tends to the residue
        h = random_symmetric(rng, 5)
        pair = sym_eig(h)
        pf = green_partial_fractions(h, 2, 2)
        k = 2
        for d in (1e-4, 1e-6):
            z = pair.eps[k] + d * 1j
            inp = ResolventInput(h=h, omega=None, z=z)
            val = green_spectral(inp, 2, 2) * (pair.eps[k] - z)
            assert abs(val - pf.coeffs[k]) < 2.0 * d


class TestPairedProductRatio:
    def test_matches_naive_when_safe(self, rng):
        num = rng.randn(6) + 1j * rng.randn(6)
        den = rng.randn(7) + 1j * rng.randn(7)
        got = paired_product_ratio(num, den)
        want = np.prod(num) / np.prod(den)
        assert got == pytest.approx(want, rel=1e-12)

    def test_large_dimension_no_overflow(self):
        # raw products of 100 factors of magnitude ~300 overflow doubles
        num = np.full(100, 300.0)
        den = np.full(100, 300.0) * 1.0000001
        got = paired_product_ratio(num, den)
        assert np.isfinite(got)
        assert got == pytest.approx((1.0 / 1.0000001) ** 100, rel=1e-9)

    def test_rows_round_as_one_dimensional_calls(self, rng):
        # leading axes broadcast, and each row rounds bit for bit as its
        # own 1-D call, unmatched denominator factors included
        num = rng.randn(2, 5, 6) + 1j * rng.randn(2, 5, 6)
        den = rng.randn(5, 8)
        got = paired_product_ratio(num, den)
        assert got.shape == (2, 5)
        for i in range(2):
            for j in range(5):
                assert got[i, j] == paired_product_ratio(num[i, j], den[j])

    def test_more_numerators_rejected(self):
        with pytest.raises(InputError):
            paired_product_ratio(np.ones(3), np.ones(2))
