"""Shared test helpers: random matrix factories and independent oracles.

The oracles here deliberately avoid the code paths they check: the
determinant oracle is cofactor expansion, the cubic eigenvalue oracle is
Cardano's closed form, and the pencil oracle a 40-digit mpmath solve,
never LAPACK.
"""

import math

import mpmath as mp
import numpy as np
import pytest

# The bound on either eigenvalue route of a Laguerre pencil against
# ``mp_pencil_reference``, relative to max |eps|.
PENCIL_EPS_TOL = 2e-14


@pytest.fixture
def rng():
    return np.random.RandomState(20240711)


def random_symmetric(rng, n, scale=1.0):
    a = rng.randn(n, n) * scale
    return 0.5 * (a + a.T)


def random_spd(rng, n, shift=None):
    b = rng.randn(n, n)
    m = b @ b.T + (shift if shift is not None else n) * np.eye(n)
    return 0.5 * (m + m.T)


def det_cofactor(a):
    """Determinant by first-row cofactor expansion; O(n!) but exact logic."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


def cubic_roots(c2, c1, c0):
    """Real roots of x^3 + c2 x^2 + c1 x + c0, via Cardano/trigonometric
    form (symmetric matrices always fall in the three-real-roots case)."""
    p = c1 - c2**2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if abs(p) < 1e-14:
        r = -q
        root = math.copysign(abs(r) ** (1.0 / 3.0), r)
        return sorted([shift + root] * 3)
    disc = -4.0 * p**3 - 27.0 * q**2
    assert disc > -1e-10, "expected three real roots for a symmetric matrix"
    m = 2.0 * math.sqrt(-p / 3.0)
    theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m)))) / 3.0
    roots = [shift + m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return sorted(roots)


def char_poly_3x3(a):
    """Coefficients (c2, c1, c0) of det(xI - A) = x^3 + c2 x^2 + c1 x + c0."""
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    return -tr, minors, -det_cofactor(a)


def mp_pencil_reference(h, omega, dps=40):
    """Eigenvalues and last-row weights gamma[N-1, j]^2 of a pencil with
    a tridiagonal overlap, at ``dps`` digits.

    C = L^-1 H L^-T by forward substitution on the bidiagonal Cholesky
    factor L (rows, then columns). mpmath's eigsy gives the eigenvalues
    eps of C and mu of its leading N-1 block, which is the reduced
    leading pencil; the last row of gamma = L^-T v is v[N-1] / l[N-1],
    and v[N-1, j]^2 = prod_k (eps_j - mu_k) / prod_(k != j) (eps_j - eps_k).
    Values only, no eigenvectors: eigsy is several times faster so."""
    n = h.shape[0]
    with mp.workdps(dps):
        diag, sub = [mp.sqrt(mp.mpf(omega[0, 0]))], [mp.mpf(0)]
        for j in range(1, n):
            sub.append(mp.mpf(omega[j, j - 1]) / diag[j - 1])
            diag.append(mp.sqrt(mp.mpf(omega[j, j]) - sub[j] ** 2))
        rows = [[mp.mpf(v) / diag[0] for v in h[0]]]
        for j in range(1, n):
            rows.append([(mp.mpf(v) - sub[j] * p) / diag[j] for v, p in zip(h[j], rows[j - 1])])
        cols = [[row[0] / diag[0] for row in rows]]
        for k in range(1, n):
            cols.append([(row[k] - sub[k] * p) / diag[k] for row, p in zip(rows, cols[k - 1])])
        c = mp.matrix(n, n)
        for i in range(n):
            for k in range(n):
                c[i, k] = (cols[k][i] + cols[i][k]) / 2
        eps = sorted(mp.eigsy(c, eigvals_only=True))
        mu = mp.eigsy(c[: n - 1, : n - 1], eigvals_only=True)
        weights = [
            mp.fprod(e - m for m in mu) / mp.fprod(e - f for k, f in enumerate(eps) if k != j) / diag[n - 1] ** 2
            for j, e in enumerate(eps)
        ]
        return np.array([float(e) for e in eps]), np.array([float(w) for w in weights])
