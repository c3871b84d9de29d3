"""Radial square-integrable bases and their operator matrices.

Two families over r in (0, inf), both built on generalized Laguerre
polynomials with scale parameter ``lam``:

* ``laguerre``:   psi_n(r) ~ (lam r)^(ell+1) exp(-lam r / 2) L_n^(2ell+1)(lam r)
                  -- non-orthogonal; overlap and reference-Hamiltonian
                  matrices are tridiagonal.
* ``oscillator``: psi_n(r) ~ (lam r)^(ell+1) exp(-lam^2 r^2 / 2) L_n^(ell+1/2)(lam^2 r^2)
                  -- orthonormal (overlap = identity).

The reference Hamiltonian is the radial Coulomb operator

    H0 = -(1/2) d^2/dr^2 + ell(ell+1)/(2 r^2) + Z/r      (atomic units)

Both families build H0 and the overlap from closed tridiagonal forms
(the J-matrix ones: Yamani & Fishman, J. Math. Phys. 16, 410 (1975)),
lam^2 times a matrix that depends only on (ell, N), plus Z lam on the
Laguerre diagonal. The oscillator basis has no closed form for 1/r, so
its Coulomb term is an exact quadrature. Each closed form is checked
once per (family, ell, N) per process against an exact-degree Gauss
quadrature that never uses those recurrences for the integrand (kinetic
energy enters through integration by parts, so only first derivatives of
the basis appear). Any disagreement beyond ``CHECK_TOL`` aborts the
build. The short-range potential matrix is always computed by
quadrature, with an order-doubling convergence check.

Both families share one potential rule, given level by level, each
level twice the points of the one before: uniform panels of the 32-point
Gauss-Legendre rule in y = sqrt(x) on (0, Y), from ceil(max(4N, 40) / 32)
panels, with Y from the basis (see ``_potential_nodes`` and ``_y_cut``).
In x an odd power of sqrt(x) -- of r in the oscillator's x = lam^2 r^2,
of sqrt(r) in the Laguerre x = lam r -- is not a polynomial, and a
Gauss-Laguerre rule in x converges on it only algebraically; in y the
integrand is analytic wherever V(r) is, and the panels converge
exponentially (Trefethen, SIAM Rev. 50, 67 (2008)). The only
Gauss-Laguerre rules the package builds have N + 2 points: the exact
rules of the closed-form check and of the oscillator Coulomb term.

The first doubling compares levels 0 and 1, and builds both in one
pass: V is evaluated and the table of the N orthonormal polynomials
built once, over the nodes of the two rules together, and each matrix
is formed from its rule's columns. The table carries sqrt(w |V|), so
a matrix is the difference of two Gram products, of the columns where
V > 0 and where V < 0. For N >= 10 the table is N x 12N doubles at
most (1.4 MB at N = 120; a little more where the levels round up to
whole panels), and no other copy of it is made; an escalation past
the first doubling builds its new level alone. Nodes where V is
exactly 0.0 (a Gaussian tail that underflows, say) add nothing to any
sum, so they are left out of the table; a NaN or inf V is kept, and
fails the convergence check at the first doubling. With V = 0 no table
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import functools
import math

import numpy as np

from .errors import InputError, QuadratureError
from .matrix_core import SymMatrix
from .potential import PotentialExpr

LAGUERRE = "laguerre"
OSCILLATOR = "oscillator"


# Relative padding of the recurrence's magnitude bound per degree: each
# degree rounds a few times (a_n, two products and a difference, each
# within 2^-53), and the bound itself rounds alike; 1e-14 covers both.
_BOUND_SLACK = 1.0 + 1e-14


def _orthonormal_recurrence(alpha: float, degree: int, x: np.ndarray, cur, logscale, rows=None):
    """Three-term recurrence of the orthonormal generalized Laguerre
    polynomials lhat_n = sqrt(n!/Gamma(n+alpha+1)) L_n^alpha at the nodes
    x, from degree 0 to ``degree``.

    The caller's start values carry lhat_0 = Gamma(alpha+1)^(-1/2) times
    any per-node scale it wants applied: the value at degree n is
    cur * exp(logscale). Whenever a value grows large, its node is
    renormalized and the factor moves into ``logscale``, so the recurrence
    stays finite where a plain evaluation would overflow.

    Returns (cur, prev, logscale) at the last degree; the ratio of cur and
    prev is scale-free. Given ``rows`` instead, row n receives the value
    at degree n for n = 0 .. degree, zero where it underflows, and nothing
    is returned.

    Each node runs its own recurrence: a renormalization divides the other
    nodes by exactly 1, so a node's values do not depend on which other
    nodes share the call. The unscaled values are written straight into
    the rows, and the per-node scale multiplies each block of rows that
    shares one logscale when the block ends.

    Looking for large values costs two passes over the nodes, so it is
    skipped while a scalar bound proves none can pass 1e120: the bound
    grows by max over the node range of |a_n| times itself plus the
    coupling times its previous value, as the recurrence does. From the
    degree where the bound passes 1e120 (118 at ell = 0, N = 120 for the
    potential rule) every degree is checked, so the values are the same
    bits as with a check at every degree.
    """
    keep = rows is not None
    if not keep:
        rows = np.empty((3, x.size))  # ring of the last three degrees
    width = rows.shape[0]
    diag = [2.0 * n + alpha + 1.0 for n in range(degree)]
    norm = [math.sqrt((n + 1.0) * (n + alpha + 1.0)) for n in range(degree)]
    coupling = [0.0] + [math.sqrt(n * (n + alpha) / ((n + 1.0) * (n + alpha + 1.0))) for n in range(1, degree)]
    a = np.empty_like(x)
    bprev = np.empty_like(x)
    mag = np.empty_like(x)
    prev = np.zeros_like(x)
    rows[0] = cur
    cur = rows[0]
    start = 0  # first row not yet multiplied by its scale
    # bound >= max |value| over the nodes at the current degree
    lo, hi = float(np.min(x, initial=np.inf)), float(np.max(x, initial=-np.inf))
    bound, bound_prev = float(np.max(np.abs(cur), initial=0.0)), 0.0
    checking = False
    with np.errstate(under="ignore"):
        for n in range(degree):
            np.subtract(diag[n], x, out=a)
            np.divide(a, norm[n], out=a)
            np.multiply(prev, coupling[n], out=bprev)
            new = rows[(n + 1) % width]
            np.multiply(a, cur, out=new)
            np.subtract(new, bprev, out=new)
            cur, prev = new, cur
            if not checking:
                growth = max(diag[n] - lo, hi - diag[n]) / norm[n]
                bound, bound_prev = (growth * bound + coupling[n] * bound_prev) * _BOUND_SLACK, bound
                checking = not bound <= 1e120  # a NaN bound proves nothing
            if checking and np.fmax.reduce(np.abs(cur, out=mag), initial=0.0) > 1e120:  # skips NaN, as a mask would
                big = mag > 1e120
                factor = np.where(big, mag, 1.0)
                prev = prev / factor
                if keep:
                    rows[start : n + 1] *= np.exp(logscale)
                    start = n + 1
                logscale = logscale + np.log(factor)
                cur /= factor
        if keep:
            rows[start:] *= np.exp(logscale)
    return None if keep else (cur, prev, logscale)


def _lhat0(alpha: float, x: np.ndarray):
    """Start values (cur, logscale) of the recurrence for the bare lhat_n."""
    return np.full_like(x, np.exp(-0.5 * math.lgamma(alpha + 1.0))), np.zeros_like(x)


def gauss_quadrature(alpha: float, npts: int):
    """Nodes and weights of the generalized Gauss-Laguerre rule.

    Exact for polynomials of degree <= 2*npts - 1 against the weight
    x^alpha e^(-x) on (0, inf). Nodes are the eigenvalues of the
    orthonormal-recurrence tridiagonal (Jacobi) matrix, found by the
    dense symmetric eigensolver, so a rule of n points costs O(n^3): the
    package itself builds only rules of N + 2 points, each on every call.
    Weights come from the classical end-polynomial formula

        w_k = x_k / ((npts+1)(npts+alpha+1) lhat_(npts+1)(x_k)^2)

    evaluated through logs, so large rules keep full relative accuracy in
    the exponentially small tail weights (an eigenvector-based rule loses
    them to absolute round-off).
    """
    nodes, log_w = gauss_rule_log(alpha, npts)
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return nodes, weights


def gauss_rule_log(alpha: float, npts: int):
    """(nodes, log weights) of the generalized Gauss-Laguerre rule; the
    form quadrature sums should consume so tiny weights keep relative
    accuracy.

    Each call builds its rule afresh, at O(n^3) for n points (see
    ``gauss_quadrature``). The package builds only rules of N + 2 points:
    for the closed-form check, whose per-key cache
    (``_closed_form_residual``) is the one cache, and for an oscillator
    system's Coulomb term."""
    if npts < 1:
        raise InputError("quadrature needs at least one point")
    if alpha <= -1.0:
        raise InputError(f"weight exponent must exceed -1, got {alpha}")
    alpha, npts = float(alpha), int(npts)  # the same bits for int and float arguments
    k = np.arange(npts, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    if npts == 1:
        nodes, log_w = diag, np.array([math.lgamma(alpha + 1.0)])
    else:
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        nodes = np.linalg.eigvalsh(_bands_to_matrix(diag, off))
        # One Newton step against the degree-npts polynomial cleans up the
        # O(norm * eps) eigenvalue round-off; x lhat' = n lhat - sqrt(n(n+a)) lhat_(n-1).
        cur, prev, _ = _orthonormal_recurrence(alpha, npts, nodes, *_lhat0(alpha, nodes))
        deriv = (npts * cur - math.sqrt(npts * (npts + alpha)) * prev) / nodes
        nodes = nodes - cur / deriv
        # the end-polynomial weight formula (see gauss_quadrature) in logs
        cur, _, logscale = _orthonormal_recurrence(alpha, npts + 1, nodes, *_lhat0(alpha, nodes))
        logmag = np.log(np.abs(cur)) + logscale
        log_w = np.log(nodes) - math.log(npts + 1.0) - math.log(npts + alpha + 1.0) - 2.0 * logmag
    return nodes, log_w


def orthonormal_laguerre_table(alpha: float, nmax: int, x, log_scale=None) -> np.ndarray:
    """Values of the orthonormalized generalized Laguerre polynomials.

    Returns T with T[n, k] = lhat_n(x[k]) * exp(log_scale[k]) for
    n = 0..nmax. The per-node log scale (typically log sqrt of a
    quadrature weight) rides along in log space and is applied on
    emission, so rows whose true magnitude is representable come out
    exact even when the bare polynomial value alone would overflow; rows
    that truly underflow emit zero.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    logscale = np.zeros_like(x) if log_scale is None else np.asarray(log_scale, dtype=float)
    _orthonormal_recurrence(alpha, nmax, x, np.ones_like(x), logscale - 0.5 * math.lgamma(alpha + 1.0), rows=out)
    return out


@dataclass(frozen=True)
class BasisSpec:
    """Basis family, inverse-length scale, angular momentum, size."""

    family: str
    lam: float
    ell: int
    size: int

    def __post_init__(self):
        if self.family not in (LAGUERRE, OSCILLATOR):
            raise InputError(f"unknown basis family {self.family!r}")
        if not self.lam > 0.0:
            raise InputError("basis scale lam must be positive")
        if self.ell < 0 or int(self.ell) != self.ell:
            raise InputError("angular momentum ell must be a nonnegative integer")
        if self.size < 2:
            raise InputError("basis size must be >= 2")


@dataclass(frozen=True)
class SystemSpec:
    """Basis + charge + short-range potential defining one physical system.

    ``potential=None`` means V = 0. The potential is sampled at
    construction: it must be finite on (0, range_r] and negligible beyond
    ``range_r``, which must be finite and positive.
    """

    basis: BasisSpec
    z_charge: float = 0.0
    potential: Optional[PotentialExpr] = None
    range_r: float = 50.0
    check_potential: bool = True  # escape hatch for non-decaying test potentials

    def __post_init__(self):
        if not 0.0 < self.range_r < math.inf:
            raise InputError(f"range_r must be finite and positive, got {self.range_r}")
        if self.potential is None or not self.check_potential:
            return
        r_in = np.geomspace(1e-4, self.range_r, 256)
        v_in = np.asarray(self.potential(r_in), dtype=float)
        if not np.all(np.isfinite(v_in)):
            raise InputError("potential is not finite on (0, range_r]")
        r_out = np.linspace(self.range_r, 2.0 * self.range_r, 64)
        v_out = np.asarray(self.potential(r_out), dtype=float)
        scale = max(1.0, float(np.max(np.abs(v_in))))
        if not np.all(np.isfinite(v_out)) or np.max(np.abs(v_out)) > 1e-6 * scale:
            raise InputError(
                f"potential does not decay beyond r = {self.range_r}; "
                "increase range_r if the range really is that long"
            )

    def v_values(self, r):
        if self.potential is None:
            return np.zeros_like(np.asarray(r, dtype=float))
        return np.asarray(self.potential(r), dtype=float)


@dataclass(frozen=True)
class MatrixSet:
    """Operator matrices of one system in one basis.

    A Laguerre set also keeps the bands of its tridiagonal reference
    pencil J(E) = H0 - E*Overlap, on which the scattering recursion runs:
    the diagonals of H0 and Overlap, and their superdiagonals, which run
    one entry past the matrices. That last entry is the coupling of the
    last kept basis row to the first dropped one. The oscillator basis
    has no tridiagonal reference pencil, so an oscillator set keeps none.
    """

    h0: SymMatrix
    v: SymMatrix
    omega: SymMatrix
    spec: SystemSpec = field(repr=False)
    h0_diag: Optional[np.ndarray] = field(default=None, repr=False)
    h0_super: Optional[np.ndarray] = field(default=None, repr=False)
    omega_diag: Optional[np.ndarray] = field(default=None, repr=False)
    omega_super: Optional[np.ndarray] = field(default=None, repr=False)

    @functools.cached_property
    def h(self) -> SymMatrix:
        """H0 + V, built on first use and kept."""
        return SymMatrix(self.h0.data + self.v.data)

    @property
    def size(self) -> int:
        return self.h0.n

    def _require_pencil(self):
        if self.h0_diag is None:
            raise InputError(f"the {self.spec.basis.family} basis has no tridiagonal reference pencil")

    def j_tridiagonal(self, energy):
        """(diagonal, superdiagonal) of H0 - E*Overlap, the superdiagonal
        extended by j_boundary(E). For an array of energies the basis
        index runs along the first axis and the energies along the rest;
        complex energies give complex bands."""
        self._require_pencil()
        energy = np.asarray(energy)
        index = (slice(None),) + (None,) * energy.ndim
        diag = self.h0_diag[index] - energy * self.omega_diag[index]
        return diag, self.h0_super[index] - energy * self.omega_super[index]

    def j_boundary(self, energy):
        """The (size-1, size) element of H0 - E*Overlap, through which
        the scattering recursion terminates."""
        self._require_pencil()
        return self.h0_super[-1] - energy * self.omega_super[-1]


def _laguerre_analytic(ell: int, size: int):
    """lam-free closed-form bands of the Laguerre family: the overlap
    diagonal and superdiagonal, then those of the kinetic + centrifugal
    matrix divided by lam^2. Each superdiagonal has ``size`` entries, so
    the boundary element is available."""
    n = np.arange(size)
    root = np.sqrt((n + 1.0) * (n + 2.0 * ell + 2.0))
    return 2.0 * n + 2.0 * ell + 2.0, -root, 0.25 * (n + ell + 1.0), 0.125 * root


def _oscillator_analytic(ell: int, size: int):
    """lam-free closed-form bands of the oscillator kinetic + centrifugal
    matrix divided by lam^2: (1/2)(2n + ell + 3/2) on the diagonal and
    (1/2) sqrt((n+1)(n + ell + 3/2)) beside it."""
    n = np.arange(size)
    return 0.5 * (2.0 * n + ell + 1.5), 0.5 * np.sqrt((n + 1.0) * (n + ell + 1.5))


def _bands_to_matrix(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    m = np.diag(diag)
    k = diag.size - 1
    m += np.diag(off[:k], 1) + np.diag(off[:k], -1)
    return m


def _potential_by_quadrature(spec: SystemSpec, alpha_poly, rules):
    """<psi_n|V|psi_m> on the weighted-polynomial representation, one
    size x size matrix sum_k w_k lhat_n(x_k) lhat_m(x_k) V(r_k) per rule
    in ``rules``, each rule an (x, log w, r) triple of node arrays.

    V is evaluated and the table built once, over the nodes of all the
    rules together, with the nodes of each rule ordered by the sign of V
    and the table scaled by sqrt(w |V|) on emission (through the log
    scale, at no extra cost). Each matrix is then the signed Gram product
    B+ B+^T - B- B-^T of its rule's columns where V > 0 and where V < 0.
    Nodes where V is exactly 0.0 add nothing to any sum, so they are left
    out of the table; a NaN or inf V is kept, in B+, and reaches the
    matrix."""
    size = spec.basis.size
    nodes, log_w, radii = (np.concatenate(part) for part in zip(*rules))
    vvals = spec.v_values(radii)
    # group 2i holds rule i's nodes with V > 0 (or NaN), group 2i + 1 those with V < 0
    group = 2 * np.repeat(np.arange(len(rules)), [rule[0].size for rule in rules]) + (vvals < 0.0)
    live = np.flatnonzero(vvals != 0.0)
    if not live.size:
        return [np.zeros((size, size)) for _ in rules]
    order = live[np.argsort(group[live], kind="stable")]
    ends = np.cumsum(np.bincount(group[order], minlength=2 * len(rules)))
    log_scale = 0.5 * (log_w[order] + np.log(np.abs(vvals[order])))
    table = orthonormal_laguerre_table(alpha_poly, size - 1, nodes[order], log_scale=log_scale)
    matrices = []
    for lo, mid, hi in zip(np.concatenate([[0], ends[1:-1:2]]), ends[::2], ends[1::2]):
        plus, minus = table[:, lo:mid], table[:, mid:hi]
        vm = plus @ plus.T - minus @ minus.T
        matrices.append(0.5 * (vm + vm.T))
    return matrices


# The potential quadrature starts from max(4 * size, 40) points (rounded
# up to whole panels) and doubles until a doubling changes the matrix by
# at most CONV_TOL (relative), or raises at _QUAD_POINT_CAP. Its panels
# are laid out anew for each build.
_QUAD_POINT_CAP = 4096
CONV_TOL = 1e-8

# Points of the Gauss-Legendre rule on each panel of the potential
# quadrature.
_PANEL_POINTS = 32

# Largest disagreement (relative) allowed between the closed-form H0 and
# overlap matrices and their exact quadrature.
CHECK_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _legendre_panel():
    """Nodes on (0, 1) and log weights of the panel rule, built once per
    process (leggauss costs about 0.8 ms) and returned read-only."""
    t, w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    unit, log_w = 0.5 * (t + 1.0), np.log(0.5 * w)
    unit.setflags(write=False)
    log_w.setflags(write=False)
    return unit, log_w


def _y_cut(size: int, alpha: float, power: int) -> float:
    """Upper end Y of the potential rule in y = sqrt(x), for the basis
    density e^(-x) x^a lhat_n(x)^2, a = (power - 1) / 2, of polynomials
    lhat_n of parameter ``alpha`` and degree below ``size``.

    The largest zero of L_N^alpha lies below 4N + 2 alpha + 2, and the
    density decays beyond it on a scale of N^(1/3). With
    Y^2 = 4N + 2a + 2 + (6 + 2 (a - alpha)) N^(1/3) + 60 the largest
    density at Y^2 is below 2e-14 of its peak for N <= 120 and ell <= 3
    in both families, measured: each power of x in the density beyond the
    polynomials' own weight (one in the Laguerre family, none in the
    oscillator one) takes 2 N^(1/3) more."""
    extra = 0.5 * (power - 1) - alpha
    return math.sqrt(4.0 * size + power + 1.0 + (6.0 + 2.0 * extra) * size ** (1.0 / 3.0) + 60.0)


def _potential_nodes(size: int, level: int, alpha: float, power: int, r_of_y):
    """(x, log w, r) of level ``level`` of the potential rule:
    ceil(max(4N, 40) / 32) * 2^level uniform panels of the 32-point
    Gauss-Legendre rule in y = sqrt(x) on (0, Y), for

        int_0^Y 2 y^power e^(-y^2) lhat_n(y^2) lhat_m(y^2) V(r(y)) dy,

    the integral over x against the basis weight x^((power - 1) / 2) e^(-x),
    lhat_n of parameter ``alpha``. Y comes from the basis, not from
    ``range_r`` (see ``_y_cut``)."""
    y_max = _y_cut(size, alpha, power)
    panels = -(-max(4 * size, 40) // _PANEL_POINTS) << level
    width = y_max / panels
    unit, log_unit_w = _legendre_panel()
    y = ((np.arange(panels)[:, None] + unit) * width).ravel()
    log_w = np.tile(log_unit_w, panels) + math.log(2.0 * width) + power * np.log(y) - y * y
    return y * y, log_w, r_of_y(y)


def _potential_with_convergence_check(spec: SystemSpec, alpha_poly, power, r_of_y):
    """Doubling test on the potential quadrature; escalates the rule until
    doubling changes nothing, errors out at the point cap.

    The rule is ``_potential_nodes`` for the family's polynomials
    (``alpha_poly``), weight power of y and r(y); each level has twice
    the points of the one before. The first comparison builds levels 0
    and 1 in one table pass; each escalation builds only its new, doubled
    level. The cap is checked after the doubled level is built, so from a
    start below the cap the last doubling builds fewer than
    2 * _QUAD_POINT_CAP points before QuadratureError. A residual that is
    not finite (a NaN or inf V) cannot improve, so it raises at once."""
    size = spec.basis.size
    level = 1
    coarse, fine = (_potential_nodes(size, k, alpha_poly, power, r_of_y) for k in (0, 1))
    v1, v2 = _potential_by_quadrature(spec, alpha_poly, (coarse, fine))
    while True:
        residual = float(np.max(np.abs(v1 - v2)) / (1.0 + np.max(np.abs(v2))))
        if residual <= CONV_TOL:
            return v2
        npts, fine_pts = coarse[0].size, fine[0].size
        if fine_pts >= _QUAD_POINT_CAP or not np.isfinite(residual):
            raise QuadratureError(
                f"potential quadrature did not converge: doubling {npts} -> {fine_pts} points "
                f"still changes the matrix by {residual:.3e} (tolerance {CONV_TOL:.1e})",
                residual=residual,
            )
        level += 1
        coarse, fine = fine, _potential_nodes(size, level, alpha_poly, power, r_of_y)
        v1, (v2,) = v2, _potential_by_quadrature(spec, alpha_poly, (fine,))


def laguerre_matrices(spec: SystemSpec) -> MatrixSet:
    """Overlap, reference Hamiltonian, and potential matrices in the
    Laguerre basis, plus the bands of the reference pencil for
    scattering."""
    b = spec.basis
    if b.family != LAGUERRE:
        raise InputError("laguerre_matrices requires a Laguerre basis spec")
    size, lam, ell = b.size, b.lam, b.ell
    _check_closed_forms(b)
    omega_d, omega_o, kin_d, kin_o = _laguerre_analytic(ell, size)
    h0_d, h0_o = lam**2 * kin_d + spec.z_charge * lam, lam**2 * kin_o
    for band in (omega_d, omega_o, h0_d, h0_o):
        band.setflags(write=False)

    omega = _bands_to_matrix(omega_d, omega_o)
    h0 = _bands_to_matrix(h0_d, h0_o)
    v = _potential_with_convergence_check(spec, 2 * ell + 1, 4 * ell + 5, lambda y: y * y / lam)

    return MatrixSet(
        h0=SymMatrix(h0), v=SymMatrix(v), omega=SymMatrix(omega), spec=spec,
        h0_diag=h0_d, h0_super=h0_o, omega_diag=omega_d, omega_super=omega_o,
    )


def oscillator_matrices(spec: SystemSpec) -> MatrixSet:
    """Identity overlap, closed-form kinetic matrix plus the quadrature
    Coulomb term, and the potential matrix in the oscillator basis
    (working variable x = lam^2 r^2)."""
    b = spec.basis
    if b.family != OSCILLATOR:
        raise InputError("oscillator_matrices requires an oscillator basis spec")
    size, lam, ell = b.size, b.lam, b.ell
    _check_closed_forms(b)
    h0 = lam**2 * _bands_to_matrix(*_oscillator_analytic(ell, size))
    if spec.z_charge != 0.0:
        # 1/r = lam x^(-1/2) has no closed form here; weight x^ell keeps it exact
        h0 = h0 + spec.z_charge * lam * _gram(ell, ell + 0.5, size)
    v = _potential_with_convergence_check(spec, ell + 0.5, 2 * ell + 2, lambda y: y / lam)
    return MatrixSet(h0=SymMatrix(h0), v=SymMatrix(v), omega=SymMatrix(np.eye(size)), spec=spec)


def _gram(rule_alpha, alpha, size):
    """sum_k w_k lhat_n(x_k) lhat_m(x_k) for n, m < size, lhat the
    ``alpha`` orthonormal family, on the (size + 2)-point rule of weight
    x^rule_alpha."""
    x, lw = gauss_rule_log(rule_alpha, size + 2)
    t = orthonormal_laguerre_table(alpha, size - 1, x, log_scale=0.5 * lw)
    return t @ t.T


def _kinetic_by_quadrature(ell, size, rule_alpha, alpha, lead, prefactor):
    """Kinetic + centrifugal matrix divided by lam^2, of a basis whose
    radial derivative has rows D_n = (lead - x/2) lhat_n - sqrt(n) x lhat'_(n-1),
    with lhat the ``alpha`` orthonormal family and lhat' the alpha+1 one:

        prefactor D D^T + (1/2) ell (ell+1) lhat lhat^T

    on the (size + 2)-point rule of weight x^rule_alpha, which is exact
    for these polynomial integrands.
    """
    x, lw = gauss_rule_log(rule_alpha, size + 2)
    ta = orthonormal_laguerre_table(alpha, size - 1, x, log_scale=0.5 * lw)
    tb = orthonormal_laguerre_table(alpha + 1.0, size - 1, x, log_scale=0.5 * lw)
    d = (lead - 0.5 * x) * ta
    root_n = np.sqrt(np.arange(1.0, size))
    d[1:] -= root_n[:, None] * x * tb[: size - 1]
    return prefactor * (d @ d.T) + 0.5 * ell * (ell + 1.0) * (ta @ ta.T)


@functools.lru_cache(maxsize=None)
def _closed_form_residual(family: str, ell: int, size: int) -> float:
    """Largest disagreement (relative) between the lam-free closed forms
    of one (family, ell, size) and their exact quadrature.

    Every integrand is (weight) x (polynomial), so the (size + 2)-point
    rule is exact and the comparison probes only the closed forms. The
    kinetic term enters through integration by parts, so only first
    derivatives of the basis appear. What is compared depends on no lam,
    Z or potential, so each key is checked once per process.
    """
    if family == LAGUERRE:
        # x = lam r: kinetic weight x^(2ell), overlap x^(2ell+2), Coulomb x^(2ell+1)
        omega_d, omega_o, kin_d, kin_o = _laguerre_analytic(ell, size)
        pairs = [
            (_bands_to_matrix(kin_d, kin_o), _kinetic_by_quadrature(ell, size, 2 * ell, 2 * ell + 1, ell + 1.0, 0.5)),
            (_bands_to_matrix(omega_d, omega_o), _gram(2 * ell + 2, 2 * ell + 1, size)),
            (np.eye(size), _gram(2 * ell + 1, 2 * ell + 1, size)),
        ]
    else:
        # x = lam^2 r^2: kinetic weight x^(ell-1/2)
        kinetic_q = _kinetic_by_quadrature(ell, size, ell - 0.5, ell + 0.5, 0.5 * (ell + 1.0), 2.0)
        pairs = [(_bands_to_matrix(*_oscillator_analytic(ell, size)), kinetic_q)]
    return max(float(np.max(np.abs(a - q)) / (1.0 + np.max(np.abs(a)))) for a, q in pairs)


def _check_closed_forms(basis: BasisSpec):
    """Raise QuadratureError when the closed forms of this basis key
    disagree with their quadrature by more than CHECK_TOL."""
    residual = _closed_form_residual(basis.family, basis.ell, basis.size)
    if not residual <= CHECK_TOL:
        raise QuadratureError(
            f"{basis.family} closed-form matrices (ell = {basis.ell}, N = {basis.size}) disagree "
            f"with their exact quadrature by {residual:.3e} (tolerance {CHECK_TOL:.1e})",
            residual=residual,
        )


def build_matrices(spec: SystemSpec) -> MatrixSet:
    """Dispatch on the basis family."""
    if spec.basis.family == LAGUERRE:
        return laguerre_matrices(spec)
    return oscillator_matrices(spec)
