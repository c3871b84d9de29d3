"""One pole rule for every resolvent consumer.

Each consumer is probed at a generalized eigenvalue eps of its pencil,
taken from the spectrum that consumer uses (the eigenpairs' or, for
``bound_states``, the eigenvalue-only solve's), at eps (1 + 1e-12) and at
eps (1 + 1e-6):

* on eps it flags that point alone (NaN there) or raises a
  SpectrumEvaluationError that names eps;
* at the 1e-12 gap it neither flags nor raises and returns a finite
  value. The rounding of eps alone makes G there accurate only to about
  1e-16 |H| / gap, so no oracle is asked for;
* at the 1e-6 gap every consumer that returns G matches the dense
  inverse to 1e-8 relative. S(E) is not G, so ``s_values`` is exempt.

Array consumers see a three-point grid that starts at the probe; the two
points after it are off every pole and must stay unflagged.
"""

import json

import numpy as np
import pytest

from resolvent_kit.analysis import bound_states
from resolvent_kit.basis import BasisSpec, SystemSpec, build_matrices
from resolvent_kit.cli import main as cli_main
from resolvent_kit.errors import SpectrumEvaluationError
from resolvent_kit.matrix_core import gen_sym_eig, gen_sym_eigvals, sym_eig
from resolvent_kit.potential import parse_potential
from resolvent_kit.resolvent import (
    ResolventInput,
    green_cofactor,
    green_eigprod_general,
    green_spectral,
    inverse_oracle,
)
from resolvent_kit.scattering import ScatteringCalculator

BARRIER = "7.5*r^2*exp(-r)"
SIZE = 15
LAST = SIZE - 1
N_INDEX, M_INDEX = 2, 9  # an off-diagonal element where a consumer lets us choose
STEP = 1e-3  # grid step after the probe; far smaller than the eigenvalue spacing
TARGET = 2.0  # probe the eigenvalue nearest this energy


class Flagged(Exception):
    """An array consumer flagged the probe point (and only it)."""


class System:
    """One pencil, its spectrum and the eigenvalue that is probed."""

    def __init__(self, family, lam):
        self.spec = SystemSpec(
            basis=BasisSpec(family, lam=lam, ell=0, size=SIZE), potential=parse_potential(BARRIER)
        )
        mats = build_matrices(self.spec)
        self.h = mats.h.data
        self.omega = None if family == "oscillator" else mats.omega.data
        # the spectra the consumers of this pencil use: the eigenpairs'
        # (probe ``pole``), and the eigenvalue-only solve's (``eigvals_pole``)
        self.eps = (sym_eig(self.h) if self.omega is None else gen_sym_eig(self.h, self.omega)).eps
        self.pole = float(self.eps[np.argmin(np.abs(self.eps - TARGET))])
        eps = gen_sym_eigvals(self.h, self.omega)
        self.eigvals_pole = float(eps[np.argmin(np.abs(eps - TARGET))])

    def oracle(self, z, n, m):
        return inverse_oracle(ResolventInput(h=self.h, omega=self.omega, z=z))[n, m]


@pytest.fixture(scope="module")
def laguerre():
    system = System("laguerre", 1.0)
    system.calc = ScatteringCalculator(system.spec)
    return system


@pytest.fixture(scope="module")
def oscillator():
    return System("oscillator", 0.45)


def _probe(values, flagged):
    """The probe's value from a three-point scan; the other two points
    must be unflagged and finite."""
    assert set(flagged) <= {0}
    assert np.all(np.isfinite(values[1:]))
    if flagged:
        assert np.isnan(values[0])
        raise Flagged()
    return values[0]


def _grid(e):
    return np.array([e, e + STEP, e + 2 * STEP])


def s_values(sys_, e, tmp_path):
    s, errors = sys_.calc.s_values(_grid(e))
    if errors:
        assert list(errors) == [0] and np.isnan(s[0])
        raise errors[0]
    return _probe(s, [])


def bound_states_abs_g(sys_, e, tmp_path):
    scan = bound_states(sys_.spec, grid=_grid(e)).scan
    return _probe(scan.columns["abs_g"], scan.flagged)


def cli_resolvent(sys_, e, tmp_path):
    csv, js = tmp_path / "g.csv", tmp_path / "g.json"
    argv = [
        "resolvent", "--lambda", "1.0", "--ell", "0", "--N", str(SIZE), "--potential", BARRIER,
        "--e-min", repr(e), "--e-max", repr(e + 2 * STEP), "--steps", "2",
        "--n-index", str(N_INDEX), "--m-index", str(M_INDEX), "--csv", str(csv), "--json", str(js),
    ]
    assert cli_main(argv) == 0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert rows[0, 0] == e
    flagged = json.loads(js.read_text())["diagnostics"]["flagged_points"]
    return _probe(rows[:, 1] + 1j * rows[:, 2], flagged)


def spectral(sys_, e, tmp_path):
    return green_spectral(ResolventInput(h=sys_.h, omega=sys_.omega, z=e), N_INDEX, M_INDEX)


def cofactor(sys_, e, tmp_path):
    return green_cofactor(ResolventInput(h=sys_.h, omega=sys_.omega, z=e), N_INDEX, M_INDEX)


def eigprod_general(sys_, e, tmp_path):
    inp = ResolventInput(h=sys_.h, omega=sys_.omega, z=e)
    return green_eigprod_general(inp, N_INDEX, M_INDEX)


def diag_orthonormal(sys_, e, tmp_path):
    return green_eigprod_general(ResolventInput(h=sys_.h, omega=None, z=e), N_INDEX, N_INDEX)


# (consumer, system fixture, element it returns; None for S, abs for |G|);
# green_diag_orthonormal is green_eigprod_general on a diagonal element of
# an orthonormal basis (omega=None)
CONSUMERS = {
    "s_values": (s_values, "laguerre", None),
    "bound_states": (bound_states_abs_g, "laguerre", (LAST, LAST, abs)),
    "cli_resolvent": (cli_resolvent, "laguerre", (N_INDEX, M_INDEX, None)),
    "green_spectral": (spectral, "laguerre", (N_INDEX, M_INDEX, None)),
    "green_cofactor": (cofactor, "laguerre", (N_INDEX, M_INDEX, None)),
    "green_eigprod_general": (eigprod_general, "laguerre", (N_INDEX, M_INDEX, None)),
    "green_diag_orthonormal": (diag_orthonormal, "oscillator", (N_INDEX, N_INDEX, None)),
}


# consumers whose poles come from the eigenvalue-only solve
EIGENVALUES_ONLY = {"bound_states"}


def _pole(name, sys_):
    """The probed eigenvalue, from the spectrum consumer ``name`` uses."""
    return sys_.eigvals_pole if name in EIGENVALUES_ONLY else sys_.pole


@pytest.mark.parametrize("name", CONSUMERS)
def test_exact_eigenvalue_is_refused(name, request, tmp_path):
    consumer, fixture, _ = CONSUMERS[name]
    sys_ = request.getfixturevalue(fixture)
    pole = _pole(name, sys_)
    with pytest.raises((SpectrumEvaluationError, Flagged)) as err:
        consumer(sys_, pole, tmp_path)
    if isinstance(err.value, SpectrumEvaluationError):
        assert err.value.pole == pole


@pytest.mark.parametrize("name", CONSUMERS)
def test_gap_of_1e12_evaluates(name, request, tmp_path):
    consumer, fixture, _ = CONSUMERS[name]
    sys_ = request.getfixturevalue(fixture)
    value = consumer(sys_, _pole(name, sys_) * (1.0 + 1e-12), tmp_path)
    assert np.isfinite(value)


@pytest.mark.parametrize("name", [name for name, (_, _, element) in CONSUMERS.items() if element])
def test_gap_of_1e6_matches_inverse(name, request, tmp_path):
    consumer, fixture, (n, m, transform) = CONSUMERS[name]
    sys_ = request.getfixturevalue(fixture)
    e = _pole(name, sys_) * (1.0 + 1e-6)
    want = sys_.oracle(e, n, m)
    if transform is not None:
        want = transform(want)
    got = consumer(sys_, e, tmp_path)
    assert abs(got - want) <= 1e-8 * abs(want)
