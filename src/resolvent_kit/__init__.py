"""Finite-basis resolvent matrices and their scattering applications.

The package computes matrix elements of (H - z*Overlap)^(-1) in finite
square-integrable bases through several equivalent routes (spectral sum,
determinant cofactor ratio, eigenvalue products, partial fractions),
recovers eigenvector components from eigenvalue spectra alone, and
applies the machinery to quantum scattering: S-matrix scans, resonance
and bound-state location, and the energy density of states.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundStateResult,
    ResonancePeak,
    ResonanceReport,
    ScanTable,
    bound_states,
    density_of_states,
    locate_resonances,
    scan_smatrix,
)
from .basis import (
    BasisSpec,
    MatrixSet,
    SystemSpec,
    build_matrices,
    gauss_quadrature,
    laguerre_matrices,
    oscillator_matrices,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSpectrumError,
    FitResidualError,
    InputError,
    NumericalError,
    OverlapNotSPDError,
    PotentialSyntaxError,
    QuadratureError,
    RecursionBreakdownError,
    ResolventKitError,
    SingularMatrixError,
    SingularSubmatrixError,
    SpectrumEvaluationError,
)
from .matrix_core import (
    SpectralPair,
    SymMatrix,
    delete_row_col,
    gen_sym_eig,
    sym_eig,
)
from .potential import PotentialExpr, parse_potential
from .resolvent import (
    PartialFractions,
    ResolventInput,
    eigvec_from_eigs_general,
    green_cofactor,
    green_eigprod_general,
    green_partial_fractions,
    green_spectral,
    inverse_oracle,
)
from .scattering import ScatteringCalculator, ScatteringPoint

__all__ = [name for name in dir() if not name.startswith("_")]
