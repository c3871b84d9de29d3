"""Exception types shared across the package.

Numerical failures raise subclasses of :class:`NumericalError`; malformed
user input (config files, potential expressions) raises subclasses of
:class:`InputError`. The CLI maps the former to exit code 2 and the latter
to exit code 1.
"""


class ResolventKitError(Exception):
    """Base class for all package errors."""


class InputError(ResolventKitError):
    """Bad user input: config values, expression syntax, shapes."""


class NumericalError(ResolventKitError):
    """A numerical operation could not be completed."""


class ConvergenceError(NumericalError):
    """An iterative procedure failed to converge.

    Carries whatever diagnostics the caller attached (for example the
    continued-fraction level count and last Lentz factor |Delta - 1|).
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class OverlapNotSPDError(NumericalError):
    """The overlap matrix failed the positive-definite factorization."""


class SpectrumEvaluationError(NumericalError):
    """Resolvent requested at (or too close to) an eigenvalue.

    ``pole`` is the offending eigenvalue.
    """

    def __init__(self, message, pole):
        super().__init__(message)
        self.pole = pole


class DegenerateSpectrumError(NumericalError):
    """Eigenvalue-only formulas divide by eigenvalue gaps; refuse when
    two eigenvalues are closer than the degeneracy threshold."""


class SingularSubmatrixError(NumericalError):
    """The row/column-deleted overlap submatrix is singular, so the
    eigenvalue-product form of the resolvent is undefined for this
    (n, m); the cofactor form remains valid."""


class SingularMatrixError(NumericalError):
    """Attempted to invert a (numerically) singular matrix."""


class RecursionBreakdownError(NumericalError):
    """Three-term recursion hit a vanishing coefficient or ratio."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class QuadratureError(NumericalError):
    """Quadrature failed its convergence check; carries the residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class FitResidualError(NumericalError):
    """Least-squares fit residual exceeded the acceptance threshold."""

    def __init__(self, message, residual, threshold):
        super().__init__(message)
        self.residual = residual
        self.threshold = threshold


class PotentialSyntaxError(InputError):
    """Positioned syntax error in a potential expression."""

    def __init__(self, message, line, column, expected=None):
        loc = f"line {line}, column {column}"
        full = f"{message} at {loc}"
        if expected:
            full += f" (expected {expected})"
        super().__init__(full)
        self.line = line
        self.column = column
        self.expected = expected


class ConfigError(InputError):
    """Invalid run configuration."""
