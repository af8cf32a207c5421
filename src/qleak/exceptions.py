"""Exception hierarchy shared by all qleak modules.

Every failure mode the library reports deliberately gets its own class so
callers (and the CLI exit-code mapping) can branch on the kind of failure
rather than parsing messages.
"""


class QLeakError(Exception):
    """Base class for all qleak errors."""


class DimensionMismatchError(QLeakError, ValueError):
    """Operands have incompatible dimensions."""


class NonSquareError(DimensionMismatchError):
    """A matrix that must be square is not; every such check raises it."""


class NotHermitianError(QLeakError, ValueError):
    """Matrix deviates from Hermitian symmetry beyond tolerance."""


class NotPsdError(QLeakError, ValueError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class NumericalFailureError(QLeakError, ArithmeticError):
    """An underlying numerical routine failed to converge or produced
    results outside contracted tolerances."""


class InvalidChannelError(QLeakError, ValueError):
    """Kraus operators do not form a trace-preserving channel."""


class InvalidProbabilityError(QLeakError, ValueError):
    """A probability parameter lies outside [0, 1]."""


class UnsupportedDimensionError(QLeakError, ValueError):
    """Operation is only implemented for a restricted set of dimensions."""


class EnsembleConfigError(QLeakError, ValueError):
    """An ensemble or channel configuration failed schema validation.

    Messages name the offending symbol label whenever one is known.
    """
