"""Exception types shared across the package.

Everything raised on purpose derives from ProjsumError so callers (and the
CLI) can distinguish domain failures from genuine bugs.  Input-validation
errors additionally subclass ValueError, computational failures RuntimeError.
"""


class ProjsumError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(ProjsumError, ValueError):
    """A dimension argument is zero, negative, or inconsistent."""


class InvalidShapeError(ProjsumError, ValueError):
    """Array arguments have mismatched or non-square shapes."""


class InvalidStateError(ProjsumError, ValueError):
    """A state vector is not normalizable or has the wrong length."""


class NonHermitianError(ProjsumError, ValueError):
    """A matrix required to be Hermitian is not, at tolerance."""


class UnsupportedQuestionCountError(ProjsumError, ValueError):
    """Question count n outside the supported range (n >= 3)."""


class UnsupportedScalarError(ProjsumError, ValueError):
    """The scalar x is not an admissible sum-of-projections value for n."""


class UnsupportedOutcomeCountError(ProjsumError, ValueError):
    """An operation requires two-outcome measurements."""


class InvalidFamilyError(ProjsumError, ValueError):
    """A projection family violates its structural invariants."""


class DegenerateInputError(ProjsumError, ValueError):
    """An intermediate subspace has unexpected dimension."""


class InvalidStrategyError(ProjsumError, ValueError):
    """A strategy's state or measurement operators fail validation."""


class InvalidLevelError(ProjsumError, ValueError):
    """A noise level that is not a real number in [0, 1], or a seed not an integer >= 0."""


class SerializationError(ProjsumError, ValueError):
    """A JSON document is malformed or fails schema validation."""


class SpectralDegeneracyError(ProjsumError, RuntimeError):
    """An eigenspace that must be simple is degenerate at tolerance."""


class FitDegenerateError(ProjsumError, RuntimeError):
    """The fitted map has a rank-deficient polar factor."""


class EigensolverError(ProjsumError, RuntimeError):
    """An eigensolver failed, or did not converge within its sweep budget."""


class JunkExtractionError(ProjsumError, RuntimeError):
    """The compressed state has too little overlap with the target block."""


class BudgetExceededError(ProjsumError, RuntimeError):
    """A combinatorial enumeration would exceed its size budget."""
