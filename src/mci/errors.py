"""Exception types shared across the package."""


class MciError(Exception):
    """Base class for all package-specific errors."""


class UndefinedForL1(MciError):
    """Conjugate/link operations are undefined for the l1 penalty sentinel."""


class NonFiniteInput(MciError):
    """An input value is NaN or infinite where a finite number is required."""


class EmptyGrid(MciError):
    """A grid argument, or an audit's evaluation grid, contains no usable points."""


class InvalidDim(MciError):
    """A dimension or count argument is out of range."""


class DimMismatch(MciError):
    """Array shapes are inconsistent with each other."""


class IncompatibleMethod(MciError):
    """A closed-form kernel method was requested for an unsupported feature map."""


class NotPSD(MciError):
    """A kernel estimate has a significantly negative eigenvalue."""


class SingularKernel(MciError):
    """The kernel matrix cannot be inverted even after eigenvalue flooring."""


class Infeasible(MciError):
    """The interpolation constraints admit no solution."""


class QuadratureUnderResolved(MciError):
    """Hermite coefficients did not stabilize when doubling the quadrature order."""


class InsufficientTail(MciError):
    """The Hermite profile does not extend far enough for the requested check."""


class TooFewSamples(MciError):
    """A Monte Carlo estimator was called with too few samples or directions."""


class InvalidExponents(MciError):
    """Penalty growth exponents are missing or non-finite."""


class NoTarget(MciError):
    """The data specification carries no evaluable target function."""


class WrongSpec(MciError):
    """The experiment requires a different feature specification."""


class ReferenceFailed(MciError):
    """The reference (surrogate infinite-width) solve did not converge."""


class SchemaMismatch(MciError):
    """A persisted results file does not match the expected column schema."""


class NotConverged(MciError):
    """An operation requires converged dual solutions."""


class NotConvergedWarning(UserWarning):
    """Primal recovery was requested from a non-converged dual solution."""
