"""Exception types shared across the package.

Malformed or out-of-range input (an argument, a config field, a results file)
raises the built-in ValueError.  The classes below name the outcomes that a
well-formed input can still end in, and exist because some caller tells them
apart: the CLI reports any MciError.  A solve reports every outcome of
well-formed input as a status, so nothing raises Infeasible; the class stays
because the benchmark's tracer (perfbench/layertrace.py) looks it up when it
installs.
"""


class MciError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(MciError):
    """A kernel estimate or a quadrature cannot be trusted: a significantly
    negative or no positive kernel eigenvalue, or Hermite coefficients that
    move when the quadrature order doubles."""


class NotConverged(MciError):
    """An operation requires a converged solve (including the reference
    solve that stands in for infinite width) and did not get one."""


class Infeasible(MciError):
    """The interpolation constraints admit no solution (not raised; see above)."""
