"""Penalty family rho, its convex conjugate, and the link function.

The solver never touches rho directly: the dual objective needs the conjugate
rho*, its derivative s = (rho*)' (the "link", which maps dual correlations to
primal coefficients), and s' for the Hessian.  A spec carries these maps as
handles, and `rho`, `conjugate`, `link_s` and `link_s_prime` call them, so a
p-norm and a custom penalty go through the same code.  For the p-norm family
rho(x) = |x|^p / p with p > 1, :meth:`PenaltySpec.pnorm` binds the closed
forms below, with conjugate exponent Q = p / (p - 1):

    rho*(x) = |x|^Q / Q,   s(x) = sign(x) |x|^(Q-1),   s'(x) = (Q-1) |x|^(Q-2).

p = 1 is a sentinel value: the conjugate is an indicator and the link does not
exist, so its spec has no conjugate or link handles and only the dedicated
linear-programming path may consume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

# Clip for s' when Q < 2 (p > 2): the raw formula blows up at 0; the clip keeps
# the Newton Hessian finite while leaving |x| >= EPS_LINK_PRIME untouched.
EPS_LINK_PRIME = 1e-8

# c/C spread beyond which declared growth exponents are considered violated on
# the probed grid; a correct declaration yields a spread that stabilizes with
# grid width instead of growing like a power of it.
GROWTH_SPREAD_LIMIT = 1e6

ScalarFn = Callable[[np.ndarray], np.ndarray]


# The p-norm closed forms; `pnorm` binds them to p or Q with `partial`, not a
# closure, so a spec pickles.
def _abs_power(r: float, x: np.ndarray) -> np.ndarray:
    """|x|^r / r: the p-norm's rho at r = p and its conjugate rho* at r = Q."""
    return np.abs(x) ** r / r


def _pnorm_link(q: float, x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** (q - 1.0)


def _pnorm_link_prime(q: float, x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    if q < 2.0:
        a = np.maximum(a, EPS_LINK_PRIME)
    return (q - 1.0) * a ** (q - 2.0)


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty rho together with its conjugate, link, and growth exponents.

    Use :meth:`pnorm` or :meth:`custom` to construct.  `p` is None for a custom
    penalty.  `exponents` stores (Q1, Q2, q1, q2); for p-norms all four equal
    p / (p - 1).  Specs compare by `p` and `exponents` alone.
    """

    p: float | None
    exponents: tuple[float, float, float, float]
    rho_fn: ScalarFn | None = field(default=None, repr=False, compare=False)
    conjugate_fn: ScalarFn | None = field(default=None, repr=False, compare=False)
    link_fn: ScalarFn | None = field(default=None, repr=False, compare=False)
    link_prime_fn: ScalarFn | None = field(default=None, repr=False, compare=False)

    @classmethod
    def pnorm(cls, p: float) -> "PenaltySpec":
        if not (1.0 <= p < math.inf):
            raise ValueError(f"p-norm penalty requires 1 <= p < inf, got {p}")
        p = float(p)
        rho_fn = partial(_abs_power, p)
        if p == 1.0:
            return cls(p=p, exponents=(math.inf,) * 4, rho_fn=rho_fn)
        q = p / (p - 1.0)
        return cls(
            p=p,
            exponents=(q, q, q, q),
            rho_fn=rho_fn,
            conjugate_fn=partial(_abs_power, q),
            link_fn=partial(_pnorm_link, q),
            link_prime_fn=partial(_pnorm_link_prime, q),
        )

    @classmethod
    def custom(
        cls,
        *,
        conjugate: ScalarFn,
        link: ScalarFn,
        link_prime: ScalarFn,
        exponents: tuple[float, float, float, float],
        rho: ScalarFn | None = None,
    ) -> "PenaltySpec":
        """Custom penalty via user-supplied conjugate/link handles.

        Declared exponents are trusted by the solver but can be probed with
        :func:`validate_growth`.
        """
        if len(exponents) != 4 or not all(np.isfinite(e) and e > 1 for e in exponents):
            raise ValueError(f"exponents must be four finite values > 1, got {exponents}")
        if not all(callable(fn) for fn in (conjugate, link, link_prime)):
            raise ValueError("custom penalty needs callable conjugate, link and link_prime")
        return cls(
            p=None,
            exponents=tuple(float(e) for e in exponents),
            rho_fn=rho,
            conjugate_fn=conjugate,
            link_fn=link,
            link_prime_fn=link_prime,
        )

    @property
    def is_l1(self) -> bool:
        return self.p == 1.0

    @property
    def conjugate_exponent(self) -> float:
        """Q = max of Q1, Q2: p/(p-1) for p-norms, inf for p = 1."""
        return max(self.exponents[0], self.exponents[1])


def _call(spec: PenaltySpec, fn: ScalarFn | None, x) -> float | np.ndarray:
    """fn(x) as float64: a float for a scalar x, an array otherwise."""
    if fn is None:
        if spec.is_l1:
            raise ValueError("conjugate/link are undefined for p=1; use solve_l1")
        raise ValueError("custom penalty was built without a rho handle")
    arr = np.asarray(x, dtype=np.float64)
    out = np.asarray(fn(arr), dtype=np.float64)
    return float(out) if arr.ndim == 0 else out


def rho(spec: PenaltySpec, x) -> float | np.ndarray:
    """Penalty value rho(x); |x|^p / p for the p-norm family."""
    return _call(spec, spec.rho_fn, x)


def conjugate(spec: PenaltySpec, x) -> float | np.ndarray:
    """Convex conjugate rho*(x) = sup_y { xy - rho(y) }."""
    if not np.all(np.isfinite(x)):
        raise ValueError("conjugate requires finite input")
    return _call(spec, spec.conjugate_fn, x)


def link_s(spec: PenaltySpec, x) -> float | np.ndarray:
    """Link s(x) = (rho*)'(x) = (rho')^{-1}(x); odd, nondecreasing, s(0) = 0."""
    return _call(spec, spec.link_fn, x)


def link_s_prime(spec: PenaltySpec, x) -> float | np.ndarray:
    """Derivative s'(x); clipped near 0 when Q < 2 to keep the Hessian finite."""
    return _call(spec, spec.link_prime_fn, x)


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of probing the polynomial-growth envelope on a pair grid.

    `c` is the largest lower constant and `C` the smallest upper constant that
    make both growth inequalities (on s' and on |s|) hold on every probed pair.
    `violation` is set when no meaningful positive c exists, i.e. the spread
    C / c explodes, which is the fingerprint of misdeclared exponents.
    """

    c: float
    C: float
    spread: float
    violation: bool
    n_pairs: int


def validate_growth(
    spec: PenaltySpec,
    grid: list[tuple[float, float]],
    spread_limit: float = GROWTH_SPREAD_LIMIT,
) -> GrowthReport:
    """Probe the declared growth exponents of `spec` on a grid of (x1, x2) pairs.

    For every nonzero pair the two-sided envelopes

        c |s(x2)/x2| (r^{q1-2} ^ r^{q2-2}) <= s'(x1) <= C |s(x2)/x2| (r^{Q1-2} v r^{Q2-2})
        c |s(x2)|    (r^{q1-1} ^ r^{q2-1}) <= |s(x1)| <= C |s(x2)|   (r^{Q1-1} v r^{Q2-1})

    with r = |x1/x2| are inverted for the per-pair admissible constants; the
    report returns the binding c (min) and C (max) over the grid.
    """
    if not all(np.isfinite(e) for e in spec.exponents):
        raise ValueError("validate_growth requires finite declared exponents")
    pairs = [(float(a), float(b)) for a, b in grid]
    if not pairs:
        raise ValueError("validate_growth requires at least one (x1, x2) pair")
    if any(a == 0.0 or b == 0.0 for a, b in pairs):
        raise ValueError("grid pairs must be nonzero")

    Q1, Q2, q1, q2 = spec.exponents
    x1 = np.array([a for a, _ in pairs])
    x2 = np.array([b for _, b in pairs])
    r = np.abs(x1 / x2)

    s1 = np.abs(np.asarray(link_s(spec, x1)))
    s2 = np.abs(np.asarray(link_s(spec, x2)))
    sp1 = np.asarray(link_s_prime(spec, x1))
    slope2 = s2 / np.abs(x2)

    lower_deriv = slope2 * np.minimum(r ** (q1 - 2.0), r ** (q2 - 2.0))
    upper_deriv = slope2 * np.maximum(r ** (Q1 - 2.0), r ** (Q2 - 2.0))
    lower_link = s2 * np.minimum(r ** (q1 - 1.0), r ** (q2 - 1.0))
    upper_link = s2 * np.maximum(r ** (Q1 - 1.0), r ** (Q2 - 1.0))

    def _min_ratio(num: np.ndarray, den: np.ndarray) -> float:
        mask = den > 0
        return float(np.min(num[mask] / den[mask])) if mask.any() else math.inf

    def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
        out = np.full_like(num, -math.inf)
        mask = den > 0
        out[mask] = num[mask] / den[mask]
        out[(~mask) & (num > 0)] = math.inf
        return float(np.max(out))

    c = min(_min_ratio(sp1, lower_deriv), _min_ratio(s1, lower_link))
    C = max(_max_ratio(sp1, upper_deriv), _max_ratio(s1, upper_link))

    spread = math.inf if c <= 0 else C / c
    violation = (c <= 0.0) or not math.isfinite(C) or spread > spread_limit
    return GrowthReport(c=c, C=C, spread=spread, violation=violation, n_pairs=len(pairs))
