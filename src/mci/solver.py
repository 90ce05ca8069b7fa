"""Dual maximization for minimum-complexity interpolation.

The finite-width problem (minimize sum_j rho(a_j) subject to (1/N) Phi a = y)
is solved through its n-dimensional concave dual

    F(lambda) = <lambda, y> - (1/N) sum_j rho*(<phi_j, lambda>),

whose gradient y - (1/N) Phi s(Phi^T lambda) is exactly the interpolation
residual, so convergence is measured on the gradient alone.  A damped Newton
ascent with Armijo backtracking handles all p > 1; the l1 case is a linear
program over the split a = a+ - a-.  Both first take one eigendecomposition
of the Gram matrix G = Phi Phi^T / N, which tests y against range(Phi) at
every width and gives the Newton start G^+ y.  For every outcome of
well-formed input either path returns one `Solution` record whose status is
one of the STATUS_* strings (only bad input raises ValueError); `fit` runs
whichever path applies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .penalty import PenaltySpec, conjugate, link_s, link_s_prime, rho

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_FAILED = "line_search_failed"
STATUS_INFEASIBLE = "infeasible"

L1_RESIDUAL_RTOL = 1e-8

# Eigenvalues of G = Phi Phi^T / N at or below GRAM_NULL_RTOL * n * lambda_max
# span the null space: numpy's matrix_rank rule, applied to G.
GRAM_NULL_RTOL = np.finfo(np.float64).eps

# Newton step: ridge relative to tr(-hess F); Armijo sufficient-increase
# constant, backtracking factor and the number of trial steps.
HESSIAN_RIDGE = 1e-12
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class SolverOptions:
    tol_grad_rel: float = 1e-8
    tol_grad_abs: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        values = (self.tol_grad_rel, self.tol_grad_abs, self.max_iters)
        if not (
            all(isinstance(v, numbers.Real) and not isinstance(v, bool) and v > 0 for v in values)
            and isinstance(self.max_iters, numbers.Integral)
        ):
            raise ValueError(
                "solver options: tol_grad_rel and tol_grad_abs must be positive numbers "
                f"and max_iters a positive integer (got {values})"
            )


@dataclass
class Solution:
    """The record of one solve, by the dual Newton ascent (p > 1) or the l1 program.

    `a` is set only when the solve converged; otherwise it is None and
    `objective_primal` is nan.  `residual` is ||(1/N) Phi a - y||_2 for the l1
    program and the dual gradient norm for p > 1, which is the same
    interpolation residual; an infeasible record (iters 0) holds the distance
    that failed the tolerance.  The dual fields are None or empty for p = 1.
    """

    status: str
    a: np.ndarray | None
    objective_primal: float  # sum_j rho(a_j)
    residual: float
    iters: int = 0  # Newton iterations; 0 for the linear program
    lambda_hat: np.ndarray | None = None
    objective_dual: float | None = None
    # One (iter, objective_dual, gradient norm, step) entry per Newton iterate.
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _check_dims(Phi: np.ndarray, y: np.ndarray, lam: np.ndarray | None = None) -> None:
    if Phi.ndim != 2:
        raise ValueError("Phi must be n x N")
    if y.shape != (Phi.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({Phi.shape[0]},)")
    if lam is not None and lam.shape != (Phi.shape[0],):
        raise ValueError(f"lambda has shape {lam.shape}, expected ({Phi.shape[0]},)")


def dual_objective(Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec, lam: np.ndarray) -> float:
    """F(lambda) = <lambda, y> - (1/N) sum_j rho*(<phi_j, lambda>); concave."""
    Phi, y, lam = (np.asarray(a, dtype=np.float64) for a in (Phi, y, lam))
    _check_dims(Phi, y, lam)
    u = Phi.T @ lam
    return float(lam @ y - np.mean(conjugate(pen, u)))


def dual_gradient(Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec, lam: np.ndarray) -> np.ndarray:
    """grad F = y - (1/N) Phi s(Phi^T lambda): the interpolation residual."""
    Phi, y, lam = (np.asarray(a, dtype=np.float64) for a in (Phi, y, lam))
    _check_dims(Phi, y, lam)
    u = Phi.T @ lam
    return y - Phi @ link_s(pen, u) / Phi.shape[1]


def dual_hessian(Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec, lam: np.ndarray) -> np.ndarray:
    """hess F = -(1/N) Phi diag(s'(Phi^T lambda)) Phi^T; negative semidefinite."""
    Phi, y, lam = (np.asarray(a, dtype=np.float64) for a in (Phi, y, lam))
    _check_dims(Phi, y, lam)
    return -_curvature(Phi, pen, Phi.T @ lam)


def _curvature(Phi: np.ndarray, pen: PenaltySpec, u: np.ndarray) -> np.ndarray:
    """-hess F = (1/N) Phi diag(s'(u)) Phi^T at u = Phi^T lambda, symmetrised; PSD."""
    H = (Phi * link_s_prime(pen, u)) @ Phi.T / Phi.shape[1]
    return 0.5 * (H + H.T)


def _range_split(Phi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G^+ y, r) from one eigendecomposition of G = Phi Phi^T / N.

    r projects y onto the null eigenvectors, so ||r|| = dist(y, range Phi), a
    floor on the residual of every fit (1/N) Phi a, and r / ||r|| is the unit
    Farkas direction v: Phi^T v = 0 and <v, y> = ||r||.
    """
    n, N = Phi.shape
    evals, V = np.linalg.eigh(Phi @ Phi.T / N)
    null = evals <= GRAM_NULL_RTOL * n * evals[-1]
    coef = V.T @ y
    return V[:, ~null] @ (coef[~null] / evals[~null]), V[:, null] @ coef[null]


def _initial_point(Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec, lam0: np.ndarray) -> np.ndarray:
    """The quadratic-case solution lam0 = G^+ y, rescaled to the maximiser of F(c lam0).

    For conjugate exponents above 2 the dual is flat at the origin (s'(0) = 0),
    where Newton stalls; starting from the rescaled quadratic solution lands in
    the curved region.  For a Q-homogeneous conjugate (every p-norm),
    dF(c lam0)/dc = <lam0, y> - c^(Q-1) mean(u s(u)) with u = Phi^T lam0, so
    the maximiser is c = (<lam0, y> / mean(u s(u)))^(1/(Q-1)); c = 1 when that
    is not finite and positive (as at lam0 = 0).
    """
    u = Phi.T @ lam0
    q = pen.conjugate_exponent
    with np.errstate(all="ignore"):
        c = np.divide(lam0 @ y, np.mean(u * link_s(pen, u))) ** (1.0 / (q - 1.0))
    return (c if np.isfinite(c) and c > 0 else 1.0) * lam0


def solve_dual(
    Phi: np.ndarray,
    y: np.ndarray,
    pen: PenaltySpec,
    opts: SolverOptions | None = None,
) -> Solution:
    """Maximize the dual by damped Newton ascent with Armijo backtracking.

    Newton direction (-hess + ridge I)^{-1} grad, with ridge proportional to
    the Hessian trace (an upper bound on its largest eigenvalue); a singular
    or non-ascent direction falls back to plain gradient ascent for that
    iteration.  Declares convergence when ||grad||_2 <= tol_abs + tol_rel ||y||_2.

    Iterate k = 0, 1, ..., max_iters is tested in this order: converged when
    its gradient meets the tolerance, else max_iters when k = max_iters, else
    line_search_failed when no step along the Newton direction or the
    gradient is accepted.  Each iterate appends one trace entry, so the trace
    has iters + 1 entries and the last one holds `residual`, the gradient
    norm.  The converged exit recovers a_j = s(<phi_j, lambda_hat>); the
    others leave `a` None.

    The gradient (the interpolation residual) is y minus a vector of
    range(Phi), so its norm never falls below dist(y, range Phi), which
    `_range_split` measures at every width before any Newton work.  When it
    exceeds the tolerance the problem is certified infeasible and the
    record has status "infeasible", iters=0, that distance as `residual` and,
    as lambda_hat, the unit Farkas direction v (Phi^T v ~ 0,
    <v, y> = dist(y, range Phi) > 0), along which the dual objective grows
    without bound; its one trace entry holds objective_dual = <v, y>.
    """
    if pen.is_l1:
        raise ValueError("solve_dual does not handle p=1; use solve_l1")
    opts = opts or SolverOptions()
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dims(Phi, y)
    tol = float(opts.tol_grad_abs + opts.tol_grad_rel * np.linalg.norm(y))

    lam0, r = _range_split(Phi, y)
    dist = float(np.linalg.norm(r))
    if dist > tol:
        farkas = r / dist
        obj = float(farkas @ y)
        return Solution(STATUS_INFEASIBLE, None, math.nan, dist, 0, farkas, obj, [(0, obj, dist, 0.0)])

    lam = _initial_point(Phi, y, pen, lam0)
    obj = dual_objective(Phi, y, pen, lam)
    trace: list[tuple[int, float, float, float]] = []
    step = 0.0
    for k in range(opts.max_iters + 1):
        g = dual_gradient(Phi, y, pen, lam)
        gn = float(np.linalg.norm(g))
        trace.append((k, obj, gn, step))
        if gn <= tol:
            a = np.asarray(link_s(pen, Phi.T @ lam))
            return Solution(STATUS_CONVERGED, a, float(np.sum(rho(pen, a))), gn, k, lam, obj, trace)
        if k == opts.max_iters:
            status = STATUS_MAX_ITERS
            break

        u = Phi.T @ lam
        direction = _newton_direction(_curvature(Phi, pen, u), g)
        if direction is None or g @ direction <= 0:
            direction = g  # singular-Hessian fallback

        accepted, lam, obj, step = _armijo(Phi, y, pen, lam, u, obj, g, direction)
        if not accepted and direction is not g:
            accepted, lam, obj, step = _armijo(Phi, y, pen, lam, u, obj, g, g)
        if not accepted:
            status = STATUS_LINE_SEARCH_FAILED
            break
    return Solution(status, None, math.nan, gn, k, lam, obj, trace)


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """(H + HESSIAN_RIDGE tr(H) I)^{-1} g by a Cholesky solve, for the PSD H = -hess F.

    tr(H) bounds the largest eigenvalue of H, so the ridge is relative to its
    scale.  Returns None when H = 0 or when the ridged matrix is not
    numerically positive definite; the caller then steps along the gradient.

    The factorisation runs on numpy's LAPACK, as does the Hessian product
    before it.  The numpy and scipy wheels each bundle their own OpenBLAS with
    its own thread pool; alternating a numpy product with a scipy factorisation
    left each pool's spinning threads competing with the other's for the cores
    (on 2 cores, n = 150, N = 512: about 15 ms per product and factorisation,
    against 1-3 ms on numpy alone).
    """
    trace_H = float(np.trace(H))
    if not trace_H > 0:
        return None
    try:
        L = np.linalg.cholesky(H + HESSIAN_RIDGE * trace_H * np.eye(H.shape[0]))
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, g))


def _armijo(Phi, y, pen, lam, u, obj, g, direction):
    """Backtracking line search from lam (with u = Phi^T lam) along an ascent
    direction.

    Returns (accepted, new_lam, new_obj, step).  The trial objective is
    evaluated incrementally: Phi^T direction is computed once.
    """
    slope = float(g @ direction)
    du = Phi.T @ direction
    base_inner = float(lam @ y)
    dir_inner = float(direction @ y)
    # Rounding-level slack: near the optimum the true improvement sinks below
    # float resolution of the objective; without it the terminal Newton steps
    # (which still contract the gradient quadratically) would be rejected.
    slack = 4.0 * np.finfo(np.float64).eps * (1.0 + abs(obj))
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        trial_obj = (base_inner + t * dir_inner) - float(np.mean(conjugate(pen, u + t * du)))
        if trial_obj >= obj + ARMIJO_C1 * t * slope - slack:
            return True, lam + t * direction, trial_obj, t
        t *= BACKTRACK_FACTOR
    return False, lam, obj, 0.0


def solve_l1(Phi: np.ndarray, y: np.ndarray) -> Solution:
    """Minimize sum_j |a_j| subject to (1/N) Phi a = y, as a linear program.

    Split a = a+ - a- with a-, a+ >= 0 and solve with the HiGHS dual simplex,
    which returns a vertex: at most n coordinates of the optimum are active.
    y is first tested against range(Phi) (`_range_split`): when its distance
    from it exceeds the residual tolerance, the status is "infeasible" with
    that distance as `residual`, and no program is built.  A vertex whose
    residual misses the tolerance is re-solved on its support, and is
    "infeasible" with its residual if it still misses; a failed `linprog`
    call is "infeasible" with a nan residual.

    HiGHS presolve is off.  On the dense [Phi, -Phi] / N it reports "Not
    reduced", and its search for dependent equations repeats what
    `_range_split` has answered.  That search took about half of each solve
    (n = 150, N = 512: 0.26 s with presolve, 0.14 s without), and without it
    the simplex takes the same pivots to the same vertex.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dims(Phi, y)
    N = Phi.shape[1]
    tol = L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)
    dist = float(np.linalg.norm(_range_split(Phi, y)[1]))
    if dist > tol:
        return Solution(STATUS_INFEASIBLE, None, math.nan, dist)
    A_eq = np.hstack([Phi, -Phi]) / N
    c = np.ones(2 * N)
    res = linprog(
        c,
        A_eq=A_eq,
        b_eq=y,
        bounds=(0, None),
        method="highs-ds",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        return Solution(STATUS_INFEASIBLE, None, math.nan, math.nan)
    a = res.x[:N] - res.x[N:]
    residual = float(np.linalg.norm(Phi @ a / N - y))
    if residual > tol:
        # HiGHS can report an optimal vertex whose residual misses tol (4.2e-7
        # on one 150 x 16384 reference).  Re-solved on its support S with no
        # sign flip, the point is still certified optimal by the same dual.
        S = np.flatnonzero(a)
        a_S = np.linalg.pinv(Phi[:, S] / N) @ y
        if np.array_equal(np.sign(a_S), np.sign(a[S])):
            a[S] = a_S
            residual = float(np.linalg.norm(Phi @ a / N - y))
    if residual > tol:
        return Solution(STATUS_INFEASIBLE, None, math.nan, residual)
    return Solution(STATUS_CONVERGED, a, float(np.sum(np.abs(a))), residual)


def fit(
    Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec, opts: SolverOptions | None = None
) -> Solution:
    """Minimum-complexity interpolant for any p: the l1 program when p = 1,
    else the dual solve.

    Both paths return the same record for every outcome (converged,
    infeasible, max_iters or line_search_failed), so fit passes it on.
    """
    return solve_l1(Phi, y) if pen.is_l1 else solve_dual(Phi, y, pen, opts)
