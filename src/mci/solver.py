"""Dual maximization for minimum-complexity interpolation.

The finite-width problem (minimize sum_j rho(a_j) subject to (1/N) Phi a = y)
is solved through its n-dimensional concave dual

    F(lambda) = <lambda, y> - (1/N) sum_j rho*(<phi_j, lambda>),

whose gradient y - (1/N) Phi s(Phi^T lambda) is exactly the interpolation
residual, so convergence is measured on the gradient alone.  A damped Newton
ascent with Armijo backtracking handles all p > 1; the l1 case is a linear
program over the split a = a+ - a-.  `fit` runs whichever applies and
reports every outcome as one of the STATUS_* strings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DimMismatch, Infeasible, NotConvergedWarning, UndefinedForL1
from .penalty import PenaltySpec, conjugate, link_s, link_s_prime, rho

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_FAILED = "line_search_failed"
STATUS_INFEASIBLE = "infeasible"

L1_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    tol_grad_rel: float = 1e-8
    tol_grad_abs: float = 1e-10
    max_iters: int = 500
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 50
    hessian_ridge: float = 1e-12

    def __post_init__(self):
        if min(
            self.tol_grad_rel,
            self.tol_grad_abs,
            self.max_iters,
            self.armijo_c1,
            self.max_backtracks,
            self.hessian_ridge,
        ) <= 0:
            raise ValueError("all solver options must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")


@dataclass
class DualSolution:
    lambda_hat: np.ndarray
    grad_norm: float
    objective: float
    iters: int
    trace: list[tuple[int, float, float, float]]  # (iter, objective, grad_norm, step)
    converged: bool
    status: str = STATUS_CONVERGED


@dataclass
class PrimalSolution:
    a: np.ndarray | None  # None when the solve did not converge (see `fit`)
    objective_primal: float  # sum_j rho(a_j)
    residual: float  # ||(1/N) Phi a - y||_2
    from_converged: bool = True
    status: str = STATUS_CONVERGED
    iters: int = 0  # Newton iterations; 0 for the linear program
    dual: DualSolution | None = None  # the dual solve behind a p > 1 fit


def _check_dims(Phi: np.ndarray, y: np.ndarray, lam: np.ndarray | None = None) -> None:
    if Phi.ndim != 2:
        raise DimMismatch("Phi must be n x N")
    if y.shape != (Phi.shape[0],):
        raise DimMismatch(f"y has shape {y.shape}, expected ({Phi.shape[0]},)")
    if lam is not None and lam.shape != (Phi.shape[0],):
        raise DimMismatch(f"lambda has shape {lam.shape}, expected ({Phi.shape[0]},)")


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
    u = Phi.T @ lam
    H = (Phi * link_s_prime(pen, u)) @ Phi.T / Phi.shape[1]
    return -0.5 * (H + H.T)


def _farkas_direction(Phi: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray | None:
    """Unit v with Phi^T v = 0 and <v, y> > tol, or None when N >= n or y lies
    within tol of range(Phi).

    v = r / ||r|| for the range residual r = y - Phi Phi^+ y, whose norm is
    dist(y, range Phi).  Every candidate fit (1/N) Phi a lies in range(Phi), so
    its residual is at least ||r|| = <v, y>: when that exceeds `tol`, no fit
    meets the tolerance.  Only N < n is tested (a least-squares solve, O(n N^2));
    with N >= n range(Phi) is generically all of R^n and None is returned.
    """
    n, N = Phi.shape
    if N >= n:
        return None
    coef, *_ = np.linalg.lstsq(Phi, y, rcond=None)
    r = y - Phi @ coef
    dist = float(np.linalg.norm(r))
    return r / dist if dist > tol else None


def _initial_point(Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec) -> np.ndarray:
    """Quadratic-case solution lam0, rescaled to the maximiser of F(c lam0).

    For conjugate exponents above 2 the dual is flat at the origin (s'(0) = 0),
    where Newton stalls; starting from the rescaled quadratic solution lands in
    the curved region.  For a Q-homogeneous conjugate (every p-norm),
    dF(c lam0)/dc = <lam0, y> - c^(Q-1) mean(u s(u)) with u = Phi^T lam0, so
    the maximiser is c = (<lam0, y> / mean(u s(u)))^(1/(Q-1)); c = 1 when that
    is not finite and positive.
    """
    n, N = Phi.shape
    G = Phi @ Phi.T / N
    lam0 = np.linalg.solve(G + 1e-10 * (np.trace(G) / n) * np.eye(n), y)
    if np.linalg.norm(lam0) == 0:
        return lam0
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
    init: np.ndarray | None = None,
) -> DualSolution:
    """Maximize the dual by damped Newton ascent with Armijo backtracking.

    Newton direction (-hess + ridge I)^{-1} grad, with ridge proportional to
    the Hessian trace (an upper bound on its largest eigenvalue); a singular
    or non-ascent direction falls back to plain gradient ascent for that
    iteration.  Declares convergence when ||grad||_2 <= tol_abs + tol_rel ||y||_2.

    The gradient (the interpolation residual) is y minus a vector of
    range(Phi), so its norm never falls below dist(y, range Phi).  With N < n
    that distance is tested before any Newton work; when it exceeds the
    tolerance the problem is certified infeasible and the solution has
    status "infeasible", converged=False, iters=0 and, as lambda_hat, the
    unit Farkas direction v (Phi^T v ~ 0, <v, y> = dist(y, range Phi) > 0),
    along which the dual objective grows without bound.
    """
    if pen.is_l1:
        raise UndefinedForL1("solve_dual does not handle p=1; use solve_l1")
    opts = opts or SolverOptions()
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dims(Phi, y)
    N = Phi.shape[1]
    tol = float(opts.tol_grad_abs + opts.tol_grad_rel * np.linalg.norm(y))

    farkas = _farkas_direction(Phi, y, tol)
    if farkas is not None:
        obj = dual_objective(Phi, y, pen, farkas)
        gn = float(np.linalg.norm(dual_gradient(Phi, y, pen, farkas)))
        return DualSolution(
            lambda_hat=farkas,
            grad_norm=gn,
            objective=obj,
            iters=0,
            trace=[(0, obj, gn, 0.0)],
            converged=False,
            status=STATUS_INFEASIBLE,
        )

    lam = np.array(init, dtype=np.float64) if init is not None else _initial_point(Phi, y, pen)

    trace: list[tuple[int, float, float, float]] = []
    obj = dual_objective(Phi, y, pen, lam)
    gn = float(np.linalg.norm(dual_gradient(Phi, y, pen, lam)))
    iters = 0
    step = 0.0
    status = STATUS_MAX_ITERS
    for k in range(opts.max_iters):
        iters = k
        g = dual_gradient(Phi, y, pen, lam)
        gn = float(np.linalg.norm(g))
        trace.append((k, obj, gn, step))
        if gn <= tol:
            status = STATUS_CONVERGED
            break

        u = Phi.T @ lam
        H = (Phi * link_s_prime(pen, u)) @ Phi.T / N  # = -hess, PSD
        direction = _newton_direction(0.5 * (H + H.T), g, opts.hessian_ridge)
        if direction is None or g @ direction <= 0:
            direction = g  # singular-Hessian fallback

        accepted, lam, obj, step = _armijo(Phi, y, pen, lam, obj, g, direction, opts)
        if not accepted and direction is not g:
            accepted, lam, obj, step = _armijo(Phi, y, pen, lam, obj, g, g, opts)
        if not accepted:
            status = STATUS_LINE_SEARCH_FAILED
            break
    else:
        iters = opts.max_iters
        gn = float(np.linalg.norm(dual_gradient(Phi, y, pen, lam)))
        trace.append((iters, obj, gn, step))

    converged = gn <= tol
    if converged:
        status = STATUS_CONVERGED
    return DualSolution(
        lambda_hat=lam,
        grad_norm=gn,
        objective=obj,
        iters=iters,
        trace=trace,
        converged=converged,
        status=status,
    )


def _newton_direction(H: np.ndarray, g: np.ndarray, ridge: float) -> np.ndarray | None:
    """(H + ridge tr(H) I)^{-1} g by a Cholesky solve, for the PSD H = -hess F.

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
        L = np.linalg.cholesky(H + ridge * trace_H * np.eye(H.shape[0]))
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, g))


def _armijo(Phi, y, pen, lam, obj, g, direction, opts):
    """Backtracking line search along an ascent direction.

    Returns (accepted, new_lam, new_obj, step).  The trial objective is
    evaluated incrementally: Phi^T direction is computed once.
    """
    slope = float(g @ direction)
    du = Phi.T @ direction
    u = Phi.T @ lam
    base_inner = float(lam @ y)
    dir_inner = float(direction @ y)
    # Rounding-level slack: near the optimum the true improvement sinks below
    # float resolution of the objective; without it the terminal Newton steps
    # (which still contract the gradient quadratically) would be rejected.
    slack = 4.0 * np.finfo(np.float64).eps * (1.0 + abs(obj))
    t = 1.0
    for _ in range(opts.max_backtracks):
        trial_obj = (base_inner + t * dir_inner) - float(np.mean(conjugate(pen, u + t * du)))
        if trial_obj >= obj + opts.armijo_c1 * t * slope - slack:
            return True, lam + t * direction, trial_obj, t
        t *= opts.backtrack_factor
    return False, lam, obj, 0.0


def primal_from_dual(Phi: np.ndarray, pen: PenaltySpec, sol: DualSolution) -> PrimalSolution:
    """Recover a_j = s(<phi_j, lambda_hat>); the residual is the dual gradient norm."""
    Phi = np.asarray(Phi, dtype=np.float64)
    if not sol.converged:
        warnings.warn(
            "recovering primal from a non-converged dual solution",
            NotConvergedWarning,
            stacklevel=2,
        )
    a = np.asarray(link_s(pen, Phi.T @ sol.lambda_hat))
    return PrimalSolution(
        a=a,
        objective_primal=float(np.sum(rho(pen, a))),
        residual=sol.grad_norm,
        from_converged=sol.converged,
        status=sol.status,
        iters=sol.iters,
        dual=sol,
    )


def solve_l1(Phi: np.ndarray, y: np.ndarray, opts: SolverOptions | None = None) -> PrimalSolution:
    """Minimize sum_j |a_j| subject to (1/N) Phi a = y, as a linear program.

    Split a = a+ - a- with a-, a+ >= 0 and solve with the HiGHS dual simplex,
    which returns a vertex: at most n coordinates of the optimum are active.
    With N < n, y is first tested against range(Phi): when its distance from
    it exceeds the residual tolerance, no solution can be accepted and
    Infeasible is raised without building the program.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dims(Phi, y)
    n, N = Phi.shape
    tol = L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)
    if _farkas_direction(Phi, y, tol) is not None:
        raise Infeasible("the l1 interpolation constraints admit no solution")
    A_eq = np.hstack([Phi, -Phi]) / N
    c = np.ones(2 * N)
    res = linprog(
        c,
        A_eq=A_eq,
        b_eq=y,
        bounds=(0, None),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2 or res.x is None:
        raise Infeasible("the l1 interpolation constraints admit no solution")
    if not res.success:
        raise Infeasible(f"linear program failed: {res.message}")
    a = res.x[:N] - res.x[N:]
    residual = float(np.linalg.norm(Phi @ a / N - y))
    if residual > tol:
        raise Infeasible(f"l1 solution violates the constraints (residual {residual:.3e})")
    return PrimalSolution(a=a, objective_primal=float(np.sum(np.abs(a))), residual=residual)


def fit(
    Phi: np.ndarray, y: np.ndarray, pen: PenaltySpec, opts: SolverOptions | None = None
) -> PrimalSolution:
    """Minimum-complexity interpolant for any p: the l1 program when p = 1,
    else the dual solve and its primal recovery.

    Every outcome is a status (converged, infeasible, max_iters or
    line_search_failed); an Infeasible from the l1 program becomes status
    "infeasible" with iters 0.  Coefficients are recovered only from a
    converged solve: otherwise `a` is None and `objective_primal` is nan, while
    a p > 1 fit keeps its dual solve (and its gradient norm as `residual`).
    """
    if pen.is_l1:
        try:
            return solve_l1(Phi, y, opts)
        except Infeasible:
            return PrimalSolution(None, math.nan, math.nan, False, STATUS_INFEASIBLE)
    sol = solve_dual(Phi, y, pen, opts)
    if not sol.converged:
        return PrimalSolution(None, math.nan, sol.grad_norm, False, sol.status, sol.iters, sol)
    return primal_from_dual(Phi, pen, sol)
