"""Dual maximization for minimum-complexity interpolation.

The finite-width problem (minimize sum_j rho(a_j) subject to (1/N) Phi a = y)
is solved through its n-dimensional concave dual

    F(lambda) = <lambda, y> - (1/N) sum_j rho*(<phi_j, lambda>),

whose gradient y - (1/N) Phi s(Phi^T lambda) is exactly the interpolation
residual, so convergence is measured on the gradient alone.  A damped Newton
ascent with Armijo backtracking handles all p > 1; the l1 case (basis
pursuit, a linear program) follows the lasso homotopy to its end, in numpy
alone, and certifies the end point by LP duality from the final support.
Both start from one eigendecomposition of the Gram matrix G = Phi Phi^T / N
(`_range_split`), which tests y against range(Phi) and gives the Newton
start G^+ y and the rank of Phi.  None of it depends on p, so a sweep splits
each featurized Phi once and hands the split to every p's solve through the
private keyword `_split`; without it each solve splits Phi itself.  For
every outcome of well-formed input either path returns one `Solution` record
whose status is one of the STATUS_* strings (only bad input raises
ValueError); `fit` runs whichever path applies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .features import lines_per_block
from .penalty import PenaltySpec, conjugate, link_s, link_s_prime, rho

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_FAILED = "line_search_failed"
STATUS_INFEASIBLE = "infeasible"

L1_RESIDUAL_RTOL = 1e-8

# The l1 homotopy: its step cap per row of Phi (n = 150 takes 290-470 steps)
# and the tie margin at the end of the path (relative to the starting tau).
# A column joins only when its squared distance from the support's span
# exceeds HOMOTOPY_DEPENDENT_RTOL times its squared norm (every join on the
# fig1 grid and the N_ref references cleared 5.7e-7).  The end point is
# certified when its duality gap is at most L1_GAP_RTOL times ||a||_1.
HOMOTOPY_STEPS_PER_ROW = 20
HOMOTOPY_TIE_RTOL = 1e-12
HOMOTOPY_DEPENDENT_RTOL = 1e-10
L1_GAP_RTOL = 1e-9

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
    """The record of one solve, by the dual Newton ascent (p > 1) or the l1 homotopy.

    `a` is set only when the solve converged; otherwise it is None and
    `objective_primal` is nan.  `residual` is ||(1/N) Phi a - y||_2 for the l1
    homotopy (at its final point, also when that point is not certified) and
    the dual gradient norm for p > 1, which is the same interpolation
    residual; an infeasible record (iters 0) holds the distance that failed
    the tolerance.  The dual fields are None or empty for p = 1.
    """

    status: str
    a: np.ndarray | None
    objective_primal: float  # sum_j rho(a_j)
    residual: float
    iters: int = 0  # Newton iterations; 0 for the l1 homotopy
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
    """hess F = -(1/N) Phi diag(s'(Phi^T lambda)) Phi^T; negative semidefinite.

    Formed by `_curvature`, so it is exactly symmetric, with s' < 0 taken
    as 0 (no convex penalty has one).
    """
    Phi, y, lam = (np.asarray(a, dtype=np.float64) for a in (Phi, y, lam))
    _check_dims(Phi, y, lam)
    return -_curvature(Phi, pen, Phi.T @ lam)


def _curvature(Phi: np.ndarray, pen: PenaltySpec, u: np.ndarray) -> np.ndarray:
    """-hess F = (1/N) Phi diag(s'(u)) Phi^T at u = Phi^T lambda; PSD.

    Summed as (1/N) sum_b B_b B_b^T over column blocks B_b = Phi[:, b] sqrt(s'(u_b))
    of about BLOCK_ENTRIES entries, written into one reused buffer, so the
    solve holds no second n x N copy of Phi.  numpy runs each B B^T as a
    SYRK, which does half the flops of the general product and returns an
    exactly symmetric matrix.  s' < 0, which no convex penalty has (rounding
    in a custom link_prime can give it), is clipped to 0 so that the root is
    real and H stays PSD; a nan s' makes H nan, and `_newton_direction` then
    returns None.  A scalar s' (a constant custom link_prime) is broadcast.
    """
    n, N = Phi.shape
    s_prime = np.broadcast_to(link_s_prime(pen, u), u.shape)
    root = np.sqrt(np.maximum(s_prime, 0.0))
    cols = lines_per_block(n)
    buf = np.empty((n, min(cols, N)))
    H = np.zeros((n, n))
    for lo in range(0, N, cols):
        B = buf[:, : min(cols, N - lo)]
        np.multiply(Phi[:, lo : lo + cols], root[lo : lo + cols], out=B)
        H += B @ B.T
    H /= N
    return H


def _range_split(Phi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(G^+ y, r, rank Phi) from one eigendecomposition of G = Phi Phi^T / N.

    It depends on Phi and y alone, not on the penalty: the sweep measures it
    once per featurized width and passes it to every p's `fit` as `_split`.
    r projects y onto the null eigenvectors, so ||r|| = dist(y, range Phi), a
    floor on the residual of every fit (1/N) Phi a, and r / ||r|| is the unit
    Farkas direction v: Phi^T v = 0 and <v, y> = ||r||.  The rank counts the
    eigenvalues above the null threshold.
    """
    n, N = Phi.shape
    evals, V = np.linalg.eigh(Phi @ Phi.T / N)
    null = evals <= GRAM_NULL_RTOL * n * evals[-1]
    coef = V.T @ y
    lam0 = V[:, ~null] @ (coef[~null] / evals[~null])
    return lam0, V[:, null] @ coef[null], int(n - null.sum())


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
    *,
    _split: tuple[np.ndarray, np.ndarray, int] | None = None,
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
    `_range_split` measures before any Newton work: here, or once per
    featurized Phi by a caller that passes its result as `_split` to every
    p's solve (the result is the same, bit for bit).  When it exceeds the
    tolerance the problem is certified infeasible and the record has status
    "infeasible", iters=0, that distance as `residual` and, as lambda_hat,
    the unit Farkas direction v (Phi^T v ~ 0, <v, y> = dist(y, range Phi) >
    0), along which the dual objective grows without bound; its one trace
    entry holds objective_dual = <v, y>.
    """
    if pen.is_l1:
        raise ValueError("solve_dual does not handle p=1; use solve_l1")
    opts = opts or SolverOptions()
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dims(Phi, y)
    tol = float(opts.tol_grad_abs + opts.tol_grad_rel * np.linalg.norm(y))

    lam0, r, _ = _range_split(Phi, y) if _split is None else _split
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
    """(H + HESSIAN_RIDGE tr(H) I)^{-1} g for the PSD H = -hess F.

    tr(H) bounds the largest eigenvalue of H, so the ridge is relative to its
    scale.  Returns None when H = 0 or when the ridged matrix is not
    numerically positive definite; the caller then steps along the gradient.
    A Cholesky factorisation tests positive definiteness; one LU solve of the
    ridged matrix then costs less than two general solves on the factor, as
    numpy has no triangular solve (0.45 against 0.77 ms at n = 150, 2 vCPU).

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
    A = H + HESSIAN_RIDGE * trace_H * np.eye(H.shape[0])
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(A, g)


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


def solve_l1(
    Phi: np.ndarray,
    y: np.ndarray,
    *,
    _split: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> Solution:
    """Minimize sum_j |a_j| subject to (1/N) Phi a = y by the lasso homotopy.

    y is first tested against range(Phi) (`_range_split`, or its result
    passed as `_split` by a caller that splits Phi once for every p, as
    `solve_dual` takes it): when its distance from it exceeds the residual
    tolerance, the status is "infeasible" with that distance as `residual`,
    and the path is never entered.  Otherwise
    `_homotopy` follows the lasso path to tau = 0, re-solves the final
    support and certifies the end point once, from that support's dual
    point.  The result is "converged" only when the certificate holds and
    the residual meets the tolerance; a capped path or a failed certificate
    is "max_iters" with the final point's residual.
    `iters` stays 0: the path's steps are not Newton iterations.

    At most rank(Phi) coordinates of the optimum are nonzero (a vertex of the
    linear program).  The path needs dense numpy algebra only; it replaced
    the HiGHS dual simplex on [Phi, -Phi] / N, which it matches in support
    and, to about 1e-11 relative, in objective.
    """
    Phi = np.asarray(Phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dims(Phi, y)
    N = Phi.shape[1]
    tol = L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)
    _, r, rank = _range_split(Phi, y) if _split is None else _split
    dist = float(np.linalg.norm(r))
    if dist > tol:
        return Solution(STATUS_INFEASIBLE, None, math.nan, dist)
    # (1/N) Phi a = y is Phi a = N y: the path runs on Phi itself, uncopied.
    a, certified = _homotopy(Phi, N * y, rank)
    residual = float(np.linalg.norm(Phi @ a / N - y))
    if certified and residual <= tol:
        return Solution(STATUS_CONVERGED, a, float(np.sum(np.abs(a))), residual)
    return Solution(STATUS_MAX_ITERS, None, math.nan, residual)


def _homotopy(B: np.ndarray, b: np.ndarray, rank: int) -> tuple[np.ndarray, bool]:
    """The lasso path min 0.5 ||b - B a||^2 + tau ||a||_1 from tau = max|B^T b|
    down to tau = 0, where it ends on a minimum-l1 solution of B a = b.

    Returns (a, certified).  On the support S with signs sigma the path is
    a_S(tau) = M (B_S^T b - tau sigma), M = (B_S^T B_S)^{-1}, and the
    correlations c = B^T (b - B a) move by -v per unit of tau, v = B^T B_S d,
    d = M sigma.  Each step lowers tau to the next event: an inactive column
    whose |c_j| reaches tau joins, or a coefficient that reaches zero drops.
    (Osborne, Presnell & Turlach 2000; Donoho & Tsaig 2008.)

    - M is kept by O(k^2) bordering updates in preallocated buffers (the
      last slot moves into a dropped one).  The path only has to find the
      final support: the end point and its certificate are formed from B_S
      itself, so the rounding that M, d and c gather along the way drops out.
    - A dropped column sits on the boundary c_j = sigma_j tau: only that
      zero root is masked, so it can rejoin with the opposite sign.
    - The end of the path wins ties: a coefficient whose drop falls at
      tau = 0 ends at zero, outside the final support.
    - Joins stop at |S| = rank(B), and a column in span(B_S) (a tie, such
      as a duplicated column) waits for the next drop: either would make
      B_S singular.

    The final segment certifies optimality by LP duality.  Its dual point
    lambda, the minimum-norm solution of B_S^T lambda = sigma over all k
    slots (a coefficient dropped by the tie rule keeps its slot), is in
    exact arithmetic the path's B_S d; lambda / max|B^T lambda| is feasible
    for max <b, lambda> s.t. |B^T lambda| <= 1, so <b, lambda> /
    max|B^T lambda| bounds the optimum from below.  The end point a_S,
    re-solved on S, is certified when ||a_S||_1 exceeds that bound by at
    most L1_GAP_RTOL relative: so it is when S and sigma are the optimum's,
    up to rounding-size coefficients of either sign where the optimum has a
    zero.  A path capped at HOMOTOPY_STEPS_PER_ROW * n steps
    is not certified.
    """
    n, N = B.shape
    a = np.zeros(N)
    c = B.T @ b
    tau0 = float(np.max(np.abs(c))) if N else 0.0
    if not tau0 > 0:
        return a, True
    # Both boundaries in one array: entry j is column j at c_j = +tau and
    # entry N + j the same column at c_j = -tau.
    c2 = np.concatenate([c, -c])
    v2 = np.empty(2 * N)
    roots = np.empty(2 * N)
    blocked = np.zeros(2 * N, dtype=bool)  # both entries of every active column
    # Slots 0..k-1 hold the support; the rest of every buffer stays zero, so
    # the products below run on whole contiguous buffers.
    S = np.zeros(rank, dtype=np.intp)
    sigma = np.zeros(rank)
    BS = np.zeros((rank, n))  # row i is column S[i] of B
    aS = np.zeros(rank)
    M = np.zeros((rank, rank))  # (B_S^T B_S)^{-1}
    k = 0
    dependent: list[int] = []  # columns kept out of the support until the next drop

    def join(j: int, sign: float) -> None:
        nonlocal k
        col = B[:, j]
        g = BS @ col
        u = M @ g
        schur = float(col @ col - g @ u)  # squared distance of col from span(B_S)
        blocked[j] = blocked[N + j] = True
        if not schur > HOMOTOPY_DEPENDENT_RTOL * float(col @ col):
            # In span(B_S), col rides the boundary with the support (a tie,
            # as for a duplicated column) and would make B_S singular.
            dependent.append(j)
            return
        # einsum forms the outer product faster than np.outer's broadcast.
        M[:] += np.einsum("i,j->ij", u, u / schur)
        M[:, k] = M[k, :] = -u / schur
        M[k, k] = 1.0 / schur
        S[k], sigma[k], BS[k] = j, sign, col
        k += 1

    def drop(i: int) -> None:
        # Eliminate slot i from M, move the last slot into it, zero the last.
        nonlocal k
        m = M[:, i].copy()
        M[:] -= np.einsum("i,j->ij", m, m / m[i])
        last = k - 1
        for j in (S[i], *dependent):  # span(B_S) shrinks
            blocked[j] = blocked[N + j] = False
        dependent.clear()
        for buf in (S, sigma, aS, BS, M):
            buf[i] = buf[last]
            buf[last] = 0
        M[:, i] = M[:, last]
        M[:, last] = 0.0
        k = last

    j0 = int(np.argmax(np.abs(c)))
    join(j0, float(np.sign(c[j0])))  # c_j0 != 0, so column j0 is not zero
    tau = tau0
    ended = False
    masked = -1  # entry of c2 at the boundary where the last drop left its column
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(HOMOTOPY_STEPS_PER_ROW * n):
            d = M @ sigma
            np.matmul(B.T, BS.T @ d, out=v2[:N])
            np.negative(v2[:N], out=v2[N:])

            gamma, entry, slot = math.inf, -1, -1
            if k < rank:
                den = 1.0 - v2
                num = tau - c2
                np.maximum(num, 0.0, out=num)
                roots.fill(math.inf)
                np.divide(num, den, out=roots, where=den > 0)
                roots[blocked] = math.inf
                if masked >= 0:
                    roots[masked] = math.inf
                entry = int(roots.argmin())
                gamma = float(roots[entry])
            # Slots past k have d = 0 and never shrink.
            shrinking = d * sigma < 0
            drops = np.full(rank, math.inf)
            np.maximum(-aS / d, 0.0, out=drops, where=shrinking)
            i = int(drops.argmin())
            if drops[i] < gamma:
                gamma, slot = float(drops[i]), i

            if gamma >= tau - HOMOTOPY_TIE_RTOL * tau0:
                ended = True
                break
            aS += gamma * d
            c2 -= gamma * v2
            tau -= gamma
            if slot < 0:
                join(entry % N, 1.0 if entry < N else -1.0)
                masked = -1
            else:
                j = int(S[slot])
                masked = j if sigma[slot] > 0 else N + j
                c2[j], c2[N + j] = tau * sigma[slot], -tau * sigma[slot]
                drop(slot)
    if not ended:
        a[S[:k]] = aS[:k]
        return a, False

    # A coefficient whose drop ties the end of the path is zero there.
    keep = drops[:k] > tau + HOMOTOPY_TIE_RTOL * tau0
    B_end = BS[:k][keep].T
    try:
        if B_end.shape[1] == n:
            a_end = np.linalg.solve(B_end, b)
        else:
            a_end = np.linalg.lstsq(B_end, b, rcond=None)[0]
        lam = np.linalg.lstsq(BS[:k], sigma[:k], rcond=None)[0]  # B_S^T lam = sigma
    except np.linalg.LinAlgError:  # B_end singular to working precision
        a[S[:k]] = aS[:k]
        return a, False
    a[S[:k][keep]] = a_end
    l1 = float(np.sum(np.abs(a_end)))
    bound = float(b @ lam) / float(np.max(np.abs(B.T @ lam)))
    return a, l1 - bound <= L1_GAP_RTOL * l1


def fit(
    Phi: np.ndarray,
    y: np.ndarray,
    pen: PenaltySpec,
    opts: SolverOptions | None = None,
    *,
    _split: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> Solution:
    """Minimum-complexity interpolant for any p: the l1 program when p = 1,
    else the dual solve.

    Both paths return the same record for every outcome (converged,
    infeasible, max_iters or line_search_failed), so fit passes it on.
    `_split` is `_range_split(Phi, y)` computed by a caller that fits the
    same Phi and y for several p; it is handed on unchanged.
    """
    if pen.is_l1:
        return solve_l1(Phi, y, _split=_split)
    return solve_dual(Phi, y, pen, opts, _split=_split)
