"""Empirical audits of the assumptions behind dual concentration.

Three groups of checks:

* Hermite analysis of the activation: coefficients mu_k against probabilists'
  polynomials (E[He_k(G) He_j(G)] = k! delta_jk), spectral tails
  kappa_{>m} = sum_{k>m} mu_k^2 / k!, and the anti-concentration criterion
  kappa_{>m} <= kappa_{>ell} ((C0 m)^{-(2m+1)} ^ 1/4).
* Small-ball and sub-Gaussian proxies for the whitened feature vector.
* The event budget: measured statistics (eps1, eps2, beta, K) of predictor
  concentration, dual-gradient concentration, dual curvature, and
  infinite-width continuity, combined into the computable distance bound
  lhs <= (eps1 + 2 K eps2 / beta) s(||lambda_hat||_K).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

# numpy loads numpy.polynomial on first use; imported here, it loads with the
# package instead of in the middle of the first audit.
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from .errors import NotConverged, NumericalFailure
from .features import (
    IDENTITY,
    RELU,
    TRUNCATED_RELU,
    Activation,
    DataSpec,
    FeatureSpec,
    Instance,
    KernelOracle,
    _draw_weights,
    apply_activation,
    chunk_rows,
    featurize,
    lines_per_block,
    mean_features,
    sample_covariates,
    whiten,
)
from .penalty import PenaltySpec, link_s
from .seeding import rng_from
from .solver import Solution, _curvature, dual_gradient

# Gaussian absolute moments E|G|^q for the moment-ratio proxy.
_GAUSS_ABS_MOMENTS = {2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}
# Exponents r of the moments E|<v, psi>|^r of `feat3_prime_moments`.
_FEAT3_POWERS = (-0.25, -0.5, -0.75)

# Doubling the quadrature may move no normalised coefficient mu_k / sqrt(k!)
# by more than this.
_QUAD_STABLE_TOL = 1e-8
# Tails kappa_{>m} at or below this fraction of E[sigma^2] are rounding and
# count as zero: the identity's, zero in exact arithmetic, come out at
# 1e-15; the smallest real one of a built-in or smooth activation at
# m_max = 20 (tanh) is 3e-6.
_TAIL_ROUNDING_RTOL = 1e-12

# Kink locations of the built-in activations (points where quadrature panels
# must break to keep piecewise-polynomial convergence).
_KINKS = {RELU: (0.0,), TRUNCATED_RELU: (0.0, 1.0), IDENTITY: ()}


# ---------------------------------------------------------------------------
# Hermite pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteProfile:
    """Coefficients mu_k (k = 0..m_max) and tails kappa_{>m} (m = 0..m_max-1).

    `sigma_sq` is E[sigma(G)^2]; `tail_beyond` is kappa_{>m_max}, i.e. the
    Parseval gap left after m_max coefficients.
    """

    mu: np.ndarray
    tails: np.ndarray
    sigma_sq: float
    tail_beyond: float
    m_max: int
    quad_order: int


def _hermite_values(x: np.ndarray, m_max: int) -> np.ndarray:
    """He_k(x) for k = 0..m_max, shape (m_max + 1, len(x))."""
    H = np.empty((m_max + 1, x.size))
    H[0] = 1.0
    if m_max >= 1:
        H[1] = x
    for k in range(1, m_max):
        H[k + 1] = x * H[k] - k * H[k - 1]
    return H


def _gauss_nodes(activation: Activation, quad_order: int, m_max: int, refine: int):
    """Quadrature nodes/weights for integrals against the standard normal.

    Smooth activations use Gauss-Hermite directly.  Activations with kinks
    keep Hermite convergence from collapsing to a polynomial rate by breaking
    the line at the kinks and integrating each smooth piece with panelled
    Gauss-Legendre (Gaussian density folded into the weights).  `refine`
    multiplies the nodes of either rule: the Gauss-Hermite order, or the
    nodes per panel.
    """
    kinks = _KINKS.get(activation, ()) if not callable(activation) else ()
    if not kinks:
        x, w = hermegauss(refine * quad_order)
        return x, w / np.sqrt(2.0 * np.pi)
    # Range where |x|^m_max exp(-x^2/2) is below ~1e-18.
    R = math.sqrt(2.0 * (45.0 + m_max * math.log(m_max + 2.0)))
    edges = np.unique(np.concatenate([[-R, R], np.asarray(kinks, dtype=np.float64)]))
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels.extend(np.linspace(lo, hi, int(np.ceil(hi - lo)) + 1))
    panels = np.unique(np.asarray(panels))
    # Per-panel order must track the polynomial degree being integrated.
    per_panel = refine * max(24, m_max + 12, quad_order // max(1, len(panels) - 1))
    t, u = leggauss(per_panel)
    xs, ws = [], []
    for lo, hi in zip(panels[:-1], panels[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        xs.append(mid + half * t)
        ws.append(half * u)
    x = np.concatenate(xs)
    w = np.concatenate(ws) * np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    return x, w


def _mu_at_order(activation: Activation, m_max: int, quad_order: int, refine: int):
    x, w = _gauss_nodes(activation, quad_order, m_max, refine)
    sig = apply_activation(activation, x)
    H = _hermite_values(x, m_max)
    mu = H @ (w * sig)
    sigma_sq = float(w @ sig**2)
    return mu, sigma_sq


def hermite_coefficients(activation: Activation, m_max: int, quad_order: int) -> HermiteProfile:
    """Hermite coefficients mu_k = E[sigma(G) He_k(G)] and tails.

    Stability check: the profile is accepted only if a rule with twice the
    nodes (twice the Gauss-Hermite order, or twice the nodes per panel) moves
    no normalised coefficient mu_k / sqrt(k!), the scale of the tails, and
    not E[sigma^2] by more than 1e-8; otherwise NumericalFailure is raised.
    The raw mu_k grow like sqrt(k!) (1.6e9 at k = 20), so their own rounding
    would fail a smooth activation.  The profile holds the finer rule's values.
    Tails are computed as kappa_{>m} = E[sigma^2] - sum_{k<=m} mu_k^2 / k!,
    which makes the Parseval identity hold by construction; a tail at
    rounding level (at most _TAIL_ROUNDING_RTOL E[sigma^2]) is set to zero.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if quad_order < 2 * m_max + 20:
        raise ValueError("quad_order must be at least 2 * m_max + 20")
    mu_lo, s2_lo = _mu_at_order(activation, m_max, quad_order, refine=1)
    mu, sigma_sq = _mu_at_order(activation, m_max, quad_order, refine=2)
    factorials = np.array([math.factorial(k) for k in range(m_max + 1)], dtype=np.float64)
    drift = max(np.max(np.abs(mu - mu_lo) / np.sqrt(factorials)), abs(sigma_sq - s2_lo))
    if not drift <= _QUAD_STABLE_TOL:  # a nan drift (an overflowing rule) fails too
        raise NumericalFailure(
            f"coefficients moved by {drift:.2e} when doubling the order"
        )
    energy = mu**2 / factorials
    tails = sigma_sq - np.cumsum(energy)  # kappa_{>0}, ..., kappa_{>m_max}
    tails[tails <= _TAIL_ROUNDING_RTOL * sigma_sq] = 0.0
    tail_beyond = float(tails[-1])
    tails = tails[:-1]
    return HermiteProfile(
        mu=mu,
        tails=tails,
        sigma_sq=sigma_sq,
        tail_beyond=tail_beyond,
        m_max=m_max,
        quad_order=quad_order,
    )


@dataclass(frozen=True)
class HermiteConditionReport:
    """Smallest degree m passing the tail criterion, if any below m_max."""

    found: bool
    m: int | None
    eta_star: float | None  # 4 kappa_{>m} / kappa_{>ell} at the passing m
    ell: int
    C0: float
    checked_up_to: int


def hermite_condition_check(profile: HermiteProfile, ell: int, C0: float) -> HermiteConditionReport:
    """Search for m > ell with kappa_{>m} <= kappa_{>ell} ((C0 m)^{-(2m+1)} ^ 1/4)."""
    if ell < 0 or ell >= len(profile.tails) - 1:
        raise ValueError(
            f"profile tails reach m = {len(profile.tails) - 1}, need beyond ell = {ell}"
        )
    kappa_ell = float(profile.tails[ell])
    last = len(profile.tails) - 1
    if kappa_ell <= 0.0:
        # Purely low-degree activation: every tail beyond ell is zero.
        m = ell + 1
        return HermiteConditionReport(True, m, 0.0, ell, C0, last)
    for m in range(ell + 1, last + 1):
        threshold = min((C0 * m) ** (-(2 * m + 1)), 0.25)
        if profile.tails[m] <= kappa_ell * threshold:
            eta_star = 4.0 * float(profile.tails[m]) / kappa_ell
            return HermiteConditionReport(True, m, eta_star, ell, C0, last)
    return HermiteConditionReport(False, None, None, ell, C0, last)


# ---------------------------------------------------------------------------
# Feature-distribution proxies
# ---------------------------------------------------------------------------

def smallball_estimate(
    Psi_samples: np.ndarray,
    eta: float,
    directions: int,
    seed: int,
) -> float:
    """max over unit directions v of the empirical P(|<v, psi>| <= eta).

    `Psi_samples` is M x n, one whitened sample a row.  Directions are the n
    coordinate axes plus `directions` uniform draws on the sphere.  The
    estimate reads the transpose, n x M, where row i is the projection onto
    axis i, so the axes take no product; the random directions are projected
    64 at a time.
    """
    Psi = np.asarray(Psi_samples, dtype=np.float64)
    if Psi.ndim != 2 or Psi.shape[0] < 1_000:
        raise ValueError("need at least 1e3 whitened feature samples")
    if directions < 100:
        raise ValueError("need at least 1e2 probe directions")
    M, n = Psi.shape
    axes = Psi.T  # n x M
    V = rng_from(seed, "directions").standard_normal((directions, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    worst = 0  # the largest count of |projection| <= eta over the probes
    for lo in range(0, n, 64):
        inside = np.abs(axes[lo : lo + 64]) <= eta
        worst = max(worst, int(np.max(np.count_nonzero(inside, axis=1))))
    for lo in range(0, directions, 64):
        proj = V[lo : lo + 64] @ axes
        inside = np.abs(proj, out=proj) <= eta
        worst = max(worst, int(np.max(np.count_nonzero(inside, axis=1))))
    return worst / M


def _moment_scales(rows: np.ndarray, mean_removed: bool = False) -> np.ndarray:
    """`subgaussian_proxy` of each row of `rows` (k x M), a block of rows at a time.

    |x|^2 is x * x and the 4th, 6th and 8th powers are products of it, so no
    pass takes a generic `pow`.
    """
    k, M = rows.shape
    moments = np.empty((len(_GAUSS_ABS_MOMENTS), k))  # one row per q
    step = lines_per_block(M)
    for lo in range(0, k, step):
        x = rows[lo : lo + step]
        if not mean_removed:
            x = x - np.mean(x, axis=1, keepdims=True)
        x2 = x * x
        x4 = x2 * x2
        m = moments[:, lo : lo + step]
        m[0] = np.mean(x2, axis=1)
        m[1] = np.mean(x4, axis=1)
        m[2] = np.mean(np.multiply(x4, x2, out=x2), axis=1)
        m[3] = np.mean(np.multiply(x4, x4, out=x4), axis=1)
    q = np.array(list(_GAUSS_ABS_MOMENTS), dtype=np.float64)[:, None]
    cq = np.array(list(_GAUSS_ABS_MOMENTS.values()))[:, None]
    return np.maximum(np.max((moments / cq) ** (1.0 / q), axis=0), 1.0)


def subgaussian_proxy(samples: np.ndarray, mean_removed: bool = False) -> float:
    """Moment-ratio sub-Gaussian scale: max_q (E|X|^q / E|G|^q)^{1/q}, q in {2,4,6,8}.

    A crude but pinned estimator (ratios of empirical absolute moments to the
    standard Gaussian ones), clipped below at 1.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1_000:
        raise ValueError("need at least 1e3 samples")
    return float(_moment_scales(x[None, :], mean_removed)[0])


def _inverse_root_moments(abs_rows: np.ndarray) -> dict[float, float]:
    """max over the rows of `abs_rows` (k x M, entries |x|) of mean |x|^r, for
    r in _FEAT3_POWERS, a block of rows at a time into reused buffers.

    |x|^{-1/4}, |x|^{-1/2} and |x|^{-3/4} come from two square roots and a
    reciprocal each; a zero entry makes its row's means infinite.
    """
    k, M = abs_rows.shape
    step = min(lines_per_block(M), k)
    half, quarter, buf = (np.empty((step, M)) for _ in range(3))
    means = np.empty((len(_FEAT3_POWERS), k))
    with np.errstate(divide="ignore"):
        for lo in range(0, k, step):
            b = min(step, k - lo)
            h, q, t = half[:b], quarter[:b], buf[:b]
            m = means[:, lo : lo + b]
            np.sqrt(abs_rows[lo : lo + b], out=h)
            np.sqrt(h, out=q)
            m[0] = np.mean(np.divide(1.0, q, out=t), axis=1)
            m[1] = np.mean(np.divide(1.0, h, out=t), axis=1)
            m[2] = np.mean(np.divide(1.0, np.multiply(h, q, out=t), out=t), axis=1)
    return {r: float(m) for r, m in zip(_FEAT3_POWERS, np.max(means, axis=1))}


def _row_quantile(rows: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(rows, q, axis=1) (numpy's default linear method) for
    0 <= q < 1 and at least two columns, bitwise, reordering each row in place.

    The quantile interpolates between the order statistics at lo = floor(q (M-1))
    and lo + 1.  One partition at lo + 1 puts the larger in place and the
    smaller is the largest entry left of it; np.quantile partitions at both.
    The interpolation is numpy's `_lerp`, step for step.
    """
    M = rows.shape[1]
    virtual = (M - 1) * q
    lo = math.floor(virtual)
    t = virtual - lo
    rows.partition(lo + 1, axis=1)
    below = np.max(rows[:, : lo + 1], axis=1)
    above = rows[:, lo + 1]
    diff = above - below
    return above - diff * (1 - t) if t >= 0.5 else below + diff * t


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical proxies for the feature-distribution assumptions."""

    tau_hat: float
    eta_hat: float
    smallball_prob: float
    lipschitz_tail: dict
    feat3_prime_moments: dict[float, float]


def assumption_report(
    spec: FeatureSpec,
    inst: Instance,
    oracle: KernelOracle,
    n_samples: int = 20_000,
    eta: float = 0.1,
    directions: int = 128,
    seed: int = 0,
) -> AssumptionReport:
    """Draws fresh (w, z) samples and measures the assumption proxies.

    tau_hat combines the scalar mean-feature proxy (worst training row) with
    the directional proxy of the whitened vector.  eta_hat is the largest ball
    radius at which the worst-direction small-ball probability stays below 1/4
    (a 25th-percentile estimate).

    Every probe is a row of one (n + 64) x n_samples buffer: the n whitened
    coordinates (Psi = K^{-1/2} Phi, written there by `whiten`; row i is the
    projection onto axis i) and the projections onto 64 random directions.
    The moments read the signed rows, then the buffer turns into |projections|
    in place, and the 25% quantile partitions each row in place last
    (`_row_quantile`).
    """
    rng = rng_from(seed, "weights", 77)
    W = _draw_weights(spec, inst.d, n_samples, rng)
    Phi = featurize(spec, inst.X, W, seed=int(rng.integers(2**32)))  # n x M

    # Without feature noise Phi is the mean feature matrix sigma(X W^T).
    Fbar = Phi if spec.noise_gamma == 0 else mean_features(spec, inst.X, W)
    tau_scalar = float(np.max(_moment_scales(Fbar)))
    del Fbar

    # Built-in activations are 1-Lipschitz, so L(w) = ||w||_2.
    if not callable(spec.activation):
        L = np.linalg.norm(W, axis=1)
        lipschitz_tail = {
            "scale": float(subgaussian_proxy(L)),
            "max_observed": float(np.max(L)),
            "mean": float(np.mean(L)),
        }
    else:
        lipschitz_tail = {"scale": None, "note": "no Lipschitz audit for custom activations"}
    del W

    dirs = rng_from(seed, "directions", 1).standard_normal((min(directions, 64), inst.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    probes = np.empty((inst.n + dirs.shape[0], n_samples))
    Psi, proj = probes[: inst.n], probes[inst.n :]
    whiten(oracle, Phi, out=Psi)
    del Phi
    np.matmul(dirs, Psi, out=proj)
    tau_dir = float(np.max(_moment_scales(proj)))
    tau_hat = max(1.0, tau_scalar, tau_dir)
    smallball_prob = smallball_estimate(Psi.T, eta, directions, seed)

    abs_proj = np.abs(probes, out=probes)
    feat3_prime = _inverse_root_moments(abs_proj)
    eta_hat = float(np.min(_row_quantile(abs_proj, 0.25)))
    return AssumptionReport(
        tau_hat=tau_hat,
        eta_hat=eta_hat,
        smallball_prob=smallball_prob,
        lipschitz_tail=lipschitz_tail,
        feat3_prime_moments=feat3_prime,
    )


# ---------------------------------------------------------------------------
# Event budget
# ---------------------------------------------------------------------------

class SolvedModel(NamedTuple):
    """A width-N model: weights, feature matrix, and its dual solve."""

    W: np.ndarray
    Phi: np.ndarray
    solution: Solution


@dataclass(frozen=True)
class EventBudget:
    """Measured concentration statistics and the distance bound they imply."""

    eps1: float
    eps2: float
    beta: float
    K_cont: float
    s_norm: float
    bound_rhs: float
    lhs: float
    holds: bool
    eps2_over_beta: float


def _lambda_grid(
    lam_fin: np.ndarray,
    lam_ref: np.ndarray,
    oracle: KernelOracle,
    segment_points: int,
    perturbations: int,
    seed: int,
) -> tuple[np.ndarray, int, int]:
    """Grid columns: the [lam_fin, lam_ref] segment plus random K-ball offsets."""
    if segment_points < 2:
        raise ValueError("need at least the two segment endpoints")
    ts = np.linspace(0.0, 1.0, segment_points)
    cols = [lam_fin + t * (lam_ref - lam_fin) for t in ts]
    idx_fin, idx_ref = 0, segment_points - 1
    rng = rng_from(seed, "grid")
    ref_norm = oracle.norm_K(lam_ref)
    for _ in range(perturbations):
        g = rng.standard_normal(lam_ref.size)
        v = oracle.inv_sqrt @ g
        v /= max(np.linalg.norm(g), 1e-300)  # ||v||_K = 1
        r = rng.uniform(0.0, 0.5) * ref_norm
        cols.append(lam_ref + r * v)
    return np.stack(cols, axis=1), idx_fin, idx_ref


def event_audit(
    inst: Instance,
    pen: PenaltySpec,
    spec: FeatureSpec,
    finite: SolvedModel,
    reference: SolvedModel,
    oracle: KernelOracle,
    ds: DataSpec,
    M: int,
    seed: int,
    segment_points: int = 16,
    perturbations: int = 16,
) -> EventBudget:
    """Measure (eps1, eps2, beta, K) with the reference solve as the
    infinite-width surrogate, and evaluate the implied distance bound.

    All L2 norms share one Monte Carlo batch of M covariates and the grid
    contains both dual optima, so whenever eps2/beta <= 1/4 the bound is a
    consequence of the measured statistics rather than an extra assumption.
    eps1 and K are grid maxima, hence lower bounds on the true suprema.
    """
    if not (finite.solution.converged and reference.solution.converged):
        raise NotConverged("event_audit requires both solves to have converged")
    lam_fin = finite.solution.lambda_hat
    lam_ref = reference.solution.lambda_hat
    s_arg = oracle.norm_K(lam_ref)
    s_norm = float(link_s(pen, s_arg))
    if s_norm <= 0:
        raise ValueError("reference dual solution is zero; nothing to audit")

    grid, idx_fin, idx_ref = _lambda_grid(
        lam_fin, lam_ref, oracle, segment_points, perturbations, seed
    )
    G = grid.shape[1]

    # E2: whitened finite-dual gradient at the reference optimum.
    g_ref = dual_gradient(finite.Phi, inst.y, pen, lam_ref)
    eps2 = float(np.linalg.norm(oracle.inv_sqrt @ g_ref)) / s_norm

    # E3: smallest whitened curvature of the finite dual over the grid.
    Psi = whiten(oracle, finite.Phi)
    N = finite.Phi.shape[1]
    U = finite.Phi.T @ grid  # N x G: <phi_j, lambda> at every grid point
    min_curv = min(float(np.linalg.eigvalsh(_curvature(Psi, pen, U[:, g]))[0]) for g in range(G))
    beta = min_curv * s_arg / s_norm

    # E1 / continuity / lhs share one covariate batch.
    X_mc = sample_covariates(ds, M, seed)
    S_fin = np.asarray(link_s(pen, U)) / N  # N x G
    S_ref = np.asarray(link_s(pen, reference.Phi.T @ grid)) / reference.Phi.shape[1]
    sq_diff = np.zeros(G)
    sq_ref_dev = np.zeros(G)
    sq_lhs = 0.0
    rows = chunk_rows(reference.W.shape[0])
    for lo in range(0, M, rows):
        Xb = X_mc[lo : lo + rows]
        pf = mean_features(spec, Xb, finite.W) @ S_fin
        pr = mean_features(spec, Xb, reference.W) @ S_ref
        sq_diff += np.sum((pf - pr) ** 2, axis=0)
        sq_ref_dev += np.sum((pr - pr[:, idx_ref : idx_ref + 1]) ** 2, axis=0)
        sq_lhs += float(np.sum((pf[:, idx_fin] - pr[:, idx_ref]) ** 2))
    eps1 = float(np.max(np.sqrt(sq_diff / M))) / s_norm
    lhs = math.sqrt(sq_lhs / M)

    K_cont = 0.0
    for g in range(G):
        if g == idx_ref:
            continue
        dist_lam = oracle.norm_K(grid[:, g] - lam_ref) / s_arg
        if dist_lam <= 0:
            continue
        dev = math.sqrt(sq_ref_dev[g] / M) / s_norm
        K_cont = max(K_cont, dev / dist_lam)

    denom = beta if beta > 0 else math.nan
    bound_rhs = (eps1 + 2.0 * K_cont * eps2 / denom) * s_norm if beta > 0 else math.inf
    holds = bool(lhs <= bound_rhs * (1.0 + 1e-10) + 1e-300)
    return EventBudget(
        eps1=eps1,
        eps2=eps2,
        beta=beta,
        K_cont=K_cont,
        s_norm=s_norm,
        bound_rhs=bound_rhs,
        lhs=lhs,
        holds=holds,
        eps2_over_beta=eps2 / beta if beta > 0 else math.inf,
    )


def as_json_dict(report) -> dict:
    """Dataclass report -> JSON-serializable dict (ndarrays become lists)."""
    def _convert(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        if isinstance(v, dict):
            return {str(k): _convert(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [_convert(x) for x in v]
        return v

    return {k: _convert(v) for k, v in asdict(report).items()}
