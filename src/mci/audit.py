"""Empirical audits of the assumptions behind dual concentration.

Four groups of checks:

* Hermite analysis of the activation: coefficients mu_k against probabilists'
  polynomials (E[He_k(G) He_j(G)] = k! delta_jk), spectral tails
  kappa_{>m} = sum_{k>m} mu_k^2 / k!, and the anti-concentration criterion
  kappa_{>m} <= kappa_{>ell} ((C0 m)^{-(2m+1)} ^ 1/4).
* Small-ball and sub-Gaussian proxies for the whitened feature vector.
* The event budget: measured statistics (eps1, eps2, beta, K) of predictor
  concentration, dual-gradient concentration, dual curvature, and
  infinite-width continuity, combined into the computable distance bound
  lhs <= (eps1 + 2 K eps2 / beta) s(||lambda_hat||_K).
* The theorem-shaped rate factor for (tau, eta, penalty, n, N).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

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
    mean_features,
    sample_covariates,
    whiten,
)
from .penalty import PenaltySpec, link_s, link_s_prime
from .seeding import rng_from
from .solver import Solution, dual_gradient

# Gaussian absolute moments E|G|^q for the moment-ratio proxy.
_GAUSS_ABS_MOMENTS = {2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}

_QUAD_STABLE_TOL = 1e-8

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


def _gauss_nodes(activation: Activation, quad_order: int, m_max: int):
    """Quadrature nodes/weights for integrals against the standard normal.

    Smooth activations use Gauss-Hermite directly.  Activations with kinks
    keep Hermite convergence from collapsing to a polynomial rate by breaking
    the line at the kinks and integrating each smooth piece with panelled
    Gauss-Legendre (Gaussian density folded into the weights).
    """
    kinks = _KINKS.get(activation, ()) if not callable(activation) else ()
    if not kinks:
        x, w = np.polynomial.hermite_e.hermegauss(quad_order)
        return x, w / np.sqrt(2.0 * np.pi)
    # Range where |x|^m_max exp(-x^2/2) is below ~1e-18.
    R = math.sqrt(2.0 * (45.0 + m_max * math.log(m_max + 2.0)))
    edges = np.unique(np.concatenate([[-R, R], np.asarray(kinks, dtype=np.float64)]))
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels.extend(np.linspace(lo, hi, int(np.ceil(hi - lo)) + 1))
    panels = np.unique(np.asarray(panels))
    # Per-panel order must track the polynomial degree being integrated.
    per_panel = max(24, m_max + 12, quad_order // max(1, len(panels) - 1))
    t, u = np.polynomial.legendre.leggauss(per_panel)
    xs, ws = [], []
    for lo, hi in zip(panels[:-1], panels[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        xs.append(mid + half * t)
        ws.append(half * u)
    x = np.concatenate(xs)
    w = np.concatenate(ws) * np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    return x, w


def _mu_at_order(activation: Activation, m_max: int, quad_order: int):
    x, w = _gauss_nodes(activation, quad_order, m_max)
    sig = apply_activation(activation, x)
    H = _hermite_values(x, m_max)
    mu = H @ (w * sig)
    sigma_sq = float(w @ sig**2)
    return mu, sigma_sq


def hermite_coefficients(activation: Activation, m_max: int, quad_order: int) -> HermiteProfile:
    """Hermite coefficients mu_k = E[sigma(G) He_k(G)] and tails.

    The profile is accepted only if doubling the quadrature order moves no
    coefficient by more than 1e-8; otherwise NumericalFailure is raised.
    Tails are computed as kappa_{>m} = E[sigma^2] - sum_{k<=m} mu_k^2 / k!,
    which makes the Parseval identity hold by construction.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if quad_order < 2 * m_max + 20:
        raise ValueError("quad_order must be at least 2 * m_max + 20")
    mu_lo, s2_lo = _mu_at_order(activation, m_max, quad_order)
    mu, sigma_sq = _mu_at_order(activation, m_max, 2 * quad_order)
    drift = max(np.max(np.abs(mu - mu_lo)), abs(sigma_sq - s2_lo))
    if drift > _QUAD_STABLE_TOL:
        raise NumericalFailure(
            f"coefficients moved by {drift:.2e} when doubling the order"
        )
    factorials = np.array([math.factorial(k) for k in range(m_max + 1)], dtype=np.float64)
    energy = mu**2 / factorials
    partial = np.cumsum(energy)
    tails = np.maximum(sigma_sq - partial[:-1], 0.0) if m_max >= 1 else np.empty(0)
    tail_beyond = max(sigma_sq - float(partial[-1]), 0.0)
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

    Directions are `directions` uniform draws on the sphere plus the n
    coordinate axes.
    """
    Psi = np.asarray(Psi_samples, dtype=np.float64)
    if Psi.ndim != 2 or Psi.shape[0] < 1_000:
        raise ValueError("need at least 1e3 whitened feature samples")
    if directions < 100:
        raise ValueError("need at least 1e2 probe directions")
    M, n = Psi.shape
    rng = rng_from(seed, "directions")
    worst = 0.0
    V = np.vstack([np.eye(n), rng.standard_normal((directions, n))])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    for lo in range(0, V.shape[0], 64):
        block = V[lo : lo + 64]
        probs = np.mean(np.abs(Psi @ block.T) <= eta, axis=0)
        worst = max(worst, float(np.max(probs)))
    return worst


def subgaussian_proxy(samples: np.ndarray, mean_removed: bool = False) -> float:
    """Moment-ratio sub-Gaussian scale: max_q (E|X|^q / E|G|^q)^{1/q}, q in {2,4,6,8}.

    A crude but pinned estimator (ratios of empirical absolute moments to the
    standard Gaussian ones), clipped below at 1.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1_000:
        raise ValueError("need at least 1e3 samples")
    if not mean_removed:
        x = x - np.mean(x)
    tau = 1.0
    for q, cq in _GAUSS_ABS_MOMENTS.items():
        tau = max(tau, float((np.mean(np.abs(x) ** q) / cq) ** (1.0 / q)))
    return tau


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
    """
    rng = rng_from(seed, "weights", 77)
    W = _draw_weights(spec, inst.d, n_samples, rng)
    Phi = featurize(spec, inst.X, W, seed=int(rng.integers(2**32)))  # n x M
    Psi = whiten(oracle, Phi).T  # M x n whitened samples

    Fbar = mean_features(spec, inst.X, W)  # n x M (no noise)
    tau_scalar = max(subgaussian_proxy(Fbar[i]) for i in range(inst.n))
    dirs = rng_from(seed, "directions", 1).standard_normal((min(directions, 64), inst.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = Psi @ dirs.T  # M x 64 projections onto the directions
    tau_dir = max(subgaussian_proxy(column) for column in proj.T)
    tau_hat = max(1.0, tau_scalar, tau_dir)

    smallball_prob = smallball_estimate(Psi, eta, directions, seed)
    # |<probe, psi>| for the n coordinate axes and the directions.
    abs_proj = np.abs(np.hstack([Psi, proj]))
    eta_hat = float(np.min(np.quantile(abs_proj, 0.25, axis=0)))

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

    with np.errstate(divide="ignore"):
        feat3_prime = {r: float(np.max(np.mean(abs_proj**r, axis=0))) for r in (-0.25, -0.5, -0.75)}
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
    min_curv = math.inf
    for g in range(G):
        sp = link_s_prime(pen, finite.Phi.T @ grid[:, g])
        B = (Psi * sp) @ Psi.T / N
        min_curv = min(min_curv, float(np.linalg.eigvalsh(0.5 * (B + B.T))[0]))
    beta = min_curv * s_arg / s_norm

    # E1 / continuity / lhs share one covariate batch.
    X_mc = sample_covariates(ds, M, seed)
    S_fin = np.asarray(link_s(pen, finite.Phi.T @ grid)) / N  # N x G
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


# ---------------------------------------------------------------------------
# Rate budget
# ---------------------------------------------------------------------------

def theorem_rate_budget(
    tau: float,
    eta: float,
    pen: PenaltySpec,
    n: int,
    N: int,
    delta: float = 0.1,
) -> float:
    """Shape of the convergence-rate bound, with untracked constants set to 1.

    Returns M(delta, tau, eta) * (sqrt(n log N / N) v (n log N)^{Q/2} / N)
    where M = tau^{Q+2+(2-q'+delta)_+} / eta^{q v 3} * (tau^{Q-2} v eta^{Q'-2}).
    """
    if not all(math.isfinite(e) for e in pen.exponents):
        raise ValueError("rate budget needs finite growth exponents (p > 1)")
    if tau <= 0 or eta <= 0:
        raise ValueError("tau and eta must be positive")
    Q1, Q2, q1, q2 = pen.exponents
    Q, Qp = max(Q1, Q2), min(Q1, Q2)
    q, qp = max(q1, q2), min(q1, q2)
    m_factor = (
        tau ** (Q + 2.0 + max(2.0 - qp + delta, 0.0))
        / eta ** max(q, 3.0)
        * max(tau ** (Q - 2.0), eta ** (Qp - 2.0))
    )
    nlog = n * math.log(N)
    rate = max(math.sqrt(nlog / N), nlog ** (Q / 2.0) / N)
    return m_factor * rate


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
