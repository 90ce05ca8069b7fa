"""Hermite pipeline, assumption proxies, event budget."""

import math

import numpy as np
import pytest

import mci.audit as audit
from mci.audit import (
    SolvedModel,
    _lambda_grid,
    assumption_report,
    event_audit,
    hermite_coefficients,
    hermite_condition_check,
    smallball_estimate,
    subgaussian_proxy,
)
from mci.errors import NotConverged, NumericalFailure
from mci.features import (
    DataSpec,
    FeatureSpec,
    RidgeTarget,
    featurize,
    kernel_matrix,
    sample_data,
    sample_weights,
    whiten,
)
from mci.penalty import PenaltySpec
from mci.seeding import rng_from
from mci.solver import STATUS_MAX_ITERS, SolverOptions, solve_dual


class TestHermiteCoefficients:
    def test_identity_is_first_basis_vector(self):
        prof = hermite_coefficients("identity", 10, 60)
        assert prof.mu[1] == pytest.approx(1.0, abs=1e-10)
        others = np.delete(prof.mu, 1)
        assert np.max(np.abs(others)) <= 1e-10

    def test_relu_low_order_values(self):
        # mu_0 = E[relu(G)] = 1/sqrt(2 pi); mu_1 = E[relu(G) G] = 1/2.
        prof = hermite_coefficients("relu", 12, 64)
        assert prof.mu[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-8)
        assert prof.mu[1] == pytest.approx(0.5, abs=1e-8)
        assert prof.sigma_sq == pytest.approx(0.5, abs=1e-8)

    def test_relu_odd_coefficients_vanish(self):
        prof = hermite_coefficients("relu", 9, 60)
        assert np.max(np.abs(prof.mu[3::2])) <= 1e-9

    def test_tails_monotone_nonnegative(self):
        prof = hermite_coefficients("relu", 16, 72)
        assert np.all(np.diff(prof.tails) <= 1e-15)
        assert np.all(prof.tails >= 0) and prof.tail_beyond >= 0

    def test_parseval_gap(self):
        prof = hermite_coefficients("relu", 16, 72)
        facts = np.array([math.factorial(k) for k in range(prof.m_max + 1)])
        partial = np.sum(prof.mu**2 / facts)
        assert partial <= prof.sigma_sq + 1e-12
        assert prof.sigma_sq - partial == pytest.approx(prof.tail_beyond, abs=1e-8)

    def test_under_resolved_raises(self):
        # |x| through the plain Gauss-Hermite path converges too slowly.
        with pytest.raises(NumericalFailure, match="when doubling the order"):
            hermite_coefficients(lambda x: np.abs(x), 4, 60)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            hermite_coefficients("relu", 10, 30)

    @pytest.mark.parametrize("activation", ["identity", np.tanh])
    def test_stability_check_reads_normalised_coefficients(self, activation):
        # At the CLI's order 80 and m_max 20 the raw mu_k move by 4.1e-8
        # (identity) and 0.40 (tanh) between the rules: their scale is
        # sqrt(k!), 1.6e9 at k = 20.  mu_k / sqrt(k!) move by 1.6e-15 and 1.2e-9.
        mu_lo, _ = audit._mu_at_order(activation, 20, 80, refine=1)
        mu_hi, _ = audit._mu_at_order(activation, 20, 80, refine=2)
        assert np.max(np.abs(mu_hi - mu_lo)) > audit._QUAD_STABLE_TOL
        prof = hermite_coefficients(activation, 20, 80)
        np.testing.assert_array_equal(prof.mu, mu_hi)

    @pytest.mark.parametrize("activation", ["relu", "truncated_relu"])
    def test_refined_rule_has_more_nodes_per_panel(self, activation):
        # Both orders once gave 32 nodes per panel, so the check compared a
        # rule with itself; the refined rule doubles them, and the two rules'
        # coefficients differ by rounding only.
        x_lo, _ = audit._gauss_nodes(activation, 80, 20, refine=1)
        x_hi, _ = audit._gauss_nodes(activation, 80, 20, refine=2)
        assert x_hi.size == 2 * x_lo.size
        mu_lo, _ = audit._mu_at_order(activation, 20, 80, refine=1)
        mu_hi, _ = audit._mu_at_order(activation, 20, 80, refine=2)
        assert not np.array_equal(mu_lo, mu_hi)
        scale = np.sqrt([float(math.factorial(k)) for k in range(21)])
        assert np.max(np.abs(mu_hi - mu_lo) / scale) <= 1e-14

    def test_overflowing_rule_fails_the_check(self):
        # Gauss-Hermite at order 400 overflows to nan weights; a nan drift
        # must not pass as stable.
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="when doubling"):
            hermite_coefficients("identity", 60, 200)


HE3 = lambda x: (x**3 - 3.0 * x) / np.sqrt(6.0)  # noqa: E731


class TestHermiteCondition:
    def test_identity_trivially_passes(self):
        prof = hermite_coefficients("identity", 8, 60)
        rep = hermite_condition_check(prof, ell=1, C0=1.0)
        assert rep.found and rep.m == 2 and rep.eta_star == 0.0

    @pytest.mark.parametrize("m_max", [8, 20])
    def test_identity_passes_at_the_cli_order(self, m_max):
        # At order 80 the identity's kappa_{>1} came out at 1.1e-15 of
        # rounding, and the search reported no m; a rounding tail is zero.
        prof = hermite_coefficients("identity", m_max, 80)
        assert prof.tails[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_array_equal(prof.tails[1:], 0.0)
        assert prof.tail_beyond == 0.0
        rep = hermite_condition_check(prof, ell=1, C0=1.0)
        assert rep.found and rep.m == 2 and rep.eta_star == 0.0

    def test_relu_tail_decay_too_slow(self):
        # kappa_{>m}/kappa_{>1} decays polynomially (~m^{-3/2}) while the
        # threshold (C0 m)^{-(2m+1)} decays superexponentially, so no m
        # below m_max qualifies at C0 = 1.
        prof = hermite_coefficients("relu", 16, 72)
        rep = hermite_condition_check(prof, ell=1, C0=1.0)
        assert not rep.found and rep.m is None

    def test_single_high_coefficient_none_below_its_degree(self):
        # Tail is flat at kappa_{>1} for m < 3, so a profile truncated at
        # m_max = 3 reports none.
        prof = hermite_coefficients(HE3, 3, 40)
        rep = hermite_condition_check(prof, ell=1, C0=1.0)
        assert not rep.found

    def test_single_high_coefficient_found_at_its_degree(self):
        prof = hermite_coefficients(HE3, 6, 60)
        rep = hermite_condition_check(prof, ell=1, C0=1.0)
        assert rep.found and rep.m == 3 and rep.eta_star == pytest.approx(0.0, abs=1e-10)

    def test_insufficient_tail(self):
        prof = hermite_coefficients("relu", 3, 40)
        with pytest.raises(ValueError, match="need beyond ell = 2"):
            hermite_condition_check(prof, ell=2, C0=1.0)


class TestSmallBall:
    def test_gaussian_reference_level(self):
        # Whitened latent features are exactly standard normal, so the
        # small-ball probability at eta = 0.1 is about 0.0798.
        n, d, M = 15, 5, 100_000
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((n, d))
        oracle = kernel_matrix(spec, X, method="latent_linear")
        W = rng.standard_normal((M, d)) / np.sqrt(d)
        Psi = whiten(oracle, featurize(spec, X, W, seed=4)).T
        assert smallball_estimate(Psi, 0.1, 128, seed=5) <= 0.12

    def test_zero_radius(self):
        rng = np.random.default_rng(0)
        assert smallball_estimate(rng.standard_normal((2_000, 4)), 0.0, 128, seed=0) == 0.0

    def test_degenerate_features(self):
        assert smallball_estimate(np.zeros((2_000, 4)), 0.5, 128, seed=0) == 1.0

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(1)
        Psi = rng.standard_normal((20_000, 6))
        probs = [smallball_estimate(Psi, eta, 128, seed=2) for eta in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_too_few(self):
        with pytest.raises(ValueError, match="1e3 whitened feature samples"):
            smallball_estimate(np.zeros((10, 3)), 0.1, 128, seed=0)
        with pytest.raises(ValueError, match="1e2 probe directions"):
            smallball_estimate(np.zeros((2_000, 3)), 0.1, 10, seed=0)


class TestSubgaussianProxy:
    def test_gaussian_samples(self):
        g = np.random.default_rng(0).standard_normal(1_000_000)
        assert 1.0 <= subgaussian_proxy(g) <= 1.3

    def test_rademacher_samples(self):
        r = np.random.default_rng(1).choice([-1.0, 1.0], size=1_000_000)
        assert 1.0 <= subgaussian_proxy(r) <= 1.2

    def test_constant_clips_to_one(self):
        assert subgaussian_proxy(np.zeros(5_000)) == 1.0

    def test_scales_with_sigma(self):
        g = 3.0 * np.random.default_rng(2).standard_normal(500_000)
        assert subgaussian_proxy(g) == pytest.approx(3.0, rel=0.05)

    def test_too_few(self):
        with pytest.raises(ValueError, match="need at least 1e3 samples"):
            subgaussian_proxy(np.zeros(10))


def _solved(spec, inst, pen, N, seed, opts):
    W = sample_weights(spec, inst.d, N, seed)
    Phi = featurize(spec, inst.X, W, seed=seed)
    sol = solve_dual(Phi, inst.y, pen, opts)
    return SolvedModel(W, Phi, sol)


class TestEventAudit:
    def setup_method(self):
        self.spec = FeatureSpec(activation="relu")
        self.ds = DataSpec(d=5, target=RidgeTarget.random(5, 0))
        self.inst = sample_data(self.ds, 20, seed=3)
        self.pen = PenaltySpec.pnorm(2.0)
        self.opts = SolverOptions(tol_grad_rel=1e-10)
        self.oracle = kernel_matrix(self.spec, self.inst.X, method="arc_cosine")

    def test_identical_models(self):
        m = _solved(self.spec, self.inst, self.pen, 1024, 9, self.opts)
        budget = event_audit(
            self.inst, self.pen, self.spec, m, m, self.oracle, self.ds, 2_000, seed=1
        )
        assert budget.eps1 == 0.0 and budget.lhs == 0.0 and budget.holds

    def test_p2_budget_holds(self):
        fin = _solved(self.spec, self.inst, self.pen, 256, 9, self.opts)
        ref = _solved(self.spec, self.inst, self.pen, 2**14, 1009, self.opts)
        budget = event_audit(
            self.inst, self.pen, self.spec, fin, ref, self.oracle, self.ds, 4_000, seed=2
        )
        assert budget.holds
        assert budget.beta > 0 and budget.s_norm > 0

    def test_p2_beta_is_whitened_spectrum_floor(self):
        # s' = 1 makes the curvature constant: beta must equal the smallest
        # eigenvalue of the whitened empirical second moment of the features.
        fin = _solved(self.spec, self.inst, self.pen, 256, 9, self.opts)
        ref = _solved(self.spec, self.inst, self.pen, 4096, 1009, self.opts)
        budget = event_audit(
            self.inst, self.pen, self.spec, fin, ref, self.oracle, self.ds, 2_000, seed=2
        )
        Psi = self.oracle.inv_sqrt @ fin.Phi
        lam_min = np.linalg.eigvalsh(Psi @ Psi.T / fin.Phi.shape[1])[0]
        assert budget.beta == pytest.approx(lam_min, rel=1e-8)

    def test_grid_needs_both_endpoints(self):
        lam = np.ones(self.inst.n)
        with pytest.raises(ValueError, match="two segment endpoints"):
            _lambda_grid(lam, lam, self.oracle, segment_points=1, perturbations=0, seed=0)

    def test_requires_convergence(self):
        import dataclasses

        fin = _solved(self.spec, self.inst, self.pen, 256, 9, self.opts)
        bad = SolvedModel(
            fin.W, fin.Phi, dataclasses.replace(fin.solution, status=STATUS_MAX_ITERS)
        )
        with pytest.raises(NotConverged):
            event_audit(self.inst, self.pen, self.spec, bad, fin, self.oracle,
                        self.ds, 2_000, seed=3)


class TestAssumptionReport:
    def test_latent_report(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        ds = DataSpec(d=5, target=RidgeTarget.random(5, 1, activation="identity"))
        inst = sample_data(ds, 15, seed=4)
        oracle = kernel_matrix(spec, inst.X, method="latent_linear")
        rep = assumption_report(spec, inst, oracle, n_samples=20_000, eta=0.1, seed=5)
        assert rep.tau_hat >= 1.0
        assert rep.smallball_prob <= 0.12
        assert 0.0 <= rep.eta_hat <= 1.0
        assert rep.lipschitz_tail["scale"] is not None
        assert all(np.isfinite(v) for v in rep.feat3_prime_moments.values())

    def test_matches_per_probe_projections(self):
        # The report reads every probe as a row of one buffer; the slow path is
        # the M x n layout with the coordinate axes as products with the
        # identity and per-sample `pow` moments.  The noisy identity map takes
        # the separate noise-free branch of tau_scalar.
        cases = ((FeatureSpec(activation="relu"), "arc_cosine"),
                 (FeatureSpec(activation="identity", noise_gamma=1.0), "latent_linear"))
        for spec, method in cases:
            ds = DataSpec(d=5, target=RidgeTarget.random(5, 1, activation=spec.activation))
            inst = sample_data(ds, 15, seed=4)
            oracle = kernel_matrix(spec, inst.X, method=method)
            rep = assumption_report(spec, inst, oracle, n_samples=20_000, eta=0.1, seed=5)
            slow = _slow_assumption_report(spec, inst, oracle, n_samples=20_000, eta=0.1, seed=5)
            assert rep.smallball_prob == slow.smallball_prob
            assert rep.tau_hat == pytest.approx(slow.tau_hat, rel=1e-12)
            assert rep.eta_hat == pytest.approx(slow.eta_hat, rel=1e-12)
            assert rep.lipschitz_tail == pytest.approx(slow.lipschitz_tail, rel=1e-12)
            assert list(rep.feat3_prime_moments) == list(slow.feat3_prime_moments)
            for r, got in rep.feat3_prime_moments.items():
                assert got == pytest.approx(slow.feat3_prime_moments[r], rel=1e-12)

    def test_peak_memory(self):
        # The report holds the n x 20,000 features and one (n + 64) x 20,000
        # probe buffer at a time (58 MB at n = 150); the M x n layout it
        # replaced peaked at 156 MB.
        import tracemalloc

        spec = FeatureSpec(activation="relu")
        ds = DataSpec(d=30, target=RidgeTarget.random(30, 0))
        inst = sample_data(ds, 150, seed=0)
        oracle = kernel_matrix(spec, inst.X, method="arc_cosine")
        tracemalloc.start()
        try:
            assumption_report(spec, inst, oracle, n_samples=20_000, eta=0.1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80e6, f"peak {peak / 1e6:.1f} MB"


def _slow_smallball(Psi, eta, directions, seed):
    """smallball_estimate on M x n samples, every probe (the coordinate axes
    as rows of the identity) a product, 64 probes at a time."""
    M, n = Psi.shape
    V = np.vstack([np.eye(n), rng_from(seed, "directions").standard_normal((directions, n))])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    worst = 0.0
    for lo in range(0, V.shape[0], 64):
        probs = np.mean(np.abs(Psi @ V[lo : lo + 64].T) <= eta, axis=0)
        worst = max(worst, float(np.max(probs)))
    return worst


def _slow_proxy(samples, mean_removed=False):
    """subgaussian_proxy with a `pow` pass per moment."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if not mean_removed:
        x = x - np.mean(x)
    tau = 1.0
    for q, cq in ((2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)):
        tau = max(tau, float((np.mean(np.abs(x) ** q) / cq) ** (1.0 / q)))
    return tau


def _slow_assumption_report(spec, inst, oracle, n_samples, eta, directions=128, seed=0):
    """assumption_report in the M x n layout: noise-free features recomputed,
    one proxy call per row, and every moment a `pow` over all probes."""
    from mci.features import _draw_weights, mean_features

    rng = rng_from(seed, "weights", 77)
    W = _draw_weights(spec, inst.d, n_samples, rng)
    Phi = featurize(spec, inst.X, W, seed=int(rng.integers(2**32)))
    Psi = whiten(oracle, Phi).T
    Fbar = mean_features(spec, inst.X, W)
    tau_scalar = max(_slow_proxy(Fbar[i]) for i in range(inst.n))
    dirs = rng_from(seed, "directions", 1).standard_normal((min(directions, 64), inst.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = Psi @ dirs.T
    tau_dir = max(_slow_proxy(column) for column in proj.T)
    abs_proj = np.abs(Psi @ np.vstack([np.eye(inst.n), dirs]).T)
    L = np.linalg.norm(W, axis=1)
    with np.errstate(divide="ignore"):
        feat3 = {r: float(np.max(np.mean(abs_proj**r, axis=0))) for r in (-0.25, -0.5, -0.75)}
    return audit.AssumptionReport(
        tau_hat=max(1.0, tau_scalar, tau_dir),
        eta_hat=float(np.min(np.quantile(abs_proj, 0.25, axis=0))),
        smallball_prob=_slow_smallball(Psi, eta, directions, seed),
        lipschitz_tail={"scale": _slow_proxy(L), "max_observed": float(np.max(L)),
                        "mean": float(np.mean(L))},
        feat3_prime_moments=feat3,
    )


class TestProbeMajorFastPaths:
    @pytest.mark.parametrize("M", [20_000, 20_001, 1_000, 1_003])
    def test_row_quantile_matches_numpy(self, M):
        # One partition per row against np.quantile's two: exactly equal,
        # ties included.
        rng = np.random.default_rng(M)
        rows = np.abs(rng.standard_normal((9, M)))
        rows[:3] = np.round(rows[:3], 1)  # ties
        for q in (0.25, 0.5, 0.75, 0.9):
            want = np.quantile(rows, q, axis=1)
            got = audit._row_quantile(rows.copy(), q)
            np.testing.assert_array_equal(got, want)

    def test_row_quantile_takes_numpy_interpolation_branches(self):
        # numpy interpolates from the upper order statistic when the weight
        # is at least 1/2; on short uniform rows the two formulas differ in
        # about 9% of the rows.
        rows = np.random.default_rng(0).uniform(0.0, 1.0, (1_000, 5))
        for q in (0.3, 0.45, 0.7):
            np.testing.assert_array_equal(audit._row_quantile(rows.copy(), q),
                                          np.quantile(rows, q, axis=1))

    @pytest.mark.parametrize("layout", ["samples_major", "probe_major"])
    def test_smallball_matches_identity_products(self, layout):
        rng = np.random.default_rng(6)
        Psi = rng.standard_normal((5_000, 70)) * rng.uniform(0.05, 2.0, 70)
        if layout == "probe_major":
            Psi = np.ascontiguousarray(Psi.T).T  # rows of the transpose are contiguous
        for eta in (0.02, 0.1, 0.5):
            assert smallball_estimate(Psi, eta, 150, seed=3) == _slow_smallball(Psi, eta, 150, 3)

    @pytest.mark.parametrize("mean_removed", [False, True])
    def test_row_moments_match_pow_per_row(self, mean_removed):
        # 120 rows of 5,000 samples span three row blocks.
        rng = np.random.default_rng(7)
        rows = rng.standard_t(5, size=(120, 5_000)) * rng.uniform(0.1, 3.0, (120, 1))
        rows[:40] += 2.0  # a nonzero mean
        rows[3] = 0.0  # clips to 1
        got = audit._moment_scales(rows, mean_removed)
        want = [_slow_proxy(row, mean_removed) for row in rows]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[3] == 1.0
        assert subgaussian_proxy(rows[7], mean_removed) == got[7]

    def test_inverse_root_moments_match_pow(self):
        rng = np.random.default_rng(8)
        rows = np.abs(rng.standard_normal((120, 5_000)))
        got = audit._inverse_root_moments(rows)
        for r in (-0.25, -0.5, -0.75):
            assert got[r] == pytest.approx(np.max(np.mean(rows**r, axis=1)), rel=1e-12)
        rows[60, 17] = 0.0
        assert all(v == np.inf for v in audit._inverse_root_moments(rows).values())
