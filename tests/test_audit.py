"""Hermite pipeline, assumption proxies, event budget, rate shape."""

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
    theorem_rate_budget,
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


HE3 = lambda x: (x**3 - 3.0 * x) / np.sqrt(6.0)  # noqa: E731


class TestHermiteCondition:
    def test_identity_trivially_passes(self):
        prof = hermite_coefficients("identity", 8, 60)
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

    def test_matches_per_probe_projections(self, monkeypatch):
        # The report forms every projection in two products; the reference
        # forms them one probe at a time, the coordinate axes as products with
        # the identity.  Only the summation order differs.
        spec = FeatureSpec(activation="relu")
        ds = DataSpec(d=5, target=RidgeTarget.random(5, 1))
        inst = sample_data(ds, 15, seed=4)
        oracle = kernel_matrix(spec, inst.X, method="arc_cosine")
        samples, whitened = [], []
        proxy, smallball = audit.subgaussian_proxy, audit.smallball_estimate
        monkeypatch.setattr(audit, "subgaussian_proxy", lambda x: samples.append(x) or proxy(x))
        monkeypatch.setattr(audit, "smallball_estimate",
                            lambda Psi, *args: whitened.append(Psi) or smallball(Psi, *args))
        rep = assumption_report(spec, inst, oracle, n_samples=20_000, eta=0.1, seed=5)

        Psi = whitened[0]
        dirs = rng_from(5, "directions", 1).standard_normal((64, inst.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        directional = samples[inst.n : inst.n + 64]  # after the n mean-feature rows
        for got, v in zip(directional, dirs):
            np.testing.assert_allclose(got, Psi @ v, rtol=1e-12, atol=1e-12)
        probe = np.vstack([np.eye(inst.n), dirs])
        eta_hat = float(np.min(np.quantile(np.abs(Psi @ probe.T), 0.25, axis=0)))
        assert rep.eta_hat == pytest.approx(eta_hat, rel=1e-12)
        with np.errstate(divide="ignore"):
            for r, got in rep.feat3_prime_moments.items():
                want = float(np.max(np.mean(np.abs(Psi @ probe.T) ** r, axis=0)))
                assert got == pytest.approx(want, rel=1e-8)


class TestRateBudget:
    def test_p2_value(self):
        # sqrt(100 log(1e4) / 1e4) with unit constants.
        val = theorem_rate_budget(1.0, 1.0, PenaltySpec.pnorm(2.0), 100, 10_000)
        assert val == pytest.approx(math.sqrt(100 * math.log(10_000) / 10_000), rel=1e-12)

    def test_quadruple_width_halves(self):
        pen = PenaltySpec.pnorm(2.0)
        v1 = theorem_rate_budget(1.0, 1.0, pen, 100, 10_000)
        v4 = theorem_rate_budget(1.0, 1.0, pen, 100, 40_000)
        assert abs(v4 / v1 - 0.5) <= 0.1  # up to the log factor

    def test_diverges_as_p_drops(self):
        vals = [
            theorem_rate_budget(1.0, 0.5, PenaltySpec.pnorm(p), 100, 10_000)
            for p in (2.0, 1.5, 1.2, 1.05)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_l1_rejected(self):
        with pytest.raises(ValueError, match="finite growth exponents"):
            theorem_rate_budget(1.0, 1.0, PenaltySpec.pnorm(1.0), 100, 10_000)

    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            theorem_rate_budget(0.0, 1.0, PenaltySpec.pnorm(2.0), 100, 10_000)
