"""Dual solver: objective/derivatives, Newton ascent, primal recovery, l1 LP."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, linprog

import mci.solver as solver
from mci.features import DataSpec, FeatureSpec, RidgeTarget, featurize, sample_data, sample_weights
from mci.penalty import PenaltySpec, link_s, rho
from mci.solver import (
    L1_RESIDUAL_RTOL,
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_LINE_SEARCH_FAILED,
    STATUS_MAX_ITERS,
    Solution,
    SolverOptions,
    dual_gradient,
    dual_hessian,
    dual_objective,
    fit,
    solve_dual,
    solve_l1,
)

P2 = PenaltySpec.pnorm(2.0)
SPEC = FeatureSpec(activation="relu")


def _random_problem(n, N, d, seed, gamma=0.0):
    ds = DataSpec(d=d, target=RidgeTarget.random(d, seed))
    inst = sample_data(ds, n, seed)
    spec = FeatureSpec(activation="relu", noise_gamma=gamma)
    W = sample_weights(spec, d, N, seed)
    Phi = featurize(spec, inst.X, W, seed=seed)
    return Phi, inst.y


class TestDualObjective:
    def test_zero_lambda(self):
        Phi, y = _random_problem(6, 24, 4, seed=0)
        assert dual_objective(Phi, y, P2, np.zeros(6)) == 0.0

    def test_scalar_case(self):
        # n=1, N=1: F(1) = 1 - 1^2/2.
        assert dual_objective(np.array([[1.0]]), np.array([1.0]), P2, np.array([1.0])) == 0.5

    def test_hand_evaluated(self):
        # <lam, y> - (1/2)(0.08 + 0.72) = 0.8 - 0.4.
        Phi, y = np.array([[1.0, 3.0]]), np.array([2.0])
        assert dual_objective(Phi, y, P2, np.array([0.4])) == pytest.approx(0.4)

    def test_l1_rejected(self):
        with pytest.raises(ValueError, match="undefined for p=1"):
            dual_objective(np.eye(2), np.ones(2), PenaltySpec.pnorm(1.0), np.ones(2))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match=r"y has shape \(3,\), expected \(2,\)"):
            dual_objective(np.eye(2), np.ones(3), P2, np.ones(2))


class TestDualGradient:
    def test_at_zero_equals_y(self):
        Phi, y = _random_problem(5, 20, 4, seed=1)
        np.testing.assert_array_equal(dual_gradient(Phi, y, P2, np.zeros(5)), y)

    def test_stationary_point(self):
        Phi, y = np.array([[1.0, 3.0]]), np.array([2.0])
        g = dual_gradient(Phi, y, P2, np.array([0.4]))
        assert abs(g[0]) < 1e-14

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    def test_matches_finite_differences(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(6, 30, 4, seed=2)
        lam = np.linalg.solve(Phi @ Phi.T / 30 + 0.1 * np.eye(6), y)
        g = dual_gradient(Phi, y, pen, lam)
        h = 1e-6 * max(np.linalg.norm(lam), 1.0)
        fd = np.empty_like(lam)
        for i in range(lam.size):
            e = np.zeros_like(lam)
            e[i] = h
            fd[i] = (dual_objective(Phi, y, pen, lam + e) - dual_objective(Phi, y, pen, lam - e)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9 * np.linalg.norm(g))


class TestDualHessian:
    def test_p2_constant(self):
        Phi, y = _random_problem(5, 20, 4, seed=3)
        H = dual_hessian(Phi, y, P2, np.ones(5))
        np.testing.assert_allclose(H, -(Phi @ Phi.T) / 20, atol=1e-12)

    def test_q3_zero_at_origin(self):
        Phi, y = _random_problem(5, 20, 4, seed=4)
        H = dual_hessian(Phi, y, PenaltySpec.pnorm(1.5), np.zeros(5))
        np.testing.assert_array_equal(H, np.zeros((5, 5)))

    def test_negative_semidefinite(self):
        for p in (1.2, 1.5, 3.0):
            Phi, y = _random_problem(6, 40, 4, seed=5)
            lam = np.linalg.solve(Phi @ Phi.T / 40 + 0.1 * np.eye(6), y)
            H = dual_hessian(Phi, y, PenaltySpec.pnorm(p), lam)
            assert np.linalg.eigvalsh(H)[-1] <= 1e-10

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    def test_matches_gradient_differences(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(6, 30, 4, seed=6)
        lam = np.linalg.solve(Phi @ Phi.T / 30 + 0.1 * np.eye(6), y)
        H = dual_hessian(Phi, y, pen, lam)
        h = 1e-6 * max(np.linalg.norm(lam), 1.0)
        fd = np.empty((6, 6))
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd[:, i] = (dual_gradient(Phi, y, pen, lam + e) - dual_gradient(Phi, y, pen, lam - e)) / (2 * h)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-8 * np.linalg.norm(H))


class TestSolveDual:
    def test_scalar_instance(self):
        sol = solve_dual(np.array([[1.0]]), np.array([1.0]), P2)
        assert sol.converged
        assert sol.lambda_hat[0] == pytest.approx(1.0, abs=1e-8)

    def test_two_feature_instance(self):
        sol = solve_dual(np.array([[1.0, 3.0]]), np.array([2.0]), P2)
        assert sol.converged
        assert sol.lambda_hat[0] == pytest.approx(0.4, abs=1e-8)

    def test_p2_matches_linear_solve(self):
        opts = SolverOptions(tol_grad_rel=1e-12, tol_grad_abs=1e-14)
        Phi, y = _random_problem(20, 200, 6, seed=7)
        sol = solve_dual(Phi, y, P2, opts)
        direct = np.linalg.solve(Phi @ Phi.T / 200, y)
        assert np.linalg.norm(sol.lambda_hat - direct) <= 1e-8 * np.linalg.norm(direct)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_interpolates(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(30, 120, 8, seed=8)
        sol = solve_dual(Phi, y, pen)
        assert sol.converged
        a = np.asarray(link_s(pen, Phi.T @ sol.lambda_hat))
        residual = np.linalg.norm(Phi @ a / Phi.shape[1] - y)
        assert residual <= 1e-8 * (1 + np.linalg.norm(y))

    def test_objective_nondecreasing_along_trace(self):
        pen = PenaltySpec.pnorm(1.2)
        Phi, y = _random_problem(20, 100, 6, seed=9)
        sol = solve_dual(Phi, y, pen)
        objs = [t[1] for t in sol.trace]
        scale = 1 + abs(objs[-1])
        for prev, nxt in zip(objs, objs[1:]):
            assert nxt >= prev - 1e-12 * scale  # float dust from the Armijo slack

    @pytest.mark.parametrize("status", [STATUS_CONVERGED, STATUS_MAX_ITERS, STATUS_LINE_SEARCH_FAILED])
    def test_every_exit_ends_on_a_traced_iterate(self, monkeypatch, status):
        # Each exit leaves the trace at iters + 1 entries, the last of which
        # holds the residual, the true gradient norm at lambda_hat.
        opts = SolverOptions()
        if status == STATUS_MAX_ITERS:
            opts = SolverOptions(max_iters=2)
        if status == STATUS_LINE_SEARCH_FAILED:
            monkeypatch.setattr(solver, "_armijo",
                                lambda Phi, y, pen, lam, u, obj, g, d: (False, lam, obj, 0.0))
        pen = PenaltySpec.pnorm(1.2)
        Phi, y = _random_problem(30, 120, 8, seed=8)
        sol = solve_dual(Phi, y, pen, opts)
        assert sol.status == status
        assert sol.converged == (sol.status == STATUS_CONVERGED)
        assert len(sol.trace) == sol.iters + 1
        assert sol.trace[-1][2] == sol.residual
        gn = np.linalg.norm(dual_gradient(Phi, y, pen, sol.lambda_hat))
        assert sol.residual == pytest.approx(gn, rel=1e-12)

    def test_underdetermined_flagged(self):
        # N < n: interpolation generically infeasible, gradient cannot vanish.
        Phi, y = _random_problem(20, 5, 6, seed=10)
        sol = solve_dual(Phi, y, P2, SolverOptions(max_iters=50))
        assert not sol.converged

    def test_gradient_fallback_from_flat_start(self, monkeypatch):
        # Q = 3 makes the Hessian vanish at the origin; the first step must
        # fall back to gradient ascent and the solve still converges.
        monkeypatch.setattr(solver, "_initial_point", lambda Phi, y, pen, lam0: np.zeros(10))
        pen = PenaltySpec.pnorm(1.5)
        Phi, y = _random_problem(10, 60, 4, seed=18)
        sol = solve_dual(Phi, y, pen)
        assert sol.converged


class TestPrimalFromDual:
    """The primal that solve_dual recovers on its converged exit."""

    def test_representer_form(self):
        for p in (1.2, 1.5, 2.0):
            pen = PenaltySpec.pnorm(p)
            Phi, y = _random_problem(10, 60, 4, seed=12)
            sol = solve_dual(Phi, y, pen)
            assert sol.converged
            np.testing.assert_array_equal(sol.a, np.asarray(link_s(pen, Phi.T @ sol.lambda_hat)))
            assert sol.objective_primal == float(np.sum(rho(pen, sol.a)))
            assert sol.residual == sol.trace[-1][2]

    def test_values_from_hand_example(self):
        sol = solve_dual(np.array([[1.0, 3.0]]), np.array([2.0]), P2)
        np.testing.assert_allclose(sol.a, [0.4, 1.2], atol=1e-8)

    def test_zero_dual_gives_zero_primal(self):
        sol = solve_dual(np.ones((3, 5)), np.zeros(3), P2)
        assert sol.converged and sol.iters == 0
        np.testing.assert_array_equal(sol.lambda_hat, np.zeros(3))
        np.testing.assert_array_equal(sol.a, np.zeros(5))

    def test_strong_duality(self):
        # sum_j rho(a_j) = N * F(lambda_hat) at the optimum (conjugate-pair
        # equality applied coordinatewise).
        for p in (1.2, 1.5, 2.0, 3.0):
            pen = PenaltySpec.pnorm(p)
            Phi, y = _random_problem(12, 60, 5, seed=13)
            sol = solve_dual(Phi, y, pen)
            N = Phi.shape[1]
            gap = abs(sol.objective_primal - N * sol.objective_dual)
            assert gap <= 1e-6 * N * (1 + abs(sol.objective_dual))


def _l1_bruteforce(Phi, y, tol=1e-9):
    """Exhaustive minimum over supports of size <= n (vertex enumeration)."""
    n, N = Phi.shape
    A = Phi / N
    best = np.inf
    for k in range(1, n + 1):
        for support in itertools.combinations(range(N), k):
            sub = A[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if np.linalg.norm(sub @ coef - y) <= tol * max(1.0, np.linalg.norm(y)):
                best = min(best, np.sum(np.abs(coef)))
    return best


class TestSolveL1:
    def test_hand_example(self):
        prim = solve_l1(np.array([[1.0, 3.0]]), np.array([3.0]))
        assert prim.objective_primal == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(prim.a, [0.0, 2.0], atol=1e-10)

    def test_zero_target(self):
        prim = solve_l1(np.array([[1.0, 3.0]]), np.array([0.0]))
        assert prim.objective_primal == 0.0

    def test_matches_support_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            Phi = rng.standard_normal((2, 6))
            y = rng.standard_normal(2)
            prim = solve_l1(Phi, y)
            assert prim.objective_primal == pytest.approx(_l1_bruteforce(Phi, y), abs=1e-8)

    def test_support_size_caratheodory(self):
        rng = np.random.default_rng(15)
        Phi = rng.standard_normal((4, 40))
        y = rng.standard_normal(4)
        prim = solve_l1(Phi, y)
        assert np.sum(np.abs(prim.a) > 1e-10) <= 4

    def test_residual_tolerance(self):
        Phi, y = _random_problem(10, 50, 4, seed=16)
        prim = solve_l1(Phi, y)
        assert prim.residual <= 1e-8 * np.linalg.norm(y)

    def test_upper_bounds_near_l1_dual(self):
        # The l1 optimum is a lower bound for sum |a_j| of any interpolant,
        # in particular the p = 1.05 dual solution.
        pen = PenaltySpec.pnorm(1.05)
        Phi, y = _random_problem(5, 20, 4, seed=17)
        sol = solve_dual(Phi, y, pen)
        assert sol.converged
        a_dual = np.asarray(link_s(pen, Phi.T @ sol.lambda_hat))
        prim = solve_l1(Phi, y)
        assert prim.objective_primal <= np.sum(np.abs(a_dual)) + 1e-8

    @staticmethod
    def _wrap_linprog(monkeypatch, change=lambda res: None):
        """Every linprog result passes through change(res) before solve_l1 sees it.

        Returns the list of (args, kwargs) of the calls made.
        """
        linprog = solver.linprog
        calls = []

        def wrapped(*args, **kwargs):
            calls.append((args, kwargs))
            res = linprog(*args, **kwargs)
            change(res)
            return res

        monkeypatch.setattr(solver, "linprog", wrapped)
        return calls

    @staticmethod
    def _with_presolve(call):
        """The same linprog call with HiGHS presolve on: the path solve_l1 replaced."""
        args, kwargs = call
        res = linprog(*args, **{**kwargs, "options": {**kwargs["options"], "presolve": True}})
        N = res.x.size // 2
        return res.x[:N] - res.x[N:]

    def test_presolve_is_off(self, monkeypatch):
        calls = self._wrap_linprog(monkeypatch)
        solve_l1(*_random_problem(10, 50, 4, seed=16))
        assert len(calls) == 1 and calls[0][1]["options"]["presolve"] is False

    @pytest.mark.parametrize("n, N, d, seed", [(10, 50, 4, 16), (150, 512, 30, 0)])
    def test_same_vertex_as_with_presolve(self, monkeypatch, n, N, d, seed):
        # Presolve reduces nothing on [Phi, -Phi] / N, so the simplex takes
        # the same pivots to the same vertex.
        calls = self._wrap_linprog(monkeypatch)
        a = solve_l1(*_random_problem(n, N, d, seed)).a
        np.testing.assert_array_equal(a, self._with_presolve(calls[0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_rows_without_presolve(self, monkeypatch, seed):
        # Phi of rank 5 < n = 12: presolve would drop the 7 dependent rows;
        # without it the simplex keeps them and reaches the same optimum.
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((12, 5)) @ rng.standard_normal((5, 64))
        y = Phi @ rng.standard_normal(64) / 64
        calls = self._wrap_linprog(monkeypatch)
        prim = solve_l1(Phi, y)
        assert prim.converged and np.count_nonzero(prim.a) <= 5
        on = np.sum(np.abs(self._with_presolve(calls[0])))
        assert prim.objective_primal == pytest.approx(on, rel=1e-12)

    def test_highs_accepts_every_option(self):
        # scipy passes an unknown HiGHS option to the solver with only a
        # warning, so a misspelt option name would otherwise go unnoticed.
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizeWarning)
            solve_l1(*_random_problem(10, 50, 4, seed=16))

    def test_polish_restores_a_perturbed_vertex(self, monkeypatch):
        # A vertex off by 1e-6 relative (zeros and signs kept) misses the
        # residual tolerance; re-solving on its support recovers the optimum.
        Phi, y = _random_problem(10, 50, 4, seed=16)
        exact = solve_l1(Phi, y)
        rng = np.random.default_rng(0)

        def perturb(res):
            res.x = res.x * (1 + 1e-6 * rng.choice([-1.0, 1.0], res.x.shape))

        self._wrap_linprog(monkeypatch, perturb)
        prim = solve_l1(Phi, y)
        assert prim.residual <= L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)
        np.testing.assert_allclose(prim.a, exact.a, rtol=1e-9, atol=1e-12 * np.abs(exact.a).max())
        assert prim.objective_primal == pytest.approx(exact.objective_primal, rel=1e-12)

    def test_sign_flip_is_not_polished(self, monkeypatch):
        # Swapping a+ and a- of one support coordinate flips its sign; the
        # re-solve would flip it back, so the vertex is rejected instead.
        Phi, y = _random_problem(10, 50, 4, seed=16)
        N = Phi.shape[1]

        flipped = []

        def flip(res):
            j = int(np.flatnonzero(res.x[:N] - res.x[N:])[0])
            res.x[j], res.x[N + j] = res.x[N + j], res.x[j]
            flipped.append(res.x[:N] - res.x[N:])

        self._wrap_linprog(monkeypatch, flip)
        prim = solve_l1(Phi, y)
        vertex_residual = np.linalg.norm(Phi @ flipped[0] / N - y)
        assert vertex_residual > L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)
        assert prim.status == STATUS_INFEASIBLE and prim.iters == 0 and prim.a is None
        assert prim.residual == vertex_residual and np.isnan(prim.objective_primal)

    def test_failed_program_is_infeasible(self, monkeypatch):
        # A linprog call without an optimum leaves no residual to report.
        def fail(res):
            res.success = False

        self._wrap_linprog(monkeypatch, fail)
        prim = solve_l1(*_random_problem(10, 50, 4, seed=16))
        assert prim.status == STATUS_INFEASIBLE and prim.iters == 0 and prim.a is None
        assert np.isnan(prim.residual) and np.isnan(prim.objective_primal)

    def test_vertex_within_tolerance_is_kept(self, monkeypatch):
        # A vertex that meets the tolerance is returned bitwise, unpolished.
        seen = []
        self._wrap_linprog(monkeypatch, lambda res: seen.append(res.x.copy()))

        def fail(*args, **kwargs):
            raise AssertionError("vertex polished although it met the tolerance")

        monkeypatch.setattr(solver.np.linalg, "pinv", fail)
        Phi, y = _random_problem(10, 50, 4, seed=16)
        N = Phi.shape[1]
        np.testing.assert_array_equal(solve_l1(Phi, y).a, seen[0][:N] - seen[0][N:])


def _range_distance(Phi, y):
    """dist(y, range Phi) from an orthonormal basis of range(Phi) (N < n)."""
    Q, _ = np.linalg.qr(Phi)
    return float(np.linalg.norm(y - Q @ (Q.T @ y)))


def _feasible_underdetermined(n, N, seed):
    """N < n with y = Phi a0 / N, so y lies in range(Phi)."""
    rng = np.random.default_rng(seed)
    Phi, _ = _random_problem(n, N, 4, seed=seed)
    return Phi, Phi @ rng.standard_normal(N) / N


class TestInfeasibilityCertificate:
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_gradient_never_below_range_distance(self, p):
        # The bound that makes the early exit exact: (1/N) Phi s(Phi^T lam)
        # lies in range(Phi), so ||grad F(lam)|| >= dist(y, range Phi).
        pen = PenaltySpec.pnorm(p)
        rng = np.random.default_rng(20)
        for n, N in ((12, 5), (20, 16), (30, 2)):
            Phi, y = _random_problem(n, N, 4, seed=n + N)
            dist = _range_distance(Phi, y)
            assert dist > 0
            for scale in (1e-3, 1.0, 1e3):
                lam = scale * rng.standard_normal(n)
                gn = np.linalg.norm(dual_gradient(Phi, y, pen, lam))
                assert gn >= dist * (1 - 1e-10)

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_infeasible_solution_carries_farkas_direction(self, p):
        Phi, y = _random_problem(20, 5, 6, seed=10)
        sol = solve_dual(Phi, y, PenaltySpec.pnorm(p))
        assert sol.status == STATUS_INFEASIBLE and sol.iters == 0 and not sol.converged
        v = sol.lambda_hat
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.linalg.norm(Phi.T @ v) <= 1e-10 * np.linalg.norm(Phi)
        assert v @ y == pytest.approx(_range_distance(Phi, y), rel=1e-10)
        assert v @ y > 0
        assert sol.objective_dual == v @ y
        assert sol.trace == [(0, sol.objective_dual, sol.residual, 0.0)]

    def test_certificate_runs_before_any_newton_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("Newton work on a certified infeasible problem")

        monkeypatch.setattr(solver, "_initial_point", fail)
        monkeypatch.setattr(solver, "_armijo", fail)
        Phi, y = _random_problem(20, 5, 6, seed=10)
        assert solve_dual(Phi, y, P2).status == STATUS_INFEASIBLE

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_feasible_underdetermined_dual_converges(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _feasible_underdetermined(20, 8, seed=21)
        sol = solve_dual(Phi, y, pen)
        assert sol.converged and sol.status == STATUS_CONVERGED
        a = np.asarray(link_s(pen, Phi.T @ sol.lambda_hat))
        assert np.linalg.norm(Phi @ a / 8 - y) <= 1e-8 * (1 + np.linalg.norm(y))

    def test_feasible_underdetermined_l1_solves(self):
        Phi, y = _feasible_underdetermined(20, 8, seed=22)
        prim = solve_l1(Phi, y)
        assert prim.residual <= L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)

    def test_l1_infeasible_without_linprog(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("linprog called on a certified infeasible problem")

        monkeypatch.setattr(solver, "linprog", fail)
        Phi, y = _random_problem(20, 5, 6, seed=10)
        prim = solve_l1(Phi, y)
        assert prim.status == STATUS_INFEASIBLE and prim.iters == 0 and prim.a is None
        assert prim.residual == pytest.approx(_range_distance(Phi, y), rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_infeasible_residual_is_the_range_distance(self, p):
        # Both paths report the distance that failed the tolerance.
        Phi, y = _random_problem(20, 5, 6, seed=10)
        res = fit(Phi, y, PenaltySpec.pnorm(p))
        assert res.status == STATUS_INFEASIBLE
        assert res.residual == pytest.approx(_range_distance(Phi, y), rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_rank_deficient_wide_row_is_infeasible(self, p):
        # N = 64 >= n = 12, but identity features of d = 5 covariates have
        # rank 5 and a relu target lies outside their range: certified at
        # once instead of running the whole Newton budget.
        ds = DataSpec(d=5, target=RidgeTarget.random(5, 0))
        inst = sample_data(ds, 12, 0)
        spec = FeatureSpec(activation="identity")
        Phi = featurize(spec, inst.X, sample_weights(spec, 5, 64, 0), seed=0)
        res = fit(Phi, inst.y, PenaltySpec.pnorm(p))
        assert res.status == STATUS_INFEASIBLE and res.iters == 0

    @pytest.mark.parametrize("factor, infeasible", [(0.5, True), (2.0, False)])
    def test_null_threshold_decides_the_status(self, factor, infeasible):
        # G = Phi Phi^T / N has eigenvalues 1 and one mu = factor times the
        # null threshold GRAM_NULL_RTOL * n * lambda_max; y is mu's
        # eigenvector.  Below the threshold y counts as outside range(Phi);
        # above it the row goes to Newton (ill-conditioned, so it need not
        # converge in 5 iterations).
        n, N = 40, 80
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((N, n)))
        mu = np.ones(n)
        mu[-1] = factor * solver.GRAM_NULL_RTOL * n
        Phi = U @ (np.sqrt(N * mu)[:, None] * V.T)
        sol = solve_dual(Phi, U[:, -1], P2, SolverOptions(max_iters=5))
        assert (sol.status == STATUS_INFEASIBLE) == infeasible
        assert (sol.iters == 0) == infeasible

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("N", [8, 40])
    def test_one_gram_eigendecomposition_per_fit(self, monkeypatch, p, N):
        # The range test and the Newton start share one eigh, on either side
        # of n = 20, for certified-infeasible and feasible rows alike.
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(solver.np.linalg, "eigh", counted)
        Phi, y = _random_problem(20, N, 6, seed=10)
        res = fit(Phi, y, PenaltySpec.pnorm(p))
        assert res.status == (STATUS_INFEASIBLE if N < 20 else STATUS_CONVERGED)
        assert calls == [(20, 20)]


class TestInitialPoint:
    def test_p2_start_is_the_quadratic_optimum(self):
        # The headline sweep's seed-0 instance at N = 256: the scale is exactly
        # <lam0, y> / <lam0, G lam0>, the optimum of the quadratic dual along
        # lam0, so the start already meets the tolerance.
        from mci.experiments import ExperimentConfig

        cfg = ExperimentConfig()
        spec, ds = cfg.feature_spec(), cfg.data_spec()
        inst = sample_data(ds, cfg.n, 0)
        W = sample_weights(spec, cfg.d, cfg.N_list[-1], 0)[:256]
        Phi = featurize(spec, inst.X, W, seed=0)
        sol = solve_dual(Phi, inst.y, P2)
        assert sol.converged and sol.iters == 0

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0])
    def test_scale_maximises_the_ray(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(30, 120, 8, seed=8)
        lam = solver._initial_point(Phi, y, pen, solver._range_split(Phi, y)[0])
        f = dual_objective(Phi, y, pen, lam)
        for factor in (1 - 1e-3, 1 + 1e-3):
            assert f >= dual_objective(Phi, y, pen, factor * lam)


# (p, N, solver options, status) on _random_problem(20, N, 6, seed=10).
RECORD_CASES = {
    "converged p=1": (1.0, 50, None, STATUS_CONVERGED),
    "converged p>1": (1.5, 50, None, STATUS_CONVERGED),
    "infeasible p=1": (1.0, 5, None, STATUS_INFEASIBLE),
    "infeasible p>1": (1.5, 5, None, STATUS_INFEASIBLE),
    "max_iters": (1.5, 50, SolverOptions(max_iters=1), STATUS_MAX_ITERS),
}


class TestFit:
    @pytest.mark.parametrize("case", sorted(RECORD_CASES))
    def test_one_record_for_every_path_and_status(self, case):
        # a is set iff the solve converged, the dual fields iff p > 1, and
        # fit returns the record of the path behind it unchanged.
        p, N, opts, status = RECORD_CASES[case]
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(20, N, 6, seed=10)
        res = fit(Phi, y, pen, opts)
        assert res.status == status and res.converged == (status == STATUS_CONVERGED)
        assert (res.a is None) == (not res.converged)
        assert (res.lambda_hat is None) == (p == 1.0)
        if p == 1.0:
            assert res.objective_dual is None and res.trace == []
        path = solve_l1(Phi, y) if p == 1.0 else solve_dual(Phi, y, pen, opts)
        for f in dataclasses.fields(Solution):
            np.testing.assert_array_equal(getattr(res, f.name), getattr(path, f.name), f.name)

    def test_l1_matches_solve_l1(self):
        Phi, y = _random_problem(10, 50, 4, seed=16)
        res = fit(Phi, y, PenaltySpec.pnorm(1.0))
        assert res.status == STATUS_CONVERGED and res.iters == 0 and res.lambda_hat is None
        np.testing.assert_array_equal(res.a, solve_l1(Phi, y).a)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_dual_matches_primal_recovery(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(10, 60, 4, seed=12)
        sol = solve_dual(Phi, y, pen)
        res = fit(Phi, y, pen)
        assert res.status == STATUS_CONVERGED and res.iters == sol.iters
        np.testing.assert_array_equal(res.a, np.asarray(link_s(pen, Phi.T @ sol.lambda_hat)))
        np.testing.assert_array_equal(res.lambda_hat, sol.lambda_hat)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_infeasible_is_a_status(self, p):
        Phi, y = _random_problem(20, 5, 6, seed=10)
        res = fit(Phi, y, PenaltySpec.pnorm(p))
        assert res.status == STATUS_INFEASIBLE and res.iters == 0
        assert res.a is None and np.isnan(res.objective_primal)

    def test_max_iters_passes_through(self):
        Phi, y = _random_problem(30, 120, 8, seed=8)
        res = fit(Phi, y, PenaltySpec.pnorm(1.2), SolverOptions(max_iters=1))
        assert res.status == STATUS_MAX_ITERS and res.iters == 1
        assert res.a is None and res.residual == res.trace[-1][2] > 0

    @pytest.mark.parametrize("seed, N", itertools.product([0, 1, 2], [64, 256, 512]))
    def test_custom_penalty_matches_its_pnorm(self, seed, N):
        # The p = 1.5 formulas (Q = 3) supplied as handles solve bitwise like
        # pnorm(1.5); N = 64 < n = 150 is certified infeasible by both.
        custom = PenaltySpec.custom(
            rho=lambda x: np.abs(x) ** 1.5 / 1.5,
            conjugate=lambda x: np.abs(x) ** 3.0 / 3.0,
            link=lambda x: np.sign(x) * np.abs(x) ** 2.0,
            link_prime=lambda x: 2.0 * np.abs(x) ** 1.0,
            exponents=(3.0, 3.0, 3.0, 3.0),
        )
        Phi, y = _random_problem(150, N, 30, seed)
        got, want = fit(Phi, y, custom), fit(Phi, y, PenaltySpec.pnorm(1.5))
        assert (got.status, got.iters) == (want.status, want.iters)
        assert got.status == (STATUS_INFEASIBLE if N < 150 else STATUS_CONVERGED)
        np.testing.assert_array_equal(got.a, want.a)
        np.testing.assert_array_equal(got.objective_primal, want.objective_primal)


class TestNewtonDirection:
    @staticmethod
    def _newton_systems(monkeypatch, p):
        """Every (H, g) the Newton loop solves on one instance."""
        systems = []
        direction = solver._newton_direction

        def record(H, g):
            systems.append((H, g))
            return direction(H, g)

        monkeypatch.setattr(solver, "_newton_direction", record)
        Phi, y = _random_problem(30, 120, 8, seed=8)
        assert solve_dual(Phi, y, PenaltySpec.pnorm(p)).converged
        return systems

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0])
    def test_matches_scipy_cholesky_solve(self, monkeypatch, p):
        # The numpy Cholesky solve replaced scipy's cho_factor/cho_solve; the
        # two agree to rounding (about 1e-14 here) on every Newton system.
        import scipy.linalg

        newton_direction = solver._newton_direction
        systems = self._newton_systems(monkeypatch, p)
        assert systems
        for H, g in systems:
            A = H + solver.HESSIAN_RIDGE * np.trace(H) * np.eye(len(g))
            expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), g)
            got = newton_direction(H, g)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zero_hessian_has_no_direction(self):
        assert solver._newton_direction(np.zeros((3, 3)), np.ones(3)) is None

    def test_failed_cholesky_steps_along_the_gradient(self, monkeypatch):
        def not_positive_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        directions = []
        armijo = solver._armijo

        def record(Phi, y, pen, lam, u, obj, g, direction):
            directions.append(direction is g)
            return armijo(Phi, y, pen, lam, u, obj, g, direction)

        monkeypatch.setattr(solver.np.linalg, "cholesky", not_positive_definite)
        monkeypatch.setattr(solver, "_armijo", record)
        Phi, y = _random_problem(30, 120, 8, seed=8)
        sol = solve_dual(Phi, y, PenaltySpec.pnorm(1.5), SolverOptions(max_iters=20))
        assert sol.status in (STATUS_CONVERGED, STATUS_MAX_ITERS, solver.STATUS_LINE_SEARCH_FAILED)
        assert sol.iters > 0 and directions and all(directions)
        pen = PenaltySpec.pnorm(1.5)
        start = solver._initial_point(Phi, y, pen, solver._range_split(Phi, y)[0])
        assert sol.objective_dual > dual_objective(Phi, y, pen, start)
