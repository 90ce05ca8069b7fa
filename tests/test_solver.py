"""Dual solver: objective/derivatives, Newton ascent, primal recovery, l1 homotopy."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, linprog

import mci.features as features
import mci.solver as solver
from mci.experiments import ExperimentConfig
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


class TestBlockedCurvature:
    """`_curvature` sums SYRK products over column blocks of Phi; the slow
    path is the one product (Phi * s') @ Phi^T / N it replaced."""

    @staticmethod
    def _slow(Phi, pen, u):
        return (Phi * solver.link_s_prime(pen, u)) @ Phi.T / Phi.shape[1]

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("block_entries", [None, 64 * 37])
    def test_matches_the_unblocked_product(self, monkeypatch, p, block_entries):
        # n = 64 makes a block 4096 columns at the real size (37 at the
        # small one); N spans three blocks and a ragged fourth.
        if block_entries is not None:
            monkeypatch.setattr(features, "BLOCK_ENTRIES", block_entries)
        n = 64
        cols = features.lines_per_block(n)
        N = 3 * cols + cols // 3
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(n, N, 8, seed=21)
        u = Phi.T @ np.linalg.solve(Phi @ Phi.T / N + 0.1 * np.eye(n), y)
        H = solver._curvature(Phi, pen, u)
        slow = self._slow(Phi, pen, u)
        assert np.max(np.abs(H - slow)) <= 1e-13 * np.max(np.abs(slow))
        np.testing.assert_array_equal(H, H.T)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_dual_hessian_takes_the_blocked_path(self, p):
        pen = PenaltySpec.pnorm(p)
        Phi, y = _random_problem(40, 9000, 6, seed=22)  # 9000 > 6553 columns a block
        lam = np.linalg.solve(Phi @ Phi.T / 9000 + 0.1 * np.eye(40), y)
        H = dual_hessian(Phi, y, pen, lam)
        np.testing.assert_array_equal(H, -solver._curvature(Phi, pen, Phi.T @ lam))
        np.testing.assert_array_equal(H, H.T)
        slow = -self._slow(Phi, pen, Phi.T @ lam)
        assert np.max(np.abs(H - slow)) <= 1e-13 * np.max(np.abs(slow))

    def test_constant_link_derivative_is_broadcast(self):
        # A custom quadratic link whose link_prime returns a scalar: s' comes
        # back 0-d and is broadcast over the columns, as the unblocked
        # product broadcast it.
        quadratic = PenaltySpec.custom(
            rho=lambda x: x**2 / 2,
            conjugate=lambda x: x**2 / 2,
            link=lambda x: x,
            link_prime=lambda x: 1.0,
            exponents=(2.0, 2.0, 2.0, 2.0),
        )
        Phi, y = _random_problem(40, 9000, 6, seed=23)  # 9000 > 6553 columns a block
        u = Phi.T @ np.ones(40)
        H = solver._curvature(Phi, quadratic, u)
        slow = self._slow(Phi, quadratic, u)
        assert np.max(np.abs(H - slow)) <= 1e-13 * np.max(np.abs(slow))
        np.testing.assert_array_equal(H, H.T)

    @staticmethod
    def _signed_link(sign_of_first):
        # s'(x) = 2|x|, with the first feature's entry multiplied by
        # `sign_of_first`: a negative value stands for rounding in a custom
        # link_prime.
        return PenaltySpec.custom(
            rho=lambda x: np.abs(x) ** 1.5 / 1.5,
            conjugate=lambda x: np.abs(x) ** 3.0 / 3.0,
            link=lambda x: np.sign(x) * np.abs(x) ** 2.0,
            link_prime=lambda x: 2.0 * np.abs(x) * np.where(np.arange(x.size) == 0, sign_of_first, 1.0),
            exponents=(3.0, 3.0, 3.0, 3.0),
        )

    def test_negative_link_derivative_is_clipped_to_zero(self):
        Phi, _ = _random_problem(30, 120, 8, seed=8)
        u = Phi.T @ np.ones(30)
        H = solver._curvature(Phi, self._signed_link(-1.0), u)
        clipped = self._slow(Phi, self._signed_link(0.0), u)
        assert np.max(np.abs(H - clipped)) <= 1e-13 * np.max(np.abs(clipped))
        assert np.linalg.eigvalsh(H)[0] >= -1e-12 * np.trace(H)

    def test_slightly_negative_link_derivative_keeps_newton_steps(self, monkeypatch):
        # One s' entry at -1e-6 of its size: clipped, H stays PSD and every
        # step is a Newton step, so the solve converges (25 iterations) as it
        # did with the unblocked product.  A nan root would have made every
        # step a gradient step and run out the 500 iterations.
        directions = []
        armijo = solver._armijo

        def record(Phi, y, pen, lam, u, obj, g, direction):
            directions.append(direction is g)
            return armijo(Phi, y, pen, lam, u, obj, g, direction)

        monkeypatch.setattr(solver, "_armijo", record)
        Phi, y = _random_problem(30, 120, 8, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_dual(Phi, y, self._signed_link(-1e-6))
        assert sol.converged
        assert directions and not any(directions)

    def test_solve_holds_no_second_copy_of_phi(self):
        # At n = 150, N = 16384 (Phi is 19.7 MB) the solve held 19.1 MB above
        # Phi when the curvature formed Phi * s' whole; its blocks hold 2 MB.
        import tracemalloc

        Phi, y = _random_problem(150, 16384, 30, seed=0)
        tracemalloc.start()
        try:
            sol = solve_dual(Phi, y, PenaltySpec.pnorm(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


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
    def _linprog(Phi, y, presolve=False):
        """The slow path: the l1 program as a linear program over a = a+ - a-,
        by the HiGHS dual simplex, which solve_l1 ran before the homotopy."""
        N = Phi.shape[1]
        res = linprog(
            np.ones(2 * N), A_eq=np.hstack([Phi, -Phi]) / N, b_eq=y, bounds=(0, None),
            method="highs-ds",
            options={"presolve": presolve, "primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        assert res.success
        return res.x[:N] - res.x[N:]

    @classmethod
    def _assert_same_vertex(cls, Phi, y, presolve=False, rtol=1e-9):
        prim = solve_l1(Phi, y)
        vertex = cls._linprog(Phi, y, presolve)
        assert prim.converged and prim.iters == 0
        assert prim.residual <= L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)
        np.testing.assert_array_equal(np.flatnonzero(prim.a), np.flatnonzero(vertex))
        assert prim.objective_primal == pytest.approx(np.sum(np.abs(vertex)), rel=rtol)
        return prim

    @pytest.mark.parametrize("n, N, d, seed", [(10, 50, 4, 16), (150, 256, 30, 1), (150, 1024, 30, 2)])
    def test_matches_linprog(self, n, N, d, seed):
        self._assert_same_vertex(*_random_problem(n, N, d, seed))

    @pytest.mark.parametrize("seed", [12065, 17016])
    def test_fig1_workload_instances(self, seed):
        # The fig1 benchmark workload's p = 1, N = 256 instance at these
        # seeds ends on the LP optimum, but a certificate taken from the
        # path's last direction missed L1_GAP_RTOL there (gaps 1.2e-9 and
        # 3.3e-9): the final support's own dual point certifies it.
        cfg = ExperimentConfig()  # the workload's d = 30, n = 150, ReLU data and features
        spec, ds = cfg.feature_spec(), cfg.data_spec()
        inst = sample_data(ds, cfg.n, seed)
        W = sample_weights(spec, cfg.d, 512, seed)[:256]  # the sweep's prefix of its widest draw
        self._assert_same_vertex(featurize(spec, inst.X, W, seed=seed), inst.y)

    @pytest.mark.parametrize("n, N, d, seed", [(10, 50, 4, 16), (150, 512, 30, 0)])
    def test_same_vertex_as_with_presolve(self, n, N, d, seed):
        # HiGHS with presolve, the path before presolve was turned off, ends
        # on the same vertex as the homotopy.
        self._assert_same_vertex(*_random_problem(n, N, d, seed), presolve=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_rows_without_presolve(self, seed):
        # Phi of rank 5 < n = 12: presolve drops the 7 dependent rows; the
        # homotopy keeps them, stops joining at 5 columns and reaches the
        # same optimum.
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((12, 5)) @ rng.standard_normal((5, 64))
        y = Phi @ rng.standard_normal(64) / 64
        prim = self._assert_same_vertex(Phi, y, presolve=True, rtol=1e-12)
        assert np.count_nonzero(prim.a) <= 5

    def test_highs_accepts_every_option(self):
        # scipy passes an unknown HiGHS option to the solver with only a
        # warning, so a misspelt option of the slow path would otherwise go
        # unnoticed.
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizeWarning)
            self._linprog(*_random_problem(10, 50, 4, seed=16))

    def test_tie_at_the_end_of_the_path(self):
        # The optimum has 4 < n = 5 columns: a fifth coefficient reaches zero
        # exactly at tau = 0, where the end of the path wins the tie.
        Phi, y = _random_problem(5, 20, 4, seed=17)
        prim = self._assert_same_vertex(Phi, y)
        assert np.count_nonzero(prim.a) == 4

    def test_dropped_column_rejoins_with_opposite_sign(self):
        # Trial 2 of criterion 4 (n = 3, N = 4): a column leaves the support
        # and must rejoin from the opposite boundary, which a mask on the
        # whole column would miss.
        rng = np.random.default_rng(404)
        for _ in range(3):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(n + 1, 13))
            Phi, y = rng.standard_normal((n, N)), rng.standard_normal(n)
        assert (n, N) == (3, 4)
        prim = self._assert_same_vertex(Phi, y)
        assert prim.objective_primal == pytest.approx(_l1_bruteforce(Phi, y), abs=1e-8)

    def test_duplicated_columns_wait_for_a_drop(self):
        # A copy of a support column, or its negative, rides the boundary
        # with it; joining it would make B_S singular.
        Phi, y = _random_problem(10, 25, 4, seed=16)
        Phi = np.hstack([Phi, Phi, -Phi])
        prim = solve_l1(Phi, y)
        assert prim.converged
        assert prim.objective_primal == pytest.approx(np.sum(np.abs(self._linprog(Phi, y))), rel=1e-9)

    def test_degenerate_vertex_is_certified(self):
        # Integer data: the support solve returns a coefficient that is zero
        # at the optimum as a rounding-size number of the wrong sign, which
        # the duality gap tolerates and a strict sign test would not.
        rng = np.random.default_rng(137)
        n = int(rng.integers(2, 8))
        N = int(rng.integers(n + 1, 3 * n + 2))
        Phi = rng.integers(-1, 2, (n, N)).astype(float)
        y = rng.integers(-2, 3, n).astype(float)
        prim = solve_l1(Phi, y)
        assert (n, N) == (4, 12) and prim.converged
        assert prim.objective_primal == pytest.approx(_l1_bruteforce(Phi, y), abs=1e-8)
        assert prim.objective_primal == pytest.approx(np.sum(np.abs(self._linprog(Phi, y))), rel=1e-9)

    def test_sign_flip_is_not_polished(self, monkeypatch):
        # A support solve that flips a coefficient's sign fails the
        # certificate: the record is max_iters with that point's residual.
        Phi, y = _random_problem(10, 50, 4, seed=16)
        N = Phi.shape[1]
        solve = np.linalg.solve
        flipped = []

        def flip(A, b):
            a_S = solve(A, b)
            a_S[0] = -a_S[0]
            flipped.append(A @ a_S / N - b / N)
            return a_S

        monkeypatch.setattr(solver.np.linalg, "solve", flip)
        prim = solve_l1(Phi, y)
        assert len(flipped) == 1
        assert prim.status == STATUS_MAX_ITERS and prim.iters == 0 and prim.a is None
        assert np.isnan(prim.objective_primal)
        assert prim.residual == pytest.approx(np.linalg.norm(flipped[0]), rel=1e-9)

    def test_uncertified_end_is_max_iters(self, monkeypatch):
        # The duality gap is never negative, so a negative gap tolerance
        # fails every certificate, although the end point interpolates.
        monkeypatch.setattr(solver, "L1_GAP_RTOL", -1e-3)
        Phi, y = _random_problem(10, 50, 4, seed=16)
        prim = solve_l1(Phi, y)
        assert prim.status == STATUS_MAX_ITERS and prim.a is None
        assert prim.residual <= L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)

    def test_capped_path_is_max_iters(self, monkeypatch):
        # One step per row of Phi is too few for this path: it stops short of
        # tau = 0, uncertified and with a residual above the tolerance.
        monkeypatch.setattr(solver, "HOMOTOPY_STEPS_PER_ROW", 1)
        Phi, y = _random_problem(10, 50, 4, seed=16)
        prim = solve_l1(Phi, y)
        assert prim.status == STATUS_MAX_ITERS and prim.iters == 0 and prim.a is None
        assert np.isnan(prim.objective_primal)
        assert prim.residual > L1_RESIDUAL_RTOL * max(np.linalg.norm(y), 1.0)

    def test_vertex_within_tolerance_is_kept(self, monkeypatch):
        # The support solve's vertex meets the tolerance and is returned
        # bitwise; nothing re-solves it.
        solve = np.linalg.solve
        seen = []

        def recorded(A, b):
            seen.append(solve(A, b))
            return seen[-1]

        def fail(*args, **kwargs):
            raise AssertionError("vertex re-solved although it met the tolerance")

        monkeypatch.setattr(solver.np.linalg, "solve", recorded)
        monkeypatch.setattr(solver.np.linalg, "pinv", fail)
        Phi, y = _random_problem(10, 50, 4, seed=16)
        a = solve_l1(Phi, y).a
        assert len(seen) == 1
        np.testing.assert_array_equal(np.sort(a[a != 0]), np.sort(seen[0]))


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

    def test_l1_infeasible_never_enters_the_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("homotopy run on a certified infeasible problem")

        monkeypatch.setattr(solver, "_homotopy", fail)
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

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("N", [8, 40])
    def test_shared_split_gives_the_same_solution(self, monkeypatch, p, N):
        # A split computed once by the caller, as a sweep shares it over every
        # p, gives the record of a fit that splits Phi itself, bit for bit,
        # on either side of n = 20; the fit then takes no eigendecomposition.
        Phi, y = _random_problem(20, N, 6, seed=10)
        own = fit(Phi, y, PenaltySpec.pnorm(p))
        split = solver._range_split(Phi, y)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(solver.np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        shared = fit(Phi, y, PenaltySpec.pnorm(p), _split=split)
        assert calls == []
        assert own.status == (STATUS_INFEASIBLE if N < 20 else STATUS_CONVERGED)
        for f in dataclasses.fields(Solution):
            mine, theirs = getattr(own, f.name), getattr(shared, f.name)
            if isinstance(mine, np.ndarray):
                assert theirs.tobytes() == mine.tobytes(), f.name
            else:
                assert theirs == mine or (mine != mine and theirs != theirs), f.name


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
