"""Experiment configs, runners, aggregation, and persistence."""

import collections
import dataclasses
import json
import math
import time

import numpy as np
import pytest

import mci.experiments as experiments
from mci.errors import NumericalFailure
from mci.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    Row,
    aggregate,
    load,
    persist,
    run_audit,
    run_fig1,
    run_latent,
    run_scaling,
)


def rows_equal(a: Row, b: Row) -> bool:
    for f in dataclasses.fields(Row):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, float) and math.isnan(va) and math.isnan(vb):
            continue
        if va != vb:
            return False
    return True


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.d == 30 and cfg.n == 150 and len(cfg.seeds) == 20
        assert cfg.p_list == [1.0, 1.25, 1.5, 2.0]
        assert cfg.N_list == [2**k for k in range(6, 14)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(p_list=[])
        with pytest.raises(ValueError):
            ExperimentConfig(N_list=[128, 64])

    def test_too_few_test_points_rejected(self):
        # Rejected up front, not recorded as a failed solve on every row.
        with pytest.raises(ValueError, match="M_test"):
            run_fig1(ExperimentConfig(d=5, n=12, p_list=[1.5], N_list=[64], M_test=50))

    def test_from_dict_unknown_key(self):
        for raw, message in (
            ({"frobnicate": 1}, "frobnicate"),
            ({"experiment": "fig1"}, r"unknown config keys: \['experiment'\]"),
            ({"solver": {"foo": 1}}, r"unknown solver keys: \['foo'\]"),
            ({"solver": {"armijo_c1": 1e-4}}, "armijo_c1"),
            ({"solver": 3}, "solver must be a dict"),
            ({"solver": {"max_iters": 1.5}}, "max_iters a positive integer"),
            ({"solver": {"tol_grad_rel": "tight"}}, "positive numbers"),
            ({"n": "abc"}, "field n must be int"),
            ({"M_test": "abc"}, "field M_test must be int"),
            ({"N_list": 64}, r"field N_list must be list\[int\]"),
            ({"seeds": 3}, r"field seeds must be list\[int\]"),
            ({"p_list": [2.0, True]}, r"field p_list must be list\[float\]"),
            ({"gamma": "x"}, "field gamma must be float"),
            ({"threads": "2"}, "field threads must be int"),
            ({"seeds": [0, -1]}, "field seeds must be non-negative, not -1"),
            ({"target_seed": -2}, "field target_seed must be non-negative, not -2"),
            ({"threads": 0}, "field threads must be >= 1, not 0"),
        ):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig.from_dict(raw)

    def test_overrides(self):
        cfg = ExperimentConfig().with_overrides(
            ["n=40", "p_list=[1.5,2.0]", "solver.max_iters=77", "activation=relu"]
        )
        assert cfg.n == 40
        assert cfg.p_list == [1.5, 2.0]
        assert cfg.solver.max_iters == 77

    def test_resolved_config_dict(self):
        raw = ExperimentConfig().to_dict()
        assert raw["solver"]["tol_grad_rel"] == 1e-8
        again = ExperimentConfig.from_dict(raw)
        assert again.to_dict() == raw


def _synthetic_rows(k: int) -> list[Row]:
    rng = np.random.default_rng(0)
    rows = []
    for i in range(k):
        rows.append(
            Row(
                experiment="fig1",
                p=float(rng.choice([1.0, 1.25, 1.5, 2.0])),
                n=int(rng.integers(10, 200)),
                N=int(2 ** rng.integers(4, 14)),
                seed=i,
                test_error=float(rng.exponential()),
                l2_to_ref=float("nan") if i % 7 == 0 else float(rng.exponential()),
                solver_iters=int(rng.integers(0, 100)),
                converged=bool(rng.integers(0, 2)),
                wall_ms=float(rng.exponential() * 100),
            )
        )
    return rows


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rows = _synthetic_rows(50)
        res = ExperimentResult(rows=rows, aggregates=aggregate(rows), config={"n": 1})
        back = load(persist(res, tmp_path / "out"))
        assert len(back.rows) == len(rows)
        assert all(rows_equal(a, b) for a, b in zip(rows, back.rows))

    def test_summary_is_strict_json(self, tmp_path):
        # The N = 8 < n = 12 rows are infeasible, so their groups have nan
        # means: summary.json holds them as null, and load() restores nan.
        cfg = ExperimentConfig(d=5, n=12, p_list=[1.0, 2.0], N_list=[8, 32], seeds=[0, 1],
                               M_test=200)
        res = run_fig1(cfg)
        out = persist(res, tmp_path / "fig1")

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        nulls = sorted(k for k, v in summary["aggregates"].items() if v["test_error_mean"] is None)
        assert nulls == ["fig1|p=1|n=12|N=8", "fig1|p=2|n=12|N=8"]
        back = load(out)
        assert back.config == res.config
        assert list(back.aggregates) == list(res.aggregates)
        for key, group in res.aggregates.items():
            for name, value in group.items():
                got = back.aggregates[key][name]
                assert got == value or (math.isnan(value) and math.isnan(got)), (key, name)

    def test_empty_result_header_only(self, tmp_path):
        res = ExperimentResult(rows=[], aggregates={}, config={})
        out = persist(res, tmp_path / "empty")
        text = (out / "rows.csv").read_text().strip()
        assert text == ",".join(CSV_COLUMNS)
        assert load(out).rows == []

    def test_columns_are_the_pinned_schema(self):
        assert CSV_COLUMNS == ("experiment", "p", "n", "N", "seed", "test_error", "l2_to_ref",
                               "solver_iters", "converged", "wall_ms")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("experiment,p,n,N,seed,test_error\nfig1,2,5,8,0,0.1\n")
        with pytest.raises(ValueError, match="unexpected columns"):
            load(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nfig1,2.0,5,8\n")
        with pytest.raises(ValueError, match="row has 4 fields"):
            load(path)


FAST_FIG1 = dict(
    d=5, n=16, p_list=[1.0, 1.5, 2.0], N_list=[32, 64],
    seeds=[0, 1, 2], M_test=2_000,
)


class TestFig1:
    def test_row_grid(self):
        res = run_fig1(ExperimentConfig(**FAST_FIG1))
        assert len(res.rows) == 3 * 2 * 3
        assert all(r.converged for r in res.rows)
        assert res.config["n"] == 16  # resolved config embedded

    def test_deterministic_rerun(self):
        r1 = run_fig1(ExperimentConfig(**FAST_FIG1))
        r2 = run_fig1(ExperimentConfig(**FAST_FIG1))
        for a, b in zip(r1.rows, r2.rows):
            assert a.test_error == b.test_error and a.solver_iters == b.solver_iters

    def test_threads_do_not_change_values(self):
        r1 = run_fig1(ExperimentConfig(**FAST_FIG1))
        r2 = run_fig1(ExperimentConfig(**{**FAST_FIG1, "threads": 3}))
        for a, b in zip(r1.rows, r2.rows):
            assert a.test_error == b.test_error

    def test_underdetermined_rows_recorded(self):
        # N < n: certified infeasible before any solve; rows carry converged=False.
        cfg = ExperimentConfig(
            d=5, n=16, p_list=[2.0], N_list=[8],
            seeds=[0], M_test=2_000,
        )
        res = run_fig1(cfg)
        assert len(res.rows) == 1 and not res.rows[0].converged
        assert res.any_row_failed

    def test_evaluation_error_is_not_a_failed_solve(self, monkeypatch):
        # Only the fit is guarded: an evaluation error propagates instead of
        # recording a converged solve as converged=False.
        def fail(*args, **kwargs):
            raise NumericalFailure("evaluation failed")

        monkeypatch.setattr(experiments, "test_error", fail)
        with pytest.raises(NumericalFailure, match="evaluation failed"):
            run_fig1(ExperimentConfig(d=5, n=12, p_list=[1.5], N_list=[64], seeds=[0],
                                      M_test=1_000))

    def test_ci_shrinks_with_more_seeds(self):
        base = dict(d=5, n=16, p_list=[1.5], N_list=[128], M_test=4_000)
        ci5 = list(run_fig1(ExperimentConfig(**base, seeds=list(range(5)))).aggregates.values())[0][
            "test_error_ci95"
        ]
        ci20 = list(
            run_fig1(ExperimentConfig(**base, seeds=list(range(20)))).aggregates.values()
        )[0]["test_error_ci95"]
        # 4x the seeds: CI should shrink roughly like 1/2.
        assert ci20 < ci5
        assert 1.2 <= ci5 / ci20 <= 5.0

    def test_p2_approaches_kernel_interpolant(self):
        # Beyond the flattening width the quadratic-penalty test error sits
        # within 10% of the kernel-interpolant test error.
        from mci import (
            DataSpec,
            FeatureSpec,
            RidgeTarget,
            kernel_interpolant,
            kernel_matrix,
            sample_data,
        )
        from mci.predict import test_error as mse
        from mci.seeding import derive_seed

        cfg = ExperimentConfig(
            d=5, n=20, p_list=[2.0], N_list=[4096],
            seeds=[0, 1, 2], M_test=20_000, target_seed=0,
        )
        res = run_fig1(cfg)
        spec = FeatureSpec(activation="relu")
        ds = DataSpec(d=5, target=RidgeTarget.random(5, 0))
        for row in res.rows:
            inst = sample_data(ds, 20, row.seed)
            kp = kernel_interpolant(kernel_matrix(spec, inst.X, method="arc_cosine"), inst.y)
            kerr = mse(kp, ds, cfg.M_test, derive_seed(row.seed, "test"))
            assert abs(row.test_error - kerr) <= 0.10 * kerr


class TestScaling:
    def test_single_width_rejected(self):
        with pytest.raises(ValueError):
            run_scaling(
                ExperimentConfig(d=5, n=16, p_list=[2.0],
                                 N_list=[64], seeds=[0])
            )

    def test_width_short_of_a_slope_keeps_the_rows(self):
        # N = 16, 32 < n = 40 are infeasible, so p = 1.5 converges at one
        # width only: it gets no slope and a reason, and every row is kept.
        cfg = ExperimentConfig(d=10, n=40, p_list=[1.5],
                               N_list=[16, 32, 64], seeds=[0], M_test=200, N_ref=512)
        res = run_scaling(cfg)
        assert [(r.N, r.converged) for r in res.rows] == [(16, False), (32, False), (64, True)]
        assert res.any_row_failed
        rep = res.extras["slopes"]["p=1.5"]
        assert rep["slope"] is None and rep["intercept"] is None
        assert rep["N"] == [64] and "at least two" in rep["reason"]

    def test_slope_report(self):
        cfg = ExperimentConfig(
            d=5, n=16, p_list=[2.0], N_list=[64, 128, 256],
            seeds=[0, 1], M_test=2_000,
        )
        res = run_scaling(cfg)
        rep = res.extras["slopes"]["p=2"]
        assert rep["slope"] < 0
        assert len(rep["mean_l2"]) == 3
        assert all(math.isfinite(r.l2_to_ref) for r in res.rows)


class TestLatent:
    def test_wrong_spec(self):
        with pytest.raises(ValueError, match="activation='identity' and gamma > 0"):
            run_latent(ExperimentConfig(activation="relu", gamma=1.0,
                                        d=5, n=16, p_list=[2.0], N_list=[32, 64], seeds=[0]))
        with pytest.raises(ValueError, match="activation='identity' and gamma > 0"):
            run_latent(ExperimentConfig(activation="identity", gamma=0.0,
                                        d=5, n=16, p_list=[2.0], N_list=[32, 64], seeds=[0]))

    def test_latent_run(self):
        cfg = ExperimentConfig(
            d=5, n=16, p_list=[2.0, 1.5], N_list=[64, 256],
            seeds=[0, 1], gamma=1.0, activation="identity",
            target_activation="identity", M_test=2_000, N_ref=1024,
        )
        res = run_latent(cfg)
        assert "c0" in res.extras and "lemma_gate_ok" in res.extras
        assert all(v["mean"] > 0 for v in res.extras["noise_residuals"].values())
        assert all(math.isfinite(r.l2_to_ref) for r in res.rows)

    def test_latent_distance_decreases_with_width(self):
        cfg = ExperimentConfig(
            d=5, n=20, p_list=[2.0], N_list=[64, 1024],
            seeds=list(range(4)), gamma=1.0, activation="identity",
            target_activation="identity", M_test=4_000,
        )
        res = run_latent(cfg)
        by_N = {v["N"]: v["l2_to_ref_mean"] for v in res.aggregates.values()}
        assert by_N[1024] < by_N[64]


def _reference_per_p(cfg: ExperimentConfig, spec, inst, p: float, seed: int):
    """The reference of one p, built on its own: the kernel interpolant when
    p = 2, else a fresh draw, featurization and fit at width N_ref, each
    splitting its own Gram matrix.  Returns (predictor, noise term)."""
    from mci.features import featurize, kernel_matrix, sample_weights
    from mci.penalty import PenaltySpec
    from mci.predict import Predictor, kernel_interpolant
    from mci.seeding import derive_seed
    from mci.solver import fit

    if p == 2.0:
        oracle = kernel_matrix(spec, inst.X, method=experiments._closed_form_method(spec),
                               seed=derive_seed(seed, "kernel"))
        ref = kernel_interpolant(oracle, inst.y)
        return ref, cfg.gamma**2 * ref.coeffs
    ref_seed = derive_seed(seed, "reference")
    W_ref = sample_weights(spec, cfg.d, cfg.N_ref, ref_seed)
    Phi_ref, Z_ref = featurize(spec, inst.X, W_ref, seed=ref_seed, return_noise=True)
    ref = fit(Phi_ref, inst.y, PenaltySpec.pnorm(p), cfg.solver)
    assert ref.converged, ref.status
    noise = np.zeros(inst.n) if Z_ref is None else Z_ref @ ref.a / cfg.N_ref
    return Predictor(W=W_ref, a=ref.a, spec=spec), noise


def _rows_evaluated_per_row(cfg: ExperimentConfig, experiment: str):
    """The per-row path the engine replaces: fresh weights and a fresh Predictor
    for each row, `test_error` and `l2_distance` each predicting the model, a
    reference built and predicted on its own for each p and re-predicted for
    every width, and the latent reference noise matrix regenerated for every
    width.  Rows whose fit did not converge keep the solver's iteration count
    and are not scored (nan outputs).  Returns
    ({(p, N, seed): row outputs}, {"p=..|N=..": [noise residual per seed]})."""
    from mci.features import featurize, sample_data, sample_weights
    from mci.penalty import PenaltySpec
    from mci.predict import Predictor, l2_distance, test_error
    from mci.seeding import derive_seed
    from mci.solver import STATUS_CONVERGED, fit

    spec, ds = cfg.feature_spec(), cfg.data_spec()
    rows, residuals = {}, {}
    for seed in cfg.seeds:
        inst = sample_data(ds, cfg.n, seed)
        test_seed = derive_seed(seed, "test")
        for p in cfg.p_list:
            ref = None
            if experiment != "fig1":
                ref, _ = _reference_per_p(cfg, spec, inst, p, seed)
            for N in cfg.N_list:
                W = sample_weights(spec, cfg.d, N, seed)
                Phi, Z = featurize(spec, inst.X, W, seed=seed, return_noise=True)
                res = fit(Phi, inst.y, PenaltySpec.pnorm(p), cfg.solver)
                a, iters, ok = res.a, res.iters, res.status == STATUS_CONVERGED
                te = dist = math.nan
                if ok:
                    pred = Predictor(W=W, a=a, spec=spec)
                    te = test_error(pred, ds, cfg.M_test, test_seed)
                    if ref is not None:
                        dist, _ = l2_distance(pred, ref, ds, cfg.M_test, test_seed)
                rows[(p, N, seed)] = (te, dist, iters, ok)
                if experiment == "latent" and ok and p > 1:
                    if p == 2.0:
                        pop = cfg.gamma**2 * ref.kernel.inv_apply(inst.y)
                    else:
                        _, Z_ref = featurize(spec, inst.X, ref.W, seed=derive_seed(seed, "reference"),
                                             return_noise=True)
                        pop = Z_ref @ ref.a / cfg.N_ref
                    residuals.setdefault(f"p={p:g}|N={N}", []).append(
                        float(np.linalg.norm(Z @ a / N - pop)))
    return rows, residuals


ENGINE_CASES = {
    # N = 8 < n: p = 1 is infeasible and the dual rows stop unconverged.
    "fig1": (run_fig1, dict(d=5, n=12, p_list=[1.0, 1.5, 2.0],
                            N_list=[8, 32, 64], seeds=[0, 1], M_test=1_000,
                            solver={"max_iters": 20})),
    "scaling": (run_scaling, dict(d=5, n=12, p_list=[1.5, 2.0],
                                  N_list=[32, 64, 128], seeds=[0, 1], M_test=1_000,
                                  N_ref=512, weight_dist="uniform_sphere")),
    # Every p: three dense references share one stacked pass (p = 1.25 and
    # 1.5 solved, p = 2 the kernel) and p = 1's is predicted on its support.
    "scaling_every_p": (run_scaling, dict(d=5, n=12, p_list=[1.0, 1.25, 1.5, 2.0],
                                          N_list=[32, 64, 128], seeds=[0, 1], M_test=1_000,
                                          N_ref=512)),
    "latent": (run_latent, dict(d=5, n=12, p_list=[2.0, 1.5],
                                N_list=[32, 128], seeds=[0, 1], gamma=1.0,
                                activation="identity", target_activation="identity",
                                M_test=1_000, N_ref=512)),
}

STACKED_CASES = {
    **ENGINE_CASES,
    # Widths that are not powers of two, so N_max / N is inexact; N = 10 < n.
    "fig1_odd_widths": (run_fig1, dict(d=5, n=12, p_list=[1.0, 1.5, 2.0],
                                       N_list=[10, 24, 40, 100], seeds=[0, 1], M_test=1_000)),
}


def _predict_float64(self, X_test):
    """The float64 slow path of `Predictor.predict`: the same chunked pass on
    float64 arrays.  Patched in, it makes two evaluation routes that sum the
    same terms agree to rounding."""
    from mci.features import mean_features_dot

    X_test = np.asarray(X_test, dtype=np.float64)
    return mean_features_dot(self.spec, X_test, self.W, self.a) / self.W.shape[0]


class TestSweepEngine:
    @pytest.mark.parametrize("experiment", sorted(ENGINE_CASES))
    def test_rows_match_per_row_evaluation(self, experiment, monkeypatch):
        # On the float64 slow path the engine's rows are the per-row path's to
        # 1e-12; the float32 pass stays within 1e-6 relative of them.
        from mci.predict import Predictor

        runner, raw = ENGINE_CASES[experiment]
        cfg = ExperimentConfig.from_dict(raw)
        res = runner(cfg)
        with monkeypatch.context() as m:
            m.setattr(Predictor, "predict", _predict_float64)
            exact = runner(cfg)
            slow_rows, slow_residuals = _rows_evaluated_per_row(cfg, experiment)
        assert sorted((r.p, r.N, r.seed) for r in res.rows) == sorted(slow_rows)
        for r, e in zip(res.rows, exact.rows):
            te, dist, iters, ok = slow_rows[(r.p, r.N, r.seed)]
            assert (e.p, e.N, e.seed) == (r.p, r.N, r.seed)
            assert (r.solver_iters, r.converged) == (e.solver_iters, e.converged) == (iters, ok)
            assert e.test_error == pytest.approx(te, rel=1e-12, nan_ok=True)
            assert e.l2_to_ref == pytest.approx(dist, rel=1e-12, nan_ok=True)
            assert r.test_error == pytest.approx(te, rel=1e-6, nan_ok=True)
            assert r.l2_to_ref == pytest.approx(dist, rel=1e-6, nan_ok=True)
        if experiment == "latent":
            got = {k: v["values"] for k, v in res.extras["noise_residuals"].items()}
            assert got.keys() == slow_residuals.keys()
            for key, values in slow_residuals.items():
                assert got[key] == pytest.approx(values, rel=1e-12)
        if experiment != "fig1":
            assert all(math.isfinite(r.l2_to_ref) for r in res.rows)
        else:
            # N = 8 < n = 12 is certified infeasible before any solve, for the
            # l1 program and the dual alike, and such rows are not scored.
            under = [r for r in res.rows if r.N < r.n]
            assert {r.p for r in under} == {1.0, 1.5, 2.0}
            for r in under:
                assert (r.solver_iters, r.converged) == (0, False)
                assert math.isnan(r.test_error)

    def test_each_model_predicted_once(self, monkeypatch):
        from mci.predict import KernelPredictor, Predictor

        calls = collections.Counter()
        finite_predict, kernel_predict = Predictor.predict, KernelPredictor.predict

        def count_finite(self, X_test):
            calls["finite", self.W.shape[0], X_test.shape[0], self.a.shape[1:]] += 1
            return finite_predict(self, X_test)

        def count_kernel(self, X_test):
            calls["kernel", X_test.shape[0]] += 1
            return kernel_predict(self, X_test)

        monkeypatch.setattr(Predictor, "predict", count_finite)
        monkeypatch.setattr(KernelPredictor, "predict", count_kernel)
        cfg = ExperimentConfig(d=5, n=12, p_list=[1.5, 2.0],
                               N_list=[32, 64, 128], seeds=[0, 1], M_test=1_000, N_ref=512)
        res = run_scaling(cfg)
        assert len(res.rows) == 12 and all(r.converged for r in res.rows)
        # The reference once per (seed, p): a 512-wide model for p = 1.5, the
        # kernel interpolant for p = 2; the six finite models of a seed in one
        # pass over its widest draw (N = 128), one coefficient column each.
        assert calls == {("finite", 512, 1_000, ()): 2, ("kernel", 1_000): 2,
                         ("finite", 128, 1_000, (6,)): 2}

    @pytest.mark.parametrize("experiment", sorted(STACKED_CASES))
    def test_stacked_pass_matches_per_row_predict(self, experiment, monkeypatch):
        # Each converged row's value column from the seed's one pass over its
        # widest draw equals a fresh Predictor on the row's own prefix W_max[:N]:
        # to 1e-12 on the float64 slow path, and within 1e-6 relative of it in
        # the float32 pass.
        from mci.predict import Predictor
        from mci.solver import STATUS_CONVERGED

        runner, raw = STACKED_CASES[experiment]
        cfg = ExperimentConfig.from_dict(raw)
        draws, fits, scored = [], [], []
        sample_weights, fit, test_error = (experiments.sample_weights, experiments.fit,
                                           experiments.test_error)

        def record_draw(spec, d, N, seed):
            W = sample_weights(spec, d, N, seed)
            if N == cfg.N_list[-1]:
                draws.append(W)
            return W

        def record_fit(Phi, *args, **kwargs):
            res = fit(Phi, *args, **kwargs)
            if Phi.shape[1] in cfg.N_list and res.status == STATUS_CONVERGED:
                fits.append((draws[-1], Phi.shape[1], res.a))
            return res

        def record_score(values, ds, M, seed, X_test, y_test):
            scored.append((values, X_test))
            return test_error(values, ds, M, seed, X_test, y_test)

        monkeypatch.setattr(experiments, "sample_weights", record_draw)
        monkeypatch.setattr(experiments, "fit", record_fit)
        monkeypatch.setattr(experiments, "test_error", record_score)

        def recorded_run():
            for recorded in (draws, fits, scored):
                recorded.clear()
            res = runner(cfg)
            assert len(draws) == len(cfg.seeds)
            assert len(fits) == len(scored) == sum(r.converged for r in res.rows) > 0
            return list(zip(fits, scored))

        fast = recorded_run()
        with monkeypatch.context() as m:
            m.setattr(Predictor, "predict", _predict_float64)
            exact = recorded_run()
        assert len(fast) == len(exact)
        spec = cfg.feature_spec()
        for ((W_max, N, a), (values, X_test)), (_, (exact_values, _)) in zip(fast, exact):
            slow = _predict_float64(Predictor(W=W_max[:N], a=a, spec=spec), X_test)
            assert np.linalg.norm(exact_values - slow) <= 1e-12 * np.linalg.norm(slow)
            assert np.linalg.norm(values - slow) <= 1e-6 * np.linalg.norm(slow)

    @pytest.mark.parametrize("experiment", sorted(ENGINE_CASES))
    def test_shared_split_writes_the_same_rows(self, experiment, monkeypatch):
        # With `fit` wrapped to drop the shared split, every solve splits its
        # own Phi: the rows (but their fit times) and the extras are the same.
        runner, raw = ENGINE_CASES[experiment]
        cfg = ExperimentConfig.from_dict(raw)
        shared = runner(cfg)
        fit = experiments.fit

        def own_split(Phi, y, pen, opts=None, *, _split=None):
            return fit(Phi, y, pen, opts)

        monkeypatch.setattr(experiments, "fit", own_split)
        unshared = runner(cfg)
        assert len(shared.rows) == len(unshared.rows) > 0
        for a, b in zip(shared.rows, unshared.rows):
            assert rows_equal(dataclasses.replace(a, wall_ms=0.0), dataclasses.replace(b, wall_ms=0.0))
        assert json.dumps(shared.extras) == json.dumps(unshared.extras)

    @pytest.mark.parametrize("runner, expected", [
        (run_fig1, {"_range_split": 2 * 3}),
        (run_scaling, {"_range_split": 2 * (3 + 1), "kernel_matrix": 2}),
    ])
    def test_one_range_split_per_featurized_width(self, monkeypatch, runner, expected):
        # Per seed, one Gram eigendecomposition per width for every p and, in
        # a scaling run, one for the reference draw that the p = 1 and 1.5
        # references share; the p = 2 kernel oracle takes its own.
        import sys

        calls = collections.Counter()
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls[sys._getframe(1).f_code.co_name] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cfg = ExperimentConfig(d=5, n=12, p_list=[1.0, 1.5, 2.0], N_list=[8, 32, 64],
                               seeds=[0, 1], M_test=1_000, N_ref=512)
        assert len(runner(cfg).rows) == 2 * 3 * 3
        assert calls == expected

    def test_test_batch_drawn_and_scored_once_per_seed(self, monkeypatch):
        # One covariate draw and one target evaluation of M_test rows per seed,
        # however many rows the seed scores; the training sample is the other.
        import mci.features as features
        import mci.predict as predict

        draws, targets = collections.Counter(), collections.Counter()
        sample_covariates, target_call = features.sample_covariates, features.RidgeTarget.__call__

        def count_draw(ds, n, seed):
            draws[n] += 1
            return sample_covariates(ds, n, seed)

        def count_target(self, X):
            targets[len(X)] += 1
            return target_call(self, X)

        for module in (features, experiments, predict):
            monkeypatch.setattr(module, "sample_covariates", count_draw)
        monkeypatch.setattr(features.RidgeTarget, "__call__", count_target)
        cfg = ExperimentConfig(d=5, n=12, p_list=[1.5, 2.0],
                               N_list=[32, 64, 128], seeds=[0, 1], M_test=1_000, N_ref=512)
        res = run_scaling(cfg)
        assert len(res.rows) == 12 and all(r.converged for r in res.rows)
        assert draws == {12: 2, 1_000: 2}
        assert targets == {12: 2, 1_000: 2}


class TestMapSeeds:
    @pytest.mark.parametrize("failing, head_sleep", [(0, 0.05), (1, 0.5)])
    def test_first_failure_cancels_queued_seeds(self, failing, head_sleep):
        # One seed raises at once; the others sleep and record that they
        # started.  With (1, 0.5) the failure comes while seed 0 still runs,
        # and it must not wait for seed 0 before the queue is cancelled.
        started = []

        def per_seed(seed):
            started.append(seed)
            if seed == failing:
                raise NumericalFailure(f"seed {seed} failed")
            time.sleep(head_sleep if seed == 0 else 0.05)
            return seed

        with pytest.raises(NumericalFailure, match=f"seed {failing} failed"):
            experiments._map_seeds(per_seed, list(range(20)), threads=2)
        assert len(started) <= 4

    def test_results_keep_seed_order(self):
        # Seeds finish in reverse order; results still follow `seeds`.
        def per_seed(seed):
            time.sleep(0.01 * (5 - seed))
            return seed * seed

        assert experiments._map_seeds(per_seed, list(range(6)), threads=2) == [0, 1, 4, 9, 16, 25]


class TestAudit:
    def test_audit_document(self):
        cfg = ExperimentConfig(
            d=5, n=16, p_list=[1.5], N_list=[256], seeds=[0],
            gamma=1.0, activation="identity", target_activation="identity",
            M_test=2_000, N_ref=1024, m_max=8, quad_order=60,
        )
        doc = run_audit(cfg)
        assert set(doc) >= {"config", "hermite", "hermite_condition", "assumptions", "event_budget"}
        assert doc["hermite"]["mu"][1] == pytest.approx(1.0, abs=1e-10)
        assert doc["assumptions"]["smallball_prob"] <= 0.12
        assert isinstance(doc["event_budget"]["holds"], bool)

    def test_identity_audit_at_the_hermite_defaults(self):
        # m_max = 20 and quad_order = 80, as `mci audit` runs: the stability
        # check once read raw coefficients (scale sqrt(k!)) and failed the
        # identity, and its rounding-level tails hid the trivial pass.
        cfg = ExperimentConfig(
            d=5, n=16, p_list=[1.5], N_list=[256], seeds=[0],
            gamma=1.0, activation="identity", target_activation="identity",
            M_test=2_000, N_ref=1024,
        )
        assert (cfg.m_max, cfg.quad_order) == (20, 80)
        doc = run_audit(cfg)
        assert doc["hermite"]["mu"][1] == pytest.approx(1.0, abs=1e-14)
        assert doc["hermite_condition"]["found"] and doc["hermite_condition"]["m"] == 2

    @pytest.mark.parametrize(
        "N, solver, expected",
        [
            (256, {"max_iters": 1},
             "finite solve (N=256) ended max_iters; reference solve (N_ref=1024) ended max_iters"),
            (8, {},
             "finite solve (N=8) ended infeasible; reference solve (N_ref=1024) ended converged"),
        ],
    )
    def test_failed_solve_names_both_statuses(self, N, solver, expected):
        cfg = ExperimentConfig.from_dict(dict(
            d=5, n=16, p_list=[1.5], N_list=[N], seeds=[0],
            gamma=1.0, activation="identity", target_activation="identity",
            M_test=2_000, N_ref=1024, m_max=8, quad_order=60, solver=solver,
        ))
        assert run_audit(cfg)["event_budget"] == {"error": expected}
