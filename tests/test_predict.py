"""Predictors, kernel interpolant, Monte Carlo distances and test errors."""

from dataclasses import fields

import numpy as np
import pytest

from mci.features import (
    DataSpec,
    FeatureSpec,
    RidgeTarget,
    kernel_matrix,
    mean_features_dot,
    sample_covariates,
    sample_data,
    sample_weights,
)
from mci.predict import KernelPredictor, Predictor, kernel_interpolant, l2_distance, predict
from mci.predict import test_error as mse_vs_target

SPEC = FeatureSpec(activation="relu")


def _ds(d, seed=0):
    return DataSpec(d=d, target=RidgeTarget.random(d, seed))


def _predict_float64(pred, X):
    """The slow path of `Predictor.predict`: the same chunked pass on float64 arrays."""
    return mean_features_dot(pred.spec, np.asarray(X, dtype=np.float64), pred.W, pred.a) / pred.W.shape[0]


def _rel_gap(got, want):
    """max |got - want| over max |want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestPredictor:
    def test_zero_coefficients(self):
        W = sample_weights(SPEC, 4, 10, seed=0)
        pred = Predictor(W=W, a=np.zeros(10), spec=SPEC)
        X = np.ones((5, 4))
        np.testing.assert_array_equal(pred.predict(X), np.zeros(5))

    def test_single_feature(self):
        # N = 1, a = N: prediction is exactly the mean feature of w_1.
        d = 3
        W = np.zeros((1, d))
        W[0, 0] = 1.0
        pred = Predictor(W=W, a=np.array([1.0]), spec=SPEC)
        x = np.array([[2.0, 0.0, 0.0]])
        assert pred.predict(x)[0] == pytest.approx(2.0)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(1)
        W = sample_weights(SPEC, 5, 30, seed=1)
        a1, a2 = rng.standard_normal(30), rng.standard_normal(30)
        X = rng.standard_normal((20, 5))
        models = [Predictor(W=W, a=a, spec=SPEC) for a in (a1, a2, a1 + a2)]
        # Exact on the float64 slow path; the float32 pass stays within 1e-6.
        p1, p2, p12 = (_predict_float64(m, X) for m in models)
        np.testing.assert_allclose(p12, p1 + p2, atol=1e-12)
        for m, slow in zip(models, (p1, p2, p12)):
            assert _rel_gap(m.predict(X), slow) <= 1e-6

    def test_coefficient_matrix_predicts_each_column(self, monkeypatch):
        # 16-row chunks, so the 50 test rows span four of them.
        import mci.features as features

        monkeypatch.setattr(features, "BLOCK_ENTRIES", 16 * 30)
        monkeypatch.setattr(features, "MIN_CHUNK_ROWS", 16)
        rng = np.random.default_rng(3)
        W = sample_weights(SPEC, 5, 30, seed=3)
        A = rng.standard_normal((30, 4))
        X = rng.standard_normal((50, 5))
        model = Predictor(W=W, a=A, spec=SPEC)
        values = _predict_float64(model, X)
        assert values.shape == (50, 4)
        for k in range(4):
            column = _predict_float64(Predictor(W=W, a=A[:, k], spec=SPEC), X)
            np.testing.assert_allclose(values[:, k], column, rtol=1e-12, atol=1e-14)
        fast = model.predict(X)
        assert fast.shape == (50, 4) and fast.dtype == np.float64
        assert _rel_gap(fast, values) <= 1e-6

    @pytest.mark.parametrize("shape", [(), (29,), (31, 2), (30, 2, 1)])
    def test_coefficients_of_wrong_shape_rejected(self, shape):
        W = sample_weights(SPEC, 5, 30, seed=3)
        with pytest.raises(ValueError, match="are inconsistent"):
            Predictor(W=W, a=np.zeros(shape), spec=SPEC)

    def test_callable_predictors_supported(self):
        out = predict(lambda X: X[:, 0], np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0])

    def test_value_vector_passes_through(self):
        values = np.array([0.5, -1.0, 2.0])
        assert predict(values, np.zeros((3, 2))) is values

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_value_vector_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="do not match 3 test rows"):
            predict(np.zeros(shape), np.zeros((3, 2)))

    def test_value_vector_matches_predictor_in_evaluation(self):
        ds = _ds(4)
        W = sample_weights(SPEC, 4, 40, seed=2)
        pred = Predictor(W=W, a=np.linspace(-1.0, 1.0, 40), spec=SPEC)
        values = pred.predict(sample_covariates(ds, 500, 9))
        assert mse_vs_target(values, ds, 500, seed=9) == mse_vs_target(pred, ds, 500, seed=9)
        zero = Predictor(W=W, a=np.zeros(40), spec=SPEC)
        assert l2_distance(values, zero, ds, 500, seed=9) == l2_distance(pred, zero, ds, 500, seed=9)
        with pytest.raises(ValueError, match="do not match 600 test rows"):
            mse_vs_target(values, ds, 600, seed=9)

    def test_package_attribute_is_the_module(self):
        import inspect

        import mci
        import mci.predict as module

        assert inspect.ismodule(module) and module is mci.predict
        assert module.predict is predict


class TestFloat32Pass:
    # `Predictor.predict` runs sigma(X W^T) a in float32 chunks and returns
    # float64 values within 1e-6 (of the largest value) of the float64 slow path.
    @pytest.mark.parametrize("activation", ["relu", "truncated_relu", "identity"])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_matches_the_float64_slow_path(self, monkeypatch, activation, columns):
        import mci.features as features

        # 64-row chunks, so the 600 test rows run as ten, the last one partial.
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 64 * 512)
        monkeypatch.setattr(features, "MIN_CHUNK_ROWS", 64)
        spec = FeatureSpec(activation=activation)
        W = sample_weights(spec, 30, 512, seed=5)
        a = np.random.default_rng(6).standard_normal((512,) if columns is None else (512, columns))
        X = sample_covariates(_ds(30), 600, seed=7)
        model = Predictor(W=W, a=a, spec=spec)
        slow = _predict_float64(model, X)
        dtypes, mean_features = [], features.mean_features

        def record(spec, X, W):
            F = mean_features(spec, X, W)
            dtypes.append(F.dtype)
            return F

        monkeypatch.setattr(features, "mean_features", record)
        fast = model.predict(X)
        assert dtypes == [np.float32] * 10
        assert fast.dtype == np.float64 and fast.shape == slow.shape
        assert _rel_gap(fast, slow) <= 1e-6


class TestSupportPass:
    # `Predictor.predict` drops the rows of `a` that are zero in every column,
    # with their weights, and still divides by the full width N.
    @pytest.mark.parametrize("columns", [None, 2])
    def test_rows_off_the_support_are_never_read(self, columns):
        # A p = 1 model's shape: 150 nonzeros among 4096 rows.  The weights
        # off the support are nan, so any read of them would show.
        rng = np.random.default_rng(11)
        W = sample_weights(SPEC, 30, 4096, seed=11)
        a = np.zeros((4096,) if columns is None else (4096, columns))
        support = rng.choice(4096, size=150, replace=False)
        a[support] = rng.standard_normal((150,) + a.shape[1:])
        X = sample_covariates(_ds(30), 500, seed=12)
        dense = _predict_float64(Predictor(W=W, a=a, spec=SPEC), X)
        W_nan = np.full_like(W, np.nan)
        W_nan[support] = W[support]
        got = Predictor(W=W_nan, a=a, spec=SPEC).predict(X)
        assert np.all(np.isfinite(got)) and got.shape == dense.shape
        assert _rel_gap(got, dense) <= 1e-6

    @pytest.mark.parametrize("shape", [(64,), (64, 3)])
    def test_all_zero_coefficients_predict_zeros(self, shape):
        W = np.full((64, 5), np.nan)
        got = Predictor(W=W, a=np.zeros(shape), spec=SPEC).predict(np.ones((7, 5)))
        np.testing.assert_array_equal(got, np.zeros((7,) + shape[1:]))

    def test_divisor_is_the_full_width(self):
        # One nonzero coefficient at row j of N = 40: f(x) = a_j relu(<x, w_j>) / 40.
        W = sample_weights(SPEC, 5, 40, seed=4)
        a = np.zeros(40)
        a[17] = 3.0
        X = sample_covariates(_ds(5), 200, seed=5)
        want = 3.0 * np.maximum(X @ W[17], 0.0) / 40
        assert _rel_gap(Predictor(W=W, a=a, spec=SPEC).predict(X), want) <= 1e-6

    def test_stacked_columns_match_single_passes(self):
        # Two dense 16,384-row models, as the references of two p > 1.
        rng = np.random.default_rng(8)
        W = sample_weights(SPEC, 30, 16_384, seed=8)
        A = rng.standard_normal((16_384, 2))
        X = sample_covariates(_ds(30), 300, seed=9)
        stacked = Predictor(W=W, a=A, spec=SPEC).predict(X)
        for k in range(2):
            single = Predictor(W=W, a=A[:, k], spec=SPEC).predict(X)
            assert _rel_gap(stacked[:, k], single) <= 1e-6


class TestKernelInterpolant:
    def test_identity_kernel_coeffs(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        from mci.features import Instance

        inst = Instance(X=np.zeros((4, 6)), y=np.array([1.0, -2.0, 0.5, 3.0]))
        oracle = kernel_matrix(spec, inst.X, method="latent_linear")  # K = I
        kp = kernel_interpolant(oracle, inst.y)
        np.testing.assert_allclose(kp.coeffs, inst.y, atol=1e-12)

    def test_interpolates_training_rows_arc_cosine(self):
        ds = _ds(6)
        inst = sample_data(ds, 25, seed=2)
        oracle = kernel_matrix(SPEC, inst.X, method="arc_cosine")
        kp = kernel_interpolant(oracle, inst.y)
        residual = np.linalg.norm(kp.predict(inst.X) - inst.y)
        assert residual <= 1e-8 * np.linalg.norm(inst.y)

    def test_interpolates_training_rows_latent(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        rng = np.random.default_rng(3)
        from mci.features import Instance

        X = rng.standard_normal((30, 10))
        inst = Instance(X=X, y=rng.standard_normal(30))
        oracle = kernel_matrix(spec, X, method="latent_linear")
        kp = kernel_interpolant(oracle, inst.y)
        residual = np.linalg.norm(kp.predict(X) - inst.y)
        assert residual <= 1e-8 * np.linalg.norm(inst.y)


class TestL2Distance:
    def test_identical_predictors(self):
        W = sample_weights(SPEC, 4, 10, seed=4)
        pred = Predictor(W=W, a=np.ones(10), spec=SPEC)
        est, se = l2_distance(pred, pred, _ds(4), 500, seed=0)
        assert est == 0.0 and se == 0.0

    def test_linear_functional_norm(self):
        # ||<c, .>||_{L2} = ||c|| for isotropic x (E x x^T = I on the sphere).
        d = 10
        rng = np.random.default_rng(5)
        c = rng.standard_normal(d)
        est, se = l2_distance(lambda X: np.zeros(len(X)), lambda X: X @ c, _ds(d), 50_000, seed=6)
        assert abs(est - np.linalg.norm(c)) <= 3 * se + 1e-12

    def test_seed_consistency(self):
        d = 6
        c = np.ones(d)
        f = lambda X: X @ c  # noqa: E731
        g = lambda X: np.zeros(len(X))  # noqa: E731
        e1, s1 = l2_distance(f, g, _ds(d), 40_000, seed=1)
        e2, s2 = l2_distance(f, g, _ds(d), 40_000, seed=2)
        assert abs(e1 - e2) <= 6 * max(s1, s2)

    def test_triangle_inequality(self):
        d = 5
        rng = np.random.default_rng(7)
        preds = [
            Predictor(W=sample_weights(SPEC, d, 20, seed=k), a=rng.standard_normal(20), spec=SPEC)
            for k in range(3)
        ]
        ds = _ds(d)
        dab, sab = l2_distance(preds[0], preds[1], ds, 20_000, seed=8)
        dbc, sbc = l2_distance(preds[1], preds[2], ds, 20_000, seed=8)
        dac, sac = l2_distance(preds[0], preds[2], ds, 20_000, seed=8)
        assert dac <= dab + dbc + 3 * (sab + sbc + sac)

    def test_invalid_m(self):
        with pytest.raises(ValueError, match="at least 100 Monte Carlo points"):
            l2_distance(lambda X: X[:, 0], lambda X: X[:, 0], _ds(3), 10, seed=0)


class TestTestError:
    def test_exact_target_zero_error(self):
        d = 8
        ds = _ds(d, seed=9)
        assert mse_vs_target(ds.target, ds, 5_000, seed=1) == 0.0

    def test_zero_predictor_error_is_half(self):
        # E[relu(<w*, x>)^2] = E[g^2 1{g>0}] = 1/2 exactly by symmetry of g.
        d = 30
        ds = _ds(d, seed=10)
        err = mse_vs_target(lambda X: np.zeros(len(X)), ds, 200_000, seed=2)
        assert err == pytest.approx(0.5, abs=0.02)

    def test_monte_carlo_scale(self):
        # Spread across seeds shrinks like 1/sqrt(M).
        d = 6
        ds = _ds(d, seed=11)
        f = lambda X: np.zeros(len(X))  # noqa: E731
        spreads = []
        for M in (1_000, 100_000):
            vals = [mse_vs_target(f, ds, M, seed=s) for s in range(8)]
            spreads.append(np.std(vals))
        assert spreads[1] < spreads[0]

    def test_no_target(self):
        ds = DataSpec(d=4, target=None)
        with pytest.raises(ValueError, match="requires a ridge target"):
            mse_vs_target(lambda X: X[:, 0], ds, 1_000, seed=0)


class TestPassedTestBatch:
    def test_scores_are_bitwise_those_of_a_fresh_draw(self):
        ds = _ds(6, seed=13)
        f = lambda X: np.sin(X[:, 0])  # noqa: E731
        g = lambda X: X[:, 1]  # noqa: E731
        X = sample_covariates(ds, 2_000, 5)
        assert mse_vs_target(f, ds, 2_000, 5, X, ds.target(X)) == mse_vs_target(f, ds, 2_000, 5)
        assert mse_vs_target(f, ds, 2_000, 5, X) == mse_vs_target(f, ds, 2_000, 5)
        assert l2_distance(f, g, ds, 2_000, 5, X) == l2_distance(f, g, ds, 2_000, 5)

    @pytest.mark.parametrize("shape", [(1_999, 6), (2_000, 5)])
    def test_batch_of_wrong_shape_rejected(self, shape):
        ds = _ds(6, seed=13)
        X = np.zeros(shape)
        with pytest.raises(ValueError, match=r"is not \(2000, 6\)"):
            mse_vs_target(lambda X: X[:, 0], ds, 2_000, 5, X)
        with pytest.raises(ValueError, match=r"is not \(2000, 6\)"):
            l2_distance(lambda X: X[:, 0], lambda X: X[:, 0], ds, 2_000, 5, X)

    def test_target_values_of_wrong_length_rejected(self):
        ds = _ds(6, seed=13)
        X = sample_covariates(ds, 2_000, 5)
        with pytest.raises(ValueError, match="do not match 2000 test rows"):
            mse_vs_target(lambda X: X[:, 0], ds, 2_000, 5, X, np.zeros(1))


class TestKernelPredictorType:
    def test_fields(self):
        ds = _ds(5)
        inst = sample_data(ds, 10, seed=12)
        oracle = kernel_matrix(SPEC, inst.X, method="arc_cosine")
        kp = kernel_interpolant(oracle, inst.y)
        assert isinstance(kp, KernelPredictor)
        assert kp.coeffs.shape == (10,)
        assert kp.kernel is oracle

    def test_fields_are_what_predict_reads(self):
        assert [f.name for f in fields(KernelPredictor)] == ["kernel", "coeffs"]

    def test_y_must_match_the_oracle(self):
        inst = sample_data(_ds(5), 10, seed=12)
        oracle = kernel_matrix(SPEC, inst.X, method="arc_cosine")
        for y in (inst.y[:9], inst.y[:, None]):
            with pytest.raises(ValueError, match=r"expected \(10,\)"):
                kernel_interpolant(oracle, y)
