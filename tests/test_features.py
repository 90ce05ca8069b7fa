"""Feature maps, sampling, kernel oracles, whitening."""

import numpy as np
import pytest
import scipy.stats

import mci.features as features
from mci.features import (
    DataSpec,
    FeatureSpec,
    Instance,
    RidgeTarget,
    apply_activation,
    featurize,
    kernel_matrix,
    mean_features,
    sample_covariates,
    sample_data,
    sample_weights,
    whiten,
)
from mci.seeding import row_rng

RELU_GAUSS = FeatureSpec(activation="relu", weight_dist="gaussian_isotropic")


class TestSampleWeights:
    def test_gaussian_variance(self):
        W = sample_weights(RELU_GAUSS, 4, 100_000, seed=1)
        assert W.shape == (100_000, 4)
        np.testing.assert_allclose(W.var(axis=0), 0.25, rtol=0.02)

    def test_sphere_norms(self):
        spec = FeatureSpec(weight_dist="uniform_sphere")
        W = sample_weights(spec, 10, 100, seed=7)
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, atol=1e-12)

    def test_invalid_dims(self):
        with pytest.raises(ValueError, match="N=0, d=4"):
            sample_weights(RELU_GAUSS, 4, 0, seed=0)
        with pytest.raises(ValueError, match="N=4, d=0"):
            sample_weights(RELU_GAUSS, 0, 4, seed=0)

    def test_deterministic(self):
        a = sample_weights(RELU_GAUSS, 6, 50, seed=3)
        b = sample_weights(RELU_GAUSS, 6, 50, seed=3)
        assert np.array_equal(a, b)
        c = sample_weights(RELU_GAUSS, 6, 50, seed=4)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("weight_dist", ["gaussian_isotropic", "uniform_sphere"])
    def test_prefix_of_widest_draw(self, weight_dist):
        # The sweep engine draws once at the largest width and slices each width.
        spec = FeatureSpec(weight_dist=weight_dist)
        W_max = sample_weights(spec, 7, 1024, seed=5)
        for N in (1, 3, 64, 1000, 1024):
            np.testing.assert_array_equal(sample_weights(spec, 7, N, seed=5), W_max[:N])


class TestFeaturize:
    def test_relu_negative(self):
        X = np.array([[1.0, 0.0]])
        W = np.array([[-2.0, 0.0]])
        assert featurize(RELU_GAUSS, X, W)[0, 0] == 0.0

    def test_truncated_relu_clamp(self):
        spec = FeatureSpec(activation="truncated_relu")
        X = np.array([[3.0, 0.0]])
        W = np.array([[1.0, 0.0]])
        assert featurize(spec, X, W)[0, 0] == 1.0

    def test_identity_exact(self):
        spec = FeatureSpec(activation="identity")
        rng = np.random.default_rng(0)
        X, W = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        np.testing.assert_array_equal(featurize(spec, X, W), X @ W.T)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="are not compatible"):
            featurize(RELU_GAUSS, np.zeros((2, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("activation", ["relu", "truncated_relu", "identity", np.tanh])
    def test_in_place_activation_is_apply_activation(self, activation):
        # The activation overwrites the fresh product X W^T, never X or W.
        spec = FeatureSpec(activation=activation)
        rng = np.random.default_rng(8)
        X, W = 2.0 * rng.standard_normal((40, 6)), rng.standard_normal((30, 6))
        X0, W0 = X.copy(), W.copy()
        expected = apply_activation(activation, X @ W.T)
        np.testing.assert_array_equal(mean_features(spec, X, W), expected)
        np.testing.assert_array_equal(featurize(spec, X, W), expected)
        np.testing.assert_array_equal(X, X0)
        np.testing.assert_array_equal(W, W0)

    def test_noise_variance_chi2(self):
        # Entries of Phi - mean are i.i.d. N(0, gamma^2): chi^2 test at 99%.
        gamma = 0.7
        spec = FeatureSpec(activation="relu", noise_gamma=gamma)
        rng = np.random.default_rng(5)
        X, W = rng.standard_normal((100, 4)), rng.standard_normal((100, 4))
        Phi = featurize(spec, X, W, seed=11)
        Z = Phi - mean_features(spec, X, W)
        stat = np.sum((Z / gamma) ** 2)
        dof = Z.size
        lo, hi = scipy.stats.chi2.ppf([0.005, 0.995], dof)
        assert lo <= stat <= hi

    def test_noise_free_returns_no_noise_matrix(self):
        rng = np.random.default_rng(3)
        X, W = rng.standard_normal((5, 3)), rng.standard_normal((6, 3))
        Phi, Z = featurize(RELU_GAUSS, X, W, seed=1, return_noise=True)
        assert Z is None
        np.testing.assert_array_equal(Phi, featurize(RELU_GAUSS, X, W, seed=1))

    def test_noise_deterministic_per_seed(self):
        spec = FeatureSpec(activation="relu", noise_gamma=1.0)
        rng = np.random.default_rng(2)
        X, W = rng.standard_normal((5, 3)), rng.standard_normal((6, 3))
        assert np.array_equal(featurize(spec, X, W, seed=1), featurize(spec, X, W, seed=1))
        assert not np.array_equal(featurize(spec, X, W, seed=1), featurize(spec, X, W, seed=2))


class TestNoisyFeaturizeInPlace:
    """The noise is added to Phi in place, row by row as drawn, and kept only
    when it is returned; the slow path is sigma(X W^T) + Z with Z drawn whole."""

    SPEC = FeatureSpec(activation="relu", noise_gamma=0.7)

    @staticmethod
    def _noise_matrix(gamma, n, N, seed):
        # The noise stream drawn whole: row i from row_rng(seed, i, "noise").
        return np.stack([row_rng(seed, i, "noise").normal(0.0, gamma, size=N) for i in range(n)])

    def test_bitwise_equal_to_adding_the_drawn_matrix(self):
        rng = np.random.default_rng(8)
        X, W = rng.standard_normal((9, 4)), rng.standard_normal((300, 4))
        Z_slow = self._noise_matrix(0.7, 9, 300, 3)
        slow = mean_features(self.SPEC, X, W) + Z_slow
        np.testing.assert_array_equal(featurize(self.SPEC, X, W, seed=3), slow)
        Phi, Z = featurize(self.SPEC, X, W, seed=3, return_noise=True)
        np.testing.assert_array_equal(Phi, slow)
        np.testing.assert_array_equal(Z, Z_slow)

    def test_peak_memory(self):
        # 150 x 20,000 features are 24 MB; Phi = Phi + Z held three such
        # arrays (73.2 MB traced).
        import tracemalloc

        rng = np.random.default_rng(9)
        X, W = rng.standard_normal((150, 30)), rng.standard_normal((20_000, 30))
        for return_noise, limit in ((False, 26e6), (True, 50e6)):
            tracemalloc.start()
            try:
                featurize(self.SPEC, X, W, seed=1, return_noise=return_noise)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, f"return_noise={return_noise}: peak {peak / 1e6:.1f} MB"


class TestMeanFeature:
    # One covariate row against one weight row: the 1 x 1 batch.
    def test_relu(self):
        assert mean_features(RELU_GAUSS, np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]])) == 2.0

    def test_identity_ignores_noise(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        x, w = np.array([1.5, -2.0]), np.array([0.5, 1.0])
        assert mean_features(spec, x[None], w[None])[0, 0] == pytest.approx(x @ w)

    def test_truncated_interior(self):
        spec = FeatureSpec(activation="truncated_relu")
        assert mean_features(spec, np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]])) == 0.5


class TestMeanFeatureDtype:
    # float32 X and W give a float32 product; any other input runs in float64,
    # bitwise as the float64 formula.  A custom activation returns float64.
    FORMULAS = {
        "relu": lambda U: np.maximum(U, 0.0),
        "truncated_relu": lambda U: np.clip(U, 0.0, 1.0),
        "identity": lambda U: U,
        np.tanh: np.tanh,
    }

    @pytest.mark.parametrize("activation", list(FORMULAS))
    @pytest.mark.parametrize("x32, w32", [(False, False), (True, False), (False, True), (True, True)])
    def test_dtype_follows_the_inputs(self, activation, x32, w32):
        rng = np.random.default_rng(12)
        X, W = 2.0 * rng.standard_normal((40, 6)), rng.standard_normal((30, 6)) / np.sqrt(6)
        X, W = X.astype(np.float32) if x32 else X, W.astype(np.float32) if w32 else W
        got = mean_features(FeatureSpec(activation=activation), X, W)
        in_float32 = x32 and w32
        assert got.dtype == (np.float32 if in_float32 and not callable(activation) else np.float64)
        U = X @ W.T if in_float32 else X.astype(np.float64) @ W.astype(np.float64).T
        np.testing.assert_array_equal(got, self.FORMULAS[activation](U).astype(got.dtype))

    def test_identity_activation_keeps_float32_and_casts_the_rest(self):
        u32 = np.array([1.5, -2.0], dtype=np.float32)
        assert apply_activation("identity", u32) is u32
        u64 = np.array([1.5, -2.0])
        assert apply_activation("identity", u64) is u64
        ints = apply_activation("identity", np.array([1, -2]))
        assert ints.dtype == np.float64 and ints.tolist() == [1.0, -2.0]


class TestSampleData:
    def test_sphere_radius(self):
        ds = DataSpec(d=30, target=RidgeTarget.random(30, 0))
        inst = sample_data(ds, 150, seed=4)
        np.testing.assert_allclose(np.linalg.norm(inst.X, axis=1), np.sqrt(30), atol=1e-10)

    def test_ridge_values(self):
        d = 6
        w_star = np.zeros(d)
        w_star[0] = 1.0
        ds = DataSpec(d=d, target=RidgeTarget(w_star=w_star, activation="relu"))
        X = np.zeros((2, d))
        X[0, 0] = np.sqrt(d)
        X[1, 0] = -1.0
        y = ds.target(X)
        assert y[0] == pytest.approx(np.sqrt(d))
        assert y[1] == 0.0

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            RidgeTarget(w_star=np.array([1.0, 1.0]))

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="X has 3 rows but y has 4 entries"):
            Instance(X=np.zeros((3, 2)), y=np.zeros(4))
        with pytest.raises(ValueError):
            Instance(X=np.full((2, 2), np.nan), y=np.zeros(2))

    def test_custom_covariate_sampler(self):
        # Bounded (hence sub-Gaussian) design via a user-supplied sampler.
        ds = DataSpec(d=3, covariate_dist=lambda rng, n, d: rng.uniform(-1, 1, (n, d)))
        X = sample_covariates(ds, 50, seed=1)
        assert X.shape == (50, 3) and np.all(np.abs(X) <= 1)
        bad = DataSpec(d=3, covariate_dist=lambda rng, n, d: np.zeros((n, d + 1)))
        with pytest.raises(ValueError, match="custom sampler returned shape"):
            sample_covariates(bad, 10, seed=1)


class TestKernelMatrix:
    def test_arc_cosine_diagonal(self):
        # ||x|| = sqrt(d) makes <x, w> standard normal: E[relu(g)^2] = 1/2.
        ds = DataSpec(d=7, target=RidgeTarget.random(7, 0))
        inst = sample_data(ds, 5, seed=1)
        oracle = kernel_matrix(RELU_GAUSS, inst.X, method="arc_cosine")
        np.testing.assert_allclose(oracle.K.diagonal(), 0.5, atol=1e-12)

    def test_arc_cosine_identical_points(self):
        X = np.vstack([np.ones(4), np.ones(4)])
        oracle = kernel_matrix(RELU_GAUSS, X, method="arc_cosine")
        assert oracle.K[0, 1] == pytest.approx(oracle.K[0, 0])

    def test_arc_cosine_vs_monte_carlo(self):
        ds = DataSpec(d=5, target=RidgeTarget.random(5, 0))
        inst = sample_data(ds, 10, seed=2)
        exact = kernel_matrix(RELU_GAUSS, inst.X, method="arc_cosine")
        mc = kernel_matrix(RELU_GAUSS, inst.X, method="monte_carlo", mc_samples=200_000, seed=9)
        gap = np.abs(mc.K - exact.K)
        assert np.all(gap <= 4.0 * mc.mc_stderr + 1e-12)

    def test_latent_closed_form(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 4))
        oracle = kernel_matrix(spec, X, method="latent_linear")
        np.testing.assert_allclose(oracle.K, X @ X.T / 4 + np.eye(8), atol=1e-12)

    def test_incompatible_method(self):
        spec = FeatureSpec(activation="identity")
        with pytest.raises(ValueError, match="needs relu \\+ gaussian weights"):
            kernel_matrix(spec, np.eye(3), method="arc_cosine")
        with pytest.raises(ValueError, match="needs the identity activation"):
            kernel_matrix(RELU_GAUSS, np.eye(3), method="latent_linear")

    def test_symmetric_psd_after_floor(self):
        ds = DataSpec(d=4, target=RidgeTarget.random(4, 0))
        inst = sample_data(ds, 12, seed=5)
        oracle = kernel_matrix(RELU_GAUSS, inst.X, method="monte_carlo", mc_samples=2_000, seed=1)
        assert np.max(np.abs(oracle.K - oracle.K.T)) <= 1e-12
        assert np.all(np.maximum(oracle.evals, oracle.floor_used) > 0)

    def test_monte_carlo_cross_kernel(self):
        # Fresh-weight cross kernel at the training rows approximates the
        # training kernel itself.
        ds = DataSpec(d=4, target=RidgeTarget.random(4, 0))
        inst = sample_data(ds, 8, seed=9)
        oracle = kernel_matrix(RELU_GAUSS, inst.X, method="monte_carlo",
                               mc_samples=100_000, seed=3)
        cross = oracle.cross(inst.X)
        assert cross.shape == (8, 8)
        assert np.max(np.abs(cross - oracle.K)) <= 0.01

    def test_monte_carlo_cross_kernel_in_row_chunks(self, monkeypatch):
        # The test rows are filled a chunk at a time against one weight draw.
        # A 3-row chunk size falls under the row floor, so the 300 rows run as
        # 128 + 128 + 44 (the last one partial) and match a single block.
        ds = DataSpec(d=4, target=RidgeTarget.random(4, 0))
        inst = sample_data(ds, 8, seed=9)
        oracle = kernel_matrix(RELU_GAUSS, inst.X, method="monte_carlo", mc_samples=5_000, seed=3)
        X_test = sample_covariates(ds, 300, seed=4)
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 300 * 5_000)
        whole = oracle.mean_cross(X_test)
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 3 * 5_000)
        rows, mean_features_ = [], features.mean_features

        def record(spec, X, W):
            rows.append(X.shape[0])
            return mean_features_(spec, X, W)

        monkeypatch.setattr(features, "mean_features", record)
        chunked = oracle.mean_cross(X_test)
        assert rows == [8, 128, 128, 44]  # the training rows, then the test chunks
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0)

    def test_cross_kernel_noise_on_identical_rows_only(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 3))
        oracle = kernel_matrix(spec, X, method="latent_linear")
        same = oracle.cross(X)
        np.testing.assert_allclose(same, oracle.K, atol=1e-12)
        fresh = oracle.cross(X + 1e-9)  # perturbed rows share no noise
        np.testing.assert_allclose(fresh, X @ X.T / 3, atol=1e-6)

    @pytest.mark.parametrize("spec, method", [
        (RELU_GAUSS, "arc_cosine"),
        (FeatureSpec(activation="identity", noise_gamma=1.0), "latent_linear"),
        (FeatureSpec(activation="truncated_relu", noise_gamma=0.5), "monte_carlo"),
    ])
    def test_cross_kernel_and_interpolant_stay_float64(self, spec, method):
        # K^{-1} amplifies rounding in the cross kernel, so the kernel reference
        # stays float64: bitwise the float64 formula, identical test rows
        # carrying gamma^2.
        from mci.predict import kernel_interpolant
        from mci.seeding import rng_from

        ds = DataSpec(d=5, target=RidgeTarget.random(5, 0))
        inst = sample_data(ds, 12, seed=1)
        oracle = kernel_matrix(spec, inst.X, method=method, mc_samples=3_000, seed=4)
        X_test = np.vstack([sample_covariates(ds, 40, seed=2), inst.X[:3]])
        if method == "arc_cosine":
            mean_cross = _whole_arc_cosine_kernel(X_test, inst.X)
        elif method == "latent_linear":
            mean_cross = X_test @ inst.X.T / 5
        else:
            W = features._draw_weights(spec, 5, 3_000, rng_from(4, "cross"))
            mean_cross = (np.clip(X_test @ W.T, 0.0, 1.0)
                          @ np.clip(inst.X @ W.T, 0.0, 1.0).T / 3_000)
        cross = mean_cross.copy()
        cross[40 + np.arange(3), np.arange(3)] += spec.noise_gamma**2
        got = oracle.mean_cross(X_test)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, mean_cross)
        np.testing.assert_array_equal(oracle.cross(X_test), cross)
        ref = kernel_interpolant(oracle, inst.y)
        np.testing.assert_array_equal(ref.predict(X_test), cross @ ref.coeffs)

    def test_inv_sqrt_inverts_on_unfloored_space(self):
        ds = DataSpec(d=5, target=RidgeTarget.random(5, 0))
        inst = sample_data(ds, 6, seed=6)
        oracle = kernel_matrix(RELU_GAUSS, inst.X, method="arc_cosine")
        M = oracle.inv_sqrt @ oracle.K @ oracle.inv_sqrt
        keep = oracle.evals > oracle.floor_used
        V = oracle.evecs[:, keep]
        np.testing.assert_allclose(V.T @ M @ V, np.eye(keep.sum()), atol=1e-8)


def _whole_arc_cosine_kernel(A, B):
    """The arc-cosine kernel as one whole-matrix formula (five to seven M x n
    temporaries at once): the slow path of the row-blocked one."""
    d = A.shape[1]
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    denom = np.outer(na, nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0, (A @ B.T) / denom, 0.0)
    cos = np.clip(cos, -1.0, 1.0)
    theta = np.arccos(cos)
    return denom / (2.0 * np.pi * d) * (np.sin(theta) + (np.pi - theta) * cos)


class TestRowBlockedArcCosine:
    @staticmethod
    def _rows(seed):
        """150 training rows and 20,000 test rows (not a multiple of the
        1747-row block) with zero rows and colinear and antipodal pairs."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((150, 30))
        X[3] = 0.0
        X[5], X[6] = 2.5 * X[4], -X[4]
        T = rng.standard_normal((20_000, 30))
        T[0] = 0.0
        T[1], T[2], T[3] = X[4], -3.0 * X[4], X[7]
        return X, T

    @pytest.mark.parametrize("block_entries", [None, 150 * 7])
    def test_bitwise_equal_to_the_whole_formula(self, monkeypatch, block_entries):
        if block_entries is not None:
            monkeypatch.setattr(features, "BLOCK_ENTRIES", block_entries)
        X, T = self._rows(4)
        np.testing.assert_array_equal(features._arc_cosine_kernel(T, X), _whole_arc_cosine_kernel(T, X))

    def test_training_kernel_bitwise_within_one_block(self):
        # numpy forms X X^T as a SYRK; 150 training rows fit one block, so
        # the blocked kernel takes the same product.
        X, _ = self._rows(4)
        np.testing.assert_array_equal(features._arc_cosine_kernel(X, X), _whole_arc_cosine_kernel(X, X))

    def test_kernel_matrix_and_cross_kernel(self):
        X, T = self._rows(5)
        oracle = kernel_matrix(RELU_GAUSS, X, method="arc_cosine")
        K = _whole_arc_cosine_kernel(X, X)
        np.testing.assert_array_equal(oracle.K, 0.5 * (K + K.T))
        np.testing.assert_array_equal(oracle.cross(T[:3000]), _whole_arc_cosine_kernel(T[:3000], X))

    def test_peak_memory(self):
        # 5000 x 150 outputs are 6 MB: the whole formula held 34.4 MB, the
        # blocked one holds the output and three 2 MB blocks.
        import tracemalloc

        X, T = self._rows(6)
        tracemalloc.start()
        try:
            features._arc_cosine_kernel(T[:5000], X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17e6, f"peak {peak / 1e6:.1f} MB"


class TestWhiten:
    def test_identity_kernel(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        X = np.zeros((3, 5))  # K = gamma^2 I = I
        oracle = kernel_matrix(spec, X, method="latent_linear")
        Phi = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(whiten(oracle, Phi), Phi, atol=1e-10)

    def test_scaled_identity(self):
        spec = FeatureSpec(activation="identity", noise_gamma=2.0)
        X = np.zeros((3, 5))  # K = 4 I
        oracle = kernel_matrix(spec, X, method="latent_linear")
        Phi = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(whiten(oracle, Phi), Phi / 2, atol=1e-10)

    def test_latent_whitened_covariance_is_isotropic(self):
        # Whitened latent features are exactly N(0, I): empirical covariance
        # over 1e5 draws is within 0.1 of the identity in operator norm.
        n, d, M = 20, 5, 100_000
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((n, d))
        oracle = kernel_matrix(spec, X, method="latent_linear")
        W = rng.standard_normal((M, d))  # samples of w (unit covariance /d scale)
        Phi = featurize(spec, X, W / np.sqrt(d), seed=13)
        Psi = whiten(oracle, Phi)
        cov = Psi @ Psi.T / M
        assert np.linalg.norm(cov - np.eye(n), ord=2) <= 0.1

    def test_dim_mismatch(self):
        spec = FeatureSpec(activation="identity", noise_gamma=1.0)
        oracle = kernel_matrix(spec, np.zeros((3, 5)), method="latent_linear")
        with pytest.raises(ValueError, match="oracle expects 3"):
            whiten(oracle, np.zeros((4, 2)))
