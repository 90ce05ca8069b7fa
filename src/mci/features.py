"""Featurization maps, weight/data sampling, and empirical kernel machinery.

A feature map phi(x; w, z) = sigma(<x, w>) + z pairs an activation sigma with
a weight distribution for w and optional additive Gaussian noise z of standard
deviation gamma.  Prediction always uses the mean feature sigma(<x, w>) (noise
integrated out).  The empirical kernel matrix K = E_{w,z}[phi_n phi_n^T] over
the training rows supports whitening (K^{-1/2} phi) and the exact-fit kernel
predictor used as the width->infinity reference in the quadratic case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import NumericalFailure
from .seeding import rng_from, row_rng

RELU = "relu"
TRUNCATED_RELU = "truncated_relu"
IDENTITY = "identity"

GAUSSIAN_ISOTROPIC = "gaussian_isotropic"  # w ~ N(0, I/d)
UNIFORM_SPHERE = "uniform_sphere"  # ||w|| = 1

MONTE_CARLO = "monte_carlo"
ARC_COSINE = "arc_cosine"
LATENT_LINEAR = "latent_linear"

UNIFORM_SPHERE_SQRT_D = "uniform_sphere_sqrt_d"  # ||x|| = sqrt(d)

# Relative eigenvalue floor applied inside K^{-1/2}: Monte Carlo kernel
# estimates can be numerically rank deficient even when the population kernel
# is strictly positive.
KERNEL_EIG_FLOOR = 1e-10
# MC eigenvalues below -NEG_EIG_TOL * lambda_max indicate a broken estimate.
NEG_EIG_TOL = 1e-8

DEFAULT_MC_SAMPLES = 100_000

# Scratch arrays of the size of a data matrix (the Newton curvature's scaled
# copy of Phi, the arc-cosine kernel's temporaries, the audit's row-wise moment
# passes) are built a block of about this many entries (2 MB at float64) at a
# time.  On the scaling benchmark, blocks of 2^16 / 2^18 / 2^19 / 2^20 entries
# peaked at 64.3 / 65.8 / 67.8 / 71.9 MB resident (2 vCPU, OpenBLAS): larger
# fresh blocks churn the heap.
BLOCK_ENTRIES = 2**18
# A mean-feature chunk (test batches, Monte Carlo cross kernels) has
# BLOCK_ENTRIES entries too, but at least this many rows: a wide draw (the
# 100,000-weight cross kernel) would otherwise re-stream its right-hand side
# for every few rows.  Above 2048 columns the floor sets the size: at the
# 16,384-column reference a chunk is 2^21 entries, 16 MB at float64 or 8 MB
# in the float32 product of `Predictor.predict`.
MIN_CHUNK_ROWS = 128

Activation = Union[str, Callable[[np.ndarray], np.ndarray]]


def apply_activation(activation: Activation, u: np.ndarray) -> np.ndarray:
    if callable(activation):
        return np.asarray(activation(u), dtype=np.float64)
    if activation == RELU:
        return np.maximum(u, 0.0)
    if activation == TRUNCATED_RELU:
        return np.clip(u, 0.0, 1.0)
    if activation == IDENTITY:
        u = np.asarray(u)
        return u if u.dtype == np.float32 else u.astype(np.float64, copy=False)
    raise ValueError(f"unknown activation {activation!r}")


def _activate_product(activation: Activation, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sigma(X W^T); a built-in activation overwrites the fresh product in place."""
    U = X @ W.T
    if activation == RELU:
        return np.maximum(U, 0.0, out=U)
    if activation == TRUNCATED_RELU:
        return np.clip(U, 0.0, 1.0, out=U)
    return apply_activation(activation, U)


@dataclass(frozen=True)
class FeatureSpec:
    """Activation + weight distribution + feature-noise level gamma."""

    activation: Activation = RELU
    weight_dist: str = GAUSSIAN_ISOTROPIC
    noise_gamma: float = 0.0

    def __post_init__(self):
        if self.noise_gamma < 0:
            raise ValueError("noise_gamma must be >= 0")
        if self.weight_dist not in (GAUSSIAN_ISOTROPIC, UNIFORM_SPHERE):
            raise ValueError(f"unknown weight distribution {self.weight_dist!r}")
        if callable(self.activation):
            at_zero = float(np.asarray(self.activation(np.zeros(1)))[0])
            if abs(at_zero) > 1e-12:
                raise ValueError("custom activation must satisfy sigma(0) = 0")
        else:
            apply_activation(self.activation, np.zeros(1))


@dataclass(frozen=True)
class Instance:
    """Interpolation constraints: covariate rows X (n x d) and responses y (n)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1:
            raise ValueError("X must be 2-d and y 1-d")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("instance contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class RidgeTarget:
    """Noiseless single-index target y = sigma_star(<w_star, x>), ||w_star|| = 1."""

    w_star: np.ndarray
    activation: Activation = RELU

    def __post_init__(self):
        w = np.asarray(self.w_star, dtype=np.float64)
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("w_star must be a unit vector")
        object.__setattr__(self, "w_star", w)

    @classmethod
    def random(cls, d: int, seed: int, activation: Activation = RELU) -> "RidgeTarget":
        w = rng_from(seed, "data", 99).standard_normal(d)
        return cls(w_star=w / np.linalg.norm(w), activation=activation)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return apply_activation(self.activation, X @ self.w_star)


@dataclass(frozen=True)
class DataSpec:
    """Covariate distribution and (optional) target for synthetic instances.

    `covariate_dist` is either the sqrt(d)-sphere tag or a callable
    (rng, n, d) -> ndarray for custom sub-Gaussian designs.  `target=None`
    marks externally supplied responses.
    """

    d: int
    covariate_dist: Union[str, Callable[[np.random.Generator, int, int], np.ndarray]] = (
        UNIFORM_SPHERE_SQRT_D
    )
    target: RidgeTarget | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _draw_weights(spec: FeatureSpec, d: int, N: int, rng: np.random.Generator) -> np.ndarray:
    W = rng.standard_normal((N, d))
    if spec.weight_dist == GAUSSIAN_ISOTROPIC:
        return W / np.sqrt(d)
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def sample_weights(spec: FeatureSpec, d: int, N: int, seed: int) -> np.ndarray:
    """N i.i.d. weight rows from spec.weight_dist; deterministic given seed."""
    if N < 1 or d < 1:
        raise ValueError(f"need N >= 1 and d >= 1, got N={N}, d={d}")
    return _draw_weights(spec, d, N, rng_from(seed, "weights"))


def sample_covariates(ds: DataSpec, n: int, seed: int) -> np.ndarray:
    """n covariate rows from ds.covariate_dist."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_from(seed, "data")
    if callable(ds.covariate_dist):
        X = np.asarray(ds.covariate_dist(rng, n, ds.d), dtype=np.float64)
        if X.shape != (n, ds.d):
            raise ValueError(f"custom sampler returned shape {X.shape}")
        return X
    if ds.covariate_dist != UNIFORM_SPHERE_SQRT_D:
        raise ValueError(f"unknown covariate distribution {ds.covariate_dist!r}")
    X = rng.standard_normal((n, ds.d))
    X *= np.sqrt(ds.d) / np.linalg.norm(X, axis=1, keepdims=True)
    return X


def sample_data(ds: DataSpec, n: int, seed: int) -> Instance:
    """Sample an instance; responses from the ridge target (noiseless)."""
    if ds.target is None:
        raise ValueError("sample_data requires a ridge target; external y unsupported here")
    X = sample_covariates(ds, n, seed)
    return Instance(X=X, y=ds.target(X))


# ---------------------------------------------------------------------------
# Feature evaluation
# ---------------------------------------------------------------------------

def featurize(
    spec: FeatureSpec,
    X: np.ndarray,
    W: np.ndarray,
    seed: int = 0,
    return_noise: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray | None]:
    """Feature matrix Phi_{ij} = sigma(<x_i, w_j>) + z_ij with z ~ N(0, gamma^2).

    gamma = 0 gives deterministic features.  With `return_noise=True` the
    realized noise matrix is returned alongside Phi (needed by the latent
    diagnostics, where Z enters the residual identity explicitly); it is None
    when gamma = 0.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[1]:
        raise ValueError(f"X {X.shape} and W {W.shape} are not compatible")
    Phi = _activate_product(spec.activation, X, W)
    Z = np.empty_like(Phi) if spec.noise_gamma > 0 and return_noise else None
    if spec.noise_gamma > 0:
        # Each row's noise is added in place as it is drawn, and kept only
        # when it is returned.
        for i in range(X.shape[0]):
            z = row_rng(seed, i, "noise").normal(0.0, spec.noise_gamma, size=W.shape[0])
            Phi[i] += z
            if Z is not None:
                Z[i] = z
    return (Phi, Z) if return_noise else Phi


def mean_features(spec: FeatureSpec, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Batch mean features sigma(X W^T), shape (rows of X) x (rows of W); in
    float32 when X and W are both float32 (a custom activation's output is
    still cast to float64), else in float64."""
    X, W = np.asarray(X), np.asarray(W)
    dtype = np.float32 if X.dtype == W.dtype == np.float32 else np.float64
    X, W = X.astype(dtype, copy=False), W.astype(dtype, copy=False)
    if X.shape[1] != W.shape[1]:
        raise ValueError(f"X {X.shape} and W {W.shape} are not compatible")
    return _activate_product(spec.activation, X, W)


def chunk_rows(columns: int) -> int:
    """Rows per chunk of a mean-feature block with `columns` columns."""
    return max(MIN_CHUNK_ROWS, lines_per_block(columns))


def lines_per_block(width: int) -> int:
    """Rows (or columns) of `width` entries each per scratch block of about
    BLOCK_ENTRIES entries; at least one."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def mean_features_dot(spec: FeatureSpec, X: np.ndarray, W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sigma(X W^T) @ B, built a row chunk (see `chunk_rows`) at a time, so the
    (rows of X) x (rows of W) block is never held whole.  The output is
    float64; with X, W and B all float32 each chunk runs in float32."""
    rows = chunk_rows(W.shape[0])
    out = np.empty((X.shape[0],) + B.shape[1:])
    for lo in range(0, X.shape[0], rows):
        out[lo : lo + rows] = mean_features(spec, X[lo : lo + rows], W) @ B
    return out


# ---------------------------------------------------------------------------
# Kernel oracle
# ---------------------------------------------------------------------------

@dataclass
class KernelOracle:
    """Empirical kernel K = E_{w,z}[phi_n phi_n^T] with a floored inverse sqrt.

    Carries its construction context (spec, training rows, method, seed) so the
    cross kernel k(x, x_i) for prediction can be computed consistently.
    `mc_stderr` holds the entrywise Monte Carlo standard error when applicable.
    """

    K: np.ndarray
    inv_sqrt: np.ndarray
    floor_used: float
    method: str
    spec: FeatureSpec
    X: np.ndarray
    mc_samples: int
    seed: int
    evals: np.ndarray = field(repr=False, default=None)
    evecs: np.ndarray = field(repr=False, default=None)
    mc_stderr: np.ndarray | None = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def _floored(self) -> np.ndarray:
        return np.maximum(self.evals, self.floor_used)

    def inv_apply(self, v: np.ndarray) -> np.ndarray:
        """K^{-1} v using the floored eigenvalues."""
        lam = self._floored()
        if lam[-1] <= 0:
            raise NumericalFailure("kernel has no positive eigenvalue")
        return self.evecs @ ((self.evecs.T @ v) / lam)

    def norm_K(self, v: np.ndarray) -> float:
        """||v||_K = ||K^{1/2} v||_2."""
        lam = self._floored()
        proj = self.evecs.T @ v
        return float(np.sqrt(np.sum(lam * proj**2)))

    def mean_cross(self, X_test: np.ndarray) -> np.ndarray:
        """Noise-free cross kernel k_bar(x, x_i), shape m x n."""
        X_test = np.asarray(X_test, dtype=np.float64)
        if X_test.ndim != 2 or X_test.shape[1] != self.X.shape[1]:
            raise ValueError(f"test rows have dimension {X_test.shape}")
        if self.method == LATENT_LINEAR:
            return X_test @ self.X.T / self.X.shape[1]
        if self.method == ARC_COSINE:
            return _arc_cosine_kernel(X_test, self.X)
        # fresh weights, sub-seeded independently of the training estimate
        W = _draw_weights(self.spec, self.X.shape[1], self.mc_samples, rng_from(self.seed, "cross"))
        F_train = mean_features(self.spec, self.X, W)
        return mean_features_dot(self.spec, X_test, W, F_train.T) / self.mc_samples

    def cross(self, X_test: np.ndarray) -> np.ndarray:
        """Cross kernel for prediction.

        A test row that is the identical vector of a training row shares that
        row's feature noise, so it carries the gamma^2 term; this is what makes
        the kernel interpolant reproduce the training responses exactly.
        """
        k = self.mean_cross(X_test)
        g2 = self.spec.noise_gamma**2
        if g2 > 0:
            index = {self.X[i].tobytes(): i for i in range(self.X.shape[0])}
            X_test = np.asarray(X_test, dtype=np.float64)
            for j in range(X_test.shape[0]):
                i = index.get(X_test[j].tobytes())
                if i is not None:
                    k[j, i] += g2
        return k


def _arc_cosine_kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """E_w[relu(<a, w>) relu(<b, w>)] for w ~ N(0, I/d), one row per row of A.

    Equals ||a|| ||b|| / (2 pi d) * (sin theta + (pi - theta) cos theta) with
    theta the angle between a and b.  The output is filled a block of rows
    (`lines_per_block`) at a time, in place and through three block-sized
    buffers, so besides the output it holds about 6 MB.  Every entry takes
    the same operations in the same order as the whole-matrix formula, so the
    values are bitwise equal to it, but for one case: numpy forms A A^T (B is
    A, as in `kernel_matrix`) as a SYRK, and row blocks of A as general
    products, so there they stay bitwise only while A fits one block (at
    most 512 rows); beyond it they move by rounding.
    """
    (M, d), n = A.shape, B.shape[0]
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    out = np.empty((M, n))
    # A one-row block would take numpy's vector-matrix product, which rounds
    # differently from the matrix product: a last single row joins the block
    # before it.
    edges = [*range(0, M, lines_per_block(n)), M]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    size = max(hi - lo for lo, hi in zip(edges, edges[1:])) if M else 0
    denom, theta, wave = (np.empty((size, n)) for _ in range(3))
    for lo, hi in zip(edges, edges[1:]):
        cos = out[lo:hi]
        dn, th, wv = denom[: hi - lo], theta[: hi - lo], wave[: hi - lo]
        np.multiply.outer(na[lo:hi], nb, out=dn)
        np.matmul(A[lo:hi], B.T, out=cos)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(cos, dn, out=cos)
        cos[~(dn > 0)] = 0.0
        np.clip(cos, -1.0, 1.0, out=cos)
        np.arccos(cos, out=th)
        np.sin(th, out=wv)
        np.subtract(np.pi, th, out=th)
        np.multiply(th, cos, out=th)
        np.add(wv, th, out=wv)  # sin theta + (pi - theta) cos theta
        np.divide(dn, 2.0 * np.pi * d, out=dn)
        np.multiply(dn, wv, out=cos)
    return out


def kernel_matrix(
    spec: FeatureSpec,
    X: np.ndarray,
    method: str = MONTE_CARLO,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> KernelOracle:
    """Empirical kernel matrix oracle for the training rows X.

    Feature noise contributes gamma^2 I analytically in every method; Monte
    Carlo averages `mc_samples` weight draws for the noise-free part.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    n, d = X.shape
    stderr = None
    if method == ARC_COSINE:
        if spec.activation != RELU or spec.weight_dist != GAUSSIAN_ISOTROPIC:
            raise ValueError("arc-cosine closed form needs relu + gaussian weights")
        Kbar = _arc_cosine_kernel(X, X)
    elif method == LATENT_LINEAR:
        if spec.activation != IDENTITY:
            raise ValueError("latent-linear closed form needs the identity activation")
        Kbar = X @ X.T / d
    elif method == MONTE_CARLO:
        if mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        W = _draw_weights(spec, d, mc_samples, rng_from(seed, "kernel"))
        F = mean_features(spec, X, W)  # n x M
        Kbar = F @ F.T / mc_samples
        second = (F**2) @ (F**2).T / mc_samples
        var = np.maximum(second - Kbar**2, 0.0)
        stderr = np.sqrt(var / mc_samples)
    else:
        raise ValueError(f"unknown kernel method {method!r}")

    K = Kbar + spec.noise_gamma**2 * np.eye(n)
    K = 0.5 * (K + K.T)
    evals, evecs = np.linalg.eigh(K)
    lam_max = float(evals[-1])
    if lam_max <= 0:
        raise NumericalFailure("kernel matrix has no positive eigenvalue")
    if method == MONTE_CARLO and evals[0] < -NEG_EIG_TOL * lam_max:
        raise NumericalFailure(f"Monte Carlo kernel estimate has eigenvalue {evals[0]:.3e}")
    floor = KERNEL_EIG_FLOOR * lam_max
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(np.maximum(evals, floor))) @ evecs.T
    inv_sqrt = 0.5 * (inv_sqrt + inv_sqrt.T)
    return KernelOracle(
        K=K,
        inv_sqrt=inv_sqrt,
        floor_used=floor,
        method=method,
        spec=spec,
        X=X,
        mc_samples=mc_samples,
        seed=seed,
        evals=evals,
        evecs=evecs,
        mc_stderr=stderr,
    )


def whiten(oracle: KernelOracle, Phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Whitened features Psi = K^{-1/2} Phi (columnwise), written into `out`
    when it is given."""
    Phi = np.asarray(Phi, dtype=np.float64)
    if Phi.shape[0] != oracle.n:
        raise ValueError(f"Phi has {Phi.shape[0]} rows, oracle expects {oracle.n}")
    return np.matmul(oracle.inv_sqrt, Phi, out=out)


def save_matrix_csv(path, M: np.ndarray) -> None:
    """Row-major CSV with 17 significant digits."""
    np.savetxt(path, np.atleast_2d(M), delimiter=",", fmt="%.17g")
