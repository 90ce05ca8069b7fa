"""Predictor construction and Monte Carlo evaluation.

A finite-width predictor averages mean features against the recovered
coefficients, f(x) = (1/N) sum_j a_j sigma(<x, w_j>).  The quadratic-penalty
reference at infinite width is the kernel interpolant k(x, .)^T K^{-1} y built
from a :class:`~mci.features.KernelOracle`.  Distances and test errors are
estimated by Monte Carlo over the covariate distribution.

A finite-width model is evaluated in float32 and returned in float64, about
1e-7 relative from the float64 pass; the kernel interpolant stays float64,
because K^{-1} amplifies rounding in its cross kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import (
    DataSpec,
    FeatureSpec,
    KernelOracle,
    mean_features_dot,
    sample_covariates,
)


@dataclass(frozen=True)
class Predictor:
    """Finite-width model f(x) = (1/N) sum_j a_j sigma(<x, w_j>).

    `a` is a coefficient vector (N,), or an N x k matrix whose columns are k
    models over the same N weights: one pass over sigma(X W^T) predicts them
    all.  A model of width N' < N on the first N' weights is the column
    (N / N') a, zero-padded below N'.

    `predict` drops the rows of `a` that are zero in every column, with
    their weights, and still divides by the full N: a p = 1 model has at most
    n nonzeros, so its pass is M x n instead of M x N.  It casts the test
    rows and the kept W and a to float32 once per call, runs sigma(X W^T) a
    in float32 chunks and returns float64 values.
    """

    W: np.ndarray
    a: np.ndarray
    spec: FeatureSpec

    def __post_init__(self):
        if self.W.ndim != 2 or self.a.ndim not in (1, 2) or self.a.shape[0] != self.W.shape[0]:
            raise ValueError(f"W {self.W.shape} and a {self.a.shape} are inconsistent")

    def predict(self, X_test: np.ndarray) -> np.ndarray:
        """Values on the M test rows: shape (M,) for a vector `a`, M x k for
        an N x k coefficient matrix."""
        X_test = np.asarray(X_test, dtype=np.float32)
        if X_test.ndim != 2 or X_test.shape[1] != self.W.shape[1]:
            raise ValueError(f"test rows {X_test.shape} incompatible with W {self.W.shape}")
        W, a = self.W, self.a
        support = np.flatnonzero(a if a.ndim == 1 else np.any(a != 0, axis=1))
        if support.size < W.shape[0]:
            W, a = W[support], a[support]
        W, a = W.astype(np.float32), a.astype(np.float32)
        return mean_features_dot(self.spec, X_test, W, a) / self.W.shape[0]


@dataclass(frozen=True)
class KernelPredictor:
    """Kernel interpolant f(x) = k(x, .)^T K^{-1} y over the oracle's training rows."""

    kernel: KernelOracle
    coeffs: np.ndarray

    def predict(self, X_test: np.ndarray) -> np.ndarray:
        return self.kernel.cross(X_test) @ self.coeffs


def predict(pred, X_test: np.ndarray) -> np.ndarray:
    """Evaluate a predictor (or plain callable) on test rows.

    A :class:`Predictor` with an N x k coefficient matrix returns M x k
    values, one column per model.  `pred` may also be a 1-D array of values
    already computed on `X_test` (one per row, such as one column of that
    matrix); it is returned as is, so callers that evaluate one model against
    several quantities on the same test batch predict it once.
    """
    X_test = np.asarray(X_test, dtype=np.float64)
    if isinstance(pred, np.ndarray):
        if pred.shape != (X_test.shape[0],):
            raise ValueError(f"values {pred.shape} do not match {X_test.shape[0]} test rows")
        return pred
    if hasattr(pred, "predict"):
        return pred.predict(X_test)
    return np.asarray(pred(X_test), dtype=np.float64)


def kernel_interpolant(oracle: KernelOracle, y: np.ndarray) -> KernelPredictor:
    """Exact-fit kernel predictor with coefficients K^{-1} y."""
    if np.shape(y) != (oracle.n,):
        raise ValueError(f"y has shape {np.shape(y)}, expected ({oracle.n},)")
    return KernelPredictor(kernel=oracle, coeffs=oracle.inv_apply(y))


def _test_batch(ds: DataSpec, M: int, seed: int, X_test: np.ndarray | None) -> np.ndarray:
    """The M covariates of `seed`: `X_test` when the caller already drew them
    with ``sample_covariates(ds, M, seed)``, else drawn here."""
    if M < 100:
        raise ValueError("need at least 100 Monte Carlo points")
    if X_test is None:
        return sample_covariates(ds, M, seed)
    if X_test.shape != (M, ds.d):
        raise ValueError(f"test batch {X_test.shape} is not ({M}, {ds.d})")
    return X_test


def l2_distance(f, g, ds: DataSpec, M: int, seed: int,
                X_test: np.ndarray | None = None) -> tuple[float, float]:
    """Monte Carlo L2(P) distance between two predictors, with standard error.

    Either side may be a value vector already computed on this test batch
    (see :func:`predict`); `X_test` may pass the batch itself.  Returns
    (sqrt(mean (f - g)^2), delta-method standard error of the root).
    """
    X = _test_batch(ds, M, seed, X_test)
    diff2 = (predict(f, X) - predict(g, X)) ** 2
    mean2 = float(np.mean(diff2))
    est = float(np.sqrt(mean2))
    se_mean2 = float(np.std(diff2, ddof=1) / np.sqrt(M))
    se = se_mean2 / (2.0 * est) if est > 0 else 0.0
    return est, se


def test_error(f, ds: DataSpec, M: int, seed: int, X_test: np.ndarray | None = None,
               y_test: np.ndarray | None = None) -> float:
    """Monte Carlo mean-squared error against the ridge target.

    `f` may be a value vector already computed on this test batch (see
    :func:`predict`).  A caller that scores many models on one batch passes
    the batch as `X_test` and the target's values on it as `y_test`, so
    neither is recomputed per call.
    """
    if ds.target is None:
        raise ValueError("test_error requires a ridge target in the data spec")
    X = _test_batch(ds, M, seed, X_test)
    if y_test is None:
        y_test = ds.target(X)
    elif y_test.shape != (M,):
        raise ValueError(f"target values {y_test.shape} do not match {M} test rows")
    return float(np.mean((predict(f, X) - y_test) ** 2))
