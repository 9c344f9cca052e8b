"""Concrete error models: multivariate Gaussian and squared Euclidean.

Both satisfy the ``ErrorModel`` contract: ``step`` returns the exact
minimizer of the weighted error (up to a tiny covariance floor) and the
errors under it, so the alternating fit is guaranteed to descend.  Steps
take ``fit``'s weights unchecked; the public functions check their inputs.

Every Gaussian pass over the instances runs in cache-sized row blocks: one
kernel accumulates the weighted moments, one writes the quadratic forms into
a single T-vector, and no call allocates a T x D array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_weights
from .data import Dataset
from .exceptions import InvalidInputError, ModelError

__all__ = [
    "GaussianParams",
    "covariance_floor",
    "gaussian_error",
    "weighted_gaussian_mle",
    "mahalanobis_squared",
    "GaussianModel",
    "squared_euclidean_error",
    "SquaredEuclideanModel",
]

# Covariance eigenvalues are floored at RIDGE_FACTOR times the dataset's
# mean per-coordinate variance.  The floor is a constant of the dataset, not
# of the current weights: that keeps every parameter update an exact
# minimizer over one fixed feasible set, which is what guarantees descent
# even when the weights collapse onto a handful of points.
RIDGE_FACTOR = 1e-8


@dataclass(frozen=True)
class GaussianParams:
    """Mean and covariance of a multivariate Gaussian model.

    ``ridge`` records any diagonal regularization that was actually added
    to keep the covariance positive definite.  Definiteness itself is
    checked lazily, at the first factorization.
    """

    mu: np.ndarray
    sigma: np.ndarray
    ridge: float = 0.0

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float, copy=True)
        sigma = np.array(self.sigma, dtype=float, copy=True)
        if mu.ndim != 1:
            raise InvalidInputError(f"mu must be a vector, got shape {mu.shape}")
        d = mu.shape[0]
        if sigma.shape != (d, d):
            raise InvalidInputError(f"sigma must be {d}x{d}, got shape {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidInputError("mu and sigma must be finite")
        scale = max(1.0, float(np.abs(sigma).max()))
        if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
            raise InvalidInputError("sigma is not symmetric within 1e-10")
        if not (self.ridge >= 0.0):
            raise InvalidInputError(f"ridge must be non-negative, got {self.ridge!r}")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "ridge", float(self.ridge))
        # Eigenvalues and eigenvectors of sigma, set on first use; see _spectrum.
        object.__setattr__(self, "_spectrum", None)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


# Row blocks of about 256 KiB (2**15 float64 cells), so that a block and its
# temporaries stay in cache.
_BLOCK_CELLS = 2**15


def _centered_blocks(x: np.ndarray, mu: np.ndarray):
    """Yield (rows, x[rows] - mu) block by block, all in one reused buffer.

    A block has at least D rows, so the D x D work of the moments pass is
    spread over at most T / D blocks however wide x is.
    """
    t, d = x.shape
    size = min(t, max(d, _BLOCK_CELLS // d))
    buffer = np.empty((size, d))
    for start in range(0, t, size):
        rows = slice(start, min(start + size, t))
        yield rows, np.subtract(x[rows], mu, out=buffer[: rows.stop - start])


def _weighted_moments(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu = w @ x and Sigma = sum_t w_t (x_t-mu)(x_t-mu)^T, one block at a time."""
    mu = w @ x
    sigma = None
    for rows, centered in _centered_blocks(x, mu):
        term = (centered * w[rows, None]).T @ centered
        if sigma is None:
            sigma = term
        else:
            sigma += term
    return mu, sigma


def _quadratic_form(x: np.ndarray, params: GaussianParams) -> np.ndarray:
    """q_t = ||(x_t - mu) V / sqrt(lambda)||^2, the Mahalanobis distance,
    written block by block into one T-vector."""
    eigenvalues, eigenvectors = _spectrum(params)
    whitener = eigenvectors / np.sqrt(eigenvalues)
    q = np.empty(x.shape[0])
    for rows, centered in _centered_blocks(x, params.mu):
        z = centered @ whitener
        np.einsum("ij,ij->i", z, z, out=q[rows])
    return q


def _spectrum(params: GaussianParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda and eigenvectors V of sigma.

    These are the spectrum ``_floored_params`` chose; any other params are
    eigendecomposed here on first use.
    """
    if params._spectrum is None:
        eigenvalues, eigenvectors = np.linalg.eigh(params.sigma)
        if not float(eigenvalues[0]) > 0.0:
            raise ModelError(
                f"covariance is not positive definite (smallest eigenvalue {eigenvalues[0]:.6e})"
            )
        object.__setattr__(params, "_spectrum", (eigenvalues, eigenvectors))
    return params._spectrum


def _negative_log_likelihood(x: np.ndarray, params: GaussianParams) -> np.ndarray:
    """g_t = (0.5*log det Sigma + 0.5*q_t) / D, computed in place on the
    quadratic form q; log det Sigma = sum(log lambda)."""
    g = _quadratic_form(x, params)
    g *= 0.5
    g += 0.5 * float(np.sum(np.log(_spectrum(params)[0])))
    g /= x.shape[1]
    return g


def _check_dim(dataset: Dataset, params: GaussianParams) -> None:
    if dataset.n_features != params.dim:
        raise InvalidInputError(
            f"dataset has {dataset.n_features} features, params expect {params.dim}"
        )


def mahalanobis_squared(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    """(x - mu)^T Sigma^{-1} (x - mu) per row."""
    _check_dim(dataset, params)
    return _quadratic_form(dataset.instances, params)


def gaussian_error(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    """Per-instance negative Gaussian log-likelihood, scaled by 1/D.

    g_t = (0.5*log(det Sigma) + 0.5*(x_t-mu)^T Sigma^{-1} (x_t-mu)) / D,
    evaluated through the eigendecomposition of Sigma; the covariance is
    never inverted explicitly.
    """
    _check_dim(dataset, params)
    return _negative_log_likelihood(dataset.instances, params)


def covariance_floor(dataset: Dataset) -> float:
    """The dataset's fixed covariance eigenvalue floor.

    RIDGE_FACTOR times the mean per-coordinate variance; an absolute
    RIDGE_FACTOR for a constant dataset, where no scale is left.  The
    variance is computed once per dataset (``Dataset.mean_variance``), so
    the floor costs one pass over the data however many updates use it.
    """
    spread = dataset.mean_variance
    return RIDGE_FACTOR * (spread if spread > 0.0 else 1.0)


def weighted_gaussian_mle(dataset: Dataset, weights: np.ndarray) -> GaussianParams:
    """Weighted maximum-likelihood mean and covariance, with a spectrum floor.

    mu = sum_t w_t x_t and Sigma = sum_t w_t (x_t-mu)(x_t-mu)^T; the weights
    already sum to one so no further normalization is applied.  Covariance
    eigenvalues below ``covariance_floor(dataset)`` are raised to it and the
    floor is recorded as the ridge.  Eigenvalue flooring is the exact
    minimizer of the weighted Gaussian error over covariances bounded below
    by the floor, so the update never increases the weighted error even for
    one-hot weights, where the unconstrained problem is unbounded.
    """
    w = check_weights(weights, dataset.n_instances)
    mu, sigma = _weighted_moments(dataset.instances, w)
    return _floored_params(dataset, mu, sigma)


def _floored_params(dataset: Dataset, mu: np.ndarray, sigma: np.ndarray) -> GaussianParams:
    """Symmetrize sigma and raise its eigenvalues to the dataset's floor."""
    sigma = 0.5 * (sigma + sigma.T)
    floor = covariance_floor(dataset)
    ridge = 0.0
    eigenvalues, eigenvectors = np.linalg.eigh(sigma)
    if float(eigenvalues[0]) < floor:
        eigenvalues = np.maximum(eigenvalues, floor)
        sigma = (eigenvectors * eigenvalues) @ eigenvectors.T
        sigma = 0.5 * (sigma + sigma.T)
        ridge = floor
    params = GaussianParams(mu=mu, sigma=sigma, ridge=ridge)
    # Evaluate with the spectrum chosen here: re-factoring the rebuilt sigma
    # moves floored eigenvalues by rounding, and with it the log-determinant
    # by more than fit's descent slack.
    object.__setattr__(params, "_spectrum", (eigenvalues, eigenvectors))
    return params


class GaussianModel:
    """Gaussian negative log-likelihood with the weighted-MLE update."""

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[GaussianParams, np.ndarray]:
        params = _floored_params(dataset, *_weighted_moments(dataset.instances, weights))
        return params, _negative_log_likelihood(dataset.instances, params)


def squared_euclidean_error(dataset: Dataset, center: np.ndarray) -> np.ndarray:
    """g_t = ||x_t - center||^2."""
    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or c.shape[0] != dataset.n_features:
        raise InvalidInputError(
            f"center must have length {dataset.n_features}, got shape {c.shape}"
        )
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("center must be finite")
    diff = dataset.instances - c
    return np.einsum("ij,ij->i", diff, diff)


class SquaredEuclideanModel:
    """Squared-distance error; the weighted mean is the exact update."""

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        center = weights @ dataset.instances
        return center, squared_euclidean_error(dataset, center)
