"""Concrete error models: multivariate Gaussian and squared Euclidean.

Both satisfy the ``ErrorModel`` contract: ``step`` returns the exact
minimizer of the weighted error (up to a tiny covariance floor) and the
errors under it, so the alternating fit is guaranteed to descend.  Steps
take ``fit``'s weights unchecked; the public functions check their inputs.
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
        # Eigenvalues and eigenvectors of sigma, set on first use; see _whiten.
        object.__setattr__(self, "_spectrum", None)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def _center(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    if dataset.n_features != params.dim:
        raise InvalidInputError(
            f"dataset has {dataset.n_features} features, params expect {params.dim}"
        )
    return dataset.instances - params.mu


def _whiten(centered: np.ndarray, params: GaussianParams) -> tuple[np.ndarray, float]:
    """Rows (x - mu) V/sqrt(lambda), whose squared norms are the Mahalanobis
    distances, and 0.5*log det Sigma = 0.5*sum(log lambda).

    ``centered`` is x - mu: centered afresh by the public evaluations, and
    the matrix the update built in ``GaussianModel.step``.  lambda and V are
    the spectrum ``_gaussian_update`` chose; any other params are
    eigendecomposed here on first use.
    """
    if params._spectrum is None:
        eigenvalues, eigenvectors = np.linalg.eigh(params.sigma)
        if not float(eigenvalues[0]) > 0.0:
            raise ModelError(
                f"covariance is not positive definite (smallest eigenvalue {eigenvalues[0]:.6e})"
            )
        object.__setattr__(params, "_spectrum", (eigenvalues, eigenvectors))
    eigenvalues, eigenvectors = params._spectrum
    z = centered @ (eigenvectors / np.sqrt(eigenvalues))
    return z, 0.5 * float(np.sum(np.log(eigenvalues)))


def _negative_log_likelihood(z: np.ndarray, half_logdet: float) -> np.ndarray:
    return (half_logdet + 0.5 * np.einsum("ij,ij->i", z, z)) / z.shape[1]


def mahalanobis_squared(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    """(x - mu)^T Sigma^{-1} (x - mu) per row."""
    z, _ = _whiten(_center(dataset, params), params)
    return np.einsum("ij,ij->i", z, z)


def gaussian_error(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    """Per-instance negative Gaussian log-likelihood, scaled by 1/D.

    g_t = (0.5*log(det Sigma) + 0.5*(x_t-mu)^T Sigma^{-1} (x_t-mu)) / D,
    evaluated through the eigendecomposition of Sigma; the covariance is
    never inverted explicitly.
    """
    return _negative_log_likelihood(*_whiten(_center(dataset, params), params))


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
    return _gaussian_update(dataset, check_weights(weights, dataset.n_instances))[0]


def _gaussian_update(dataset: Dataset, w: np.ndarray) -> tuple[GaussianParams, np.ndarray]:
    """``weighted_gaussian_mle`` on unchecked weights; also returns x - mu."""
    x = dataset.instances
    mu = w @ x
    centered = x - mu
    sigma = (centered * w[:, None]).T @ centered
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
    return params, centered


class GaussianModel:
    """Gaussian negative log-likelihood with the weighted-MLE update."""

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[GaussianParams, np.ndarray]:
        params, centered = _gaussian_update(dataset, weights)
        z, half_logdet = _whiten(centered, params)
        del centered  # before the row norms: at most two T x D arrays at once
        return params, _negative_log_likelihood(z, half_logdet)


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
