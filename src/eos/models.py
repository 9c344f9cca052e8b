"""Concrete error models: multivariate Gaussian and squared Euclidean.

Both satisfy the ``ErrorModel`` contract: ``step`` returns the exact
minimizer of the weighted error (up to a tiny covariance floor) and the
errors under it, so the alternating fit is guaranteed to descend.  Steps
take ``fit``'s weights unchecked.  The public functions check their inputs
once: a ``Dataset`` is checked when it is built, so an evaluator checks
only that it was given one, first, and the parameters' dimension.

Every pass over the instances runs in row blocks of 2**15 cells, or of D
rows past D = 181, so below that width no call allocates a T x D array.  The
moments pass adds one weighted D x D product per block; ``_quadratic_form``
writes the Mahalanobis distances, and the squared Euclidean ones as their
identity-covariance case, into one T-vector.  ``data._centered_blocks``
centers each block in one reused buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_real, check_weights
from .data import Dataset, _centered_blocks, _check_dataset, _check_dim, _check_peak
from .exceptions import InvalidInputError, NumericalError

__all__ = [
    "GaussianParams",
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
    to keep the covariance positive definite.  Definiteness is checked at
    construction, by the eigendecomposition every evaluation then uses, and
    ``mu`` is held to the bound of ``Dataset`` instances of its dimension.
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
        if d < 1:
            raise InvalidInputError("mu must have at least one entry")
        if sigma.shape != (d, d):
            raise InvalidInputError(f"sigma must be {d}x{d}, got shape {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidInputError("mu and sigma must be finite")
        _check_peak("mu", float(np.abs(mu).max()), d)
        scale = max(1.0, float(np.abs(sigma).max()))
        if np.abs(sigma - sigma.T).max() > 1e-10 * scale:
            raise InvalidInputError("sigma is not symmetric within 1e-10")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "ridge", _check_real(
            self.ridge, lambda r: r >= 0.0, InvalidInputError, "ridge must be non-negative"))
        eigenvalues, eigenvectors = np.linalg.eigh(sigma)
        if not float(eigenvalues[0]) > 0.0:
            raise InvalidInputError(
                f"covariance is not positive definite (smallest eigenvalue {eigenvalues[0]:.6e})"
            )
        # Eigenvalues lambda and eigenvectors V of sigma.
        object.__setattr__(self, "_spectrum", (eigenvalues, eigenvectors))

    @classmethod
    def _unchecked(
        cls,
        mu: np.ndarray,
        sigma: np.ndarray,
        ridge: float,
        spectrum: tuple[np.ndarray, np.ndarray],
    ) -> GaussianParams:
        """Params from arrays the caller owns and has already made valid:
        finite, sigma symmetric and positive definite, its spectrum computed.
        The checks of the public constructor cost a tenth of a Gaussian ``step``."""
        params = object.__new__(cls)
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(params, "mu", mu)
        object.__setattr__(params, "sigma", sigma)
        object.__setattr__(params, "ridge", ridge)
        object.__setattr__(params, "_spectrum", spectrum)
        return params

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


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


def _quadratic_form(x: np.ndarray, center: np.ndarray,
                    spectrum: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """q_t = ||(x_t - center) V / sqrt(lambda)||^2, the Mahalanobis distance
    for a covariance's spectrum (lambda, V), written block by block into one
    T-vector.  With no spectrum, the identity covariance: ||x_t - center||^2."""
    whitener = None if spectrum is None else spectrum[1] / np.sqrt(spectrum[0])
    q = np.empty(x.shape[0])
    for rows, centered in _centered_blocks(x, center):
        z = centered if whitener is None else centered @ whitener
        np.einsum("ij,ij->i", z, z, out=q[rows])
    return q


def _negative_log_likelihood(q: np.ndarray, params: GaussianParams) -> np.ndarray:
    """g_t = (0.5*log det Sigma + 0.5*q_t) / D, computed in place on the
    quadratic form q; log det Sigma = sum(log lambda)."""
    q *= 0.5
    q += 0.5 * float(np.sum(np.log(params._spectrum[0])))
    q /= params.dim
    return q


def mahalanobis_squared(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    """(x - mu)^T Sigma^{-1} (x - mu) per row.

    Raises ``NumericalError`` when a distance overflows, which a covariance
    far too small for the data's scale can make happen.
    """
    _check_dataset(dataset)
    _check_dim(dataset, params.dim)
    q = _quadratic_form(dataset.instances, params.mu, params._spectrum)
    if not np.isfinite(q.max()):  # NaN and inf carry through the max
        raise NumericalError(
            f"Mahalanobis distances overflow: sigma's smallest eigenvalue "
            f"{params._spectrum[0][0]:.6e} is too small for the scale of the data"
        )
    return q


def gaussian_error(dataset: Dataset, params: GaussianParams) -> np.ndarray:
    """Per-instance negative Gaussian log-likelihood, scaled by 1/D.

    g_t = (0.5*log(det Sigma) + 0.5*(x_t-mu)^T Sigma^{-1} (x_t-mu)) / D,
    evaluated through the eigendecomposition of Sigma; the covariance is
    never inverted explicitly.  Raises ``NumericalError`` as
    ``mahalanobis_squared`` does.
    """
    return _negative_log_likelihood(mahalanobis_squared(dataset, params), params)


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
    # Evaluate with the spectrum chosen here: re-factoring the rebuilt sigma
    # moves floored eigenvalues by rounding, and with it the log-determinant
    # by more than fit's descent slack.  The bound of the instances keeps
    # sigma finite, so the constructor's checks are skipped.
    return GaussianParams._unchecked(mu, sigma, float(ridge), (eigenvalues, eigenvectors))


class GaussianModel:
    """Gaussian negative log-likelihood with the weighted-MLE update."""

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[GaussianParams, np.ndarray]:
        params = _floored_params(dataset, *_weighted_moments(dataset.instances, weights))
        q = _quadratic_form(dataset.instances, params.mu, params._spectrum)
        return params, _negative_log_likelihood(q, params)


def squared_euclidean_error(dataset: Dataset, center: np.ndarray) -> np.ndarray:
    """g_t = ||x_t - center||^2, the Mahalanobis distance at the identity
    covariance; ``center`` is held to the bound of the instances."""
    _check_dataset(dataset)
    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or c.shape[0] != dataset.n_features:
        raise InvalidInputError(f"center must have length {dataset.n_features}, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("center must be finite")
    _check_peak("center", float(np.abs(c).max()), c.shape[0])
    return _quadratic_form(dataset.instances, c)


class SquaredEuclideanModel:
    """Identity-covariance Mahalanobis error; the weighted mean is the exact update."""

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        center = weights @ dataset.instances
        return center, _quadratic_form(dataset.instances, center)
