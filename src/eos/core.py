"""Entropy-regularized instance weighting and the alternating fit loop.

The central object is a probability vector ``w`` over the T instances of a
dataset.  For a fixed model parameter ``theta`` with per-instance errors
``g_t``, the weights minimize

    L(w, theta, alpha) = sum_t w_t * g_t  +  alpha * sum_t w_t * log(w_t)

over the probability simplex.  The minimizer has the closed form

    w_t = exp(-g_t / alpha) / sum_s exp(-g_s / alpha)

computed here with min-subtraction so arbitrarily large error magnitudes
cannot overflow (``w_step``).  ``fit`` alternates this update with an error
model's ``step`` and stops once the objective decrease drops below
tolerance.  The public functions check their inputs and call the unchecked
kernels ``_softmax`` and ``_wlogw``, which ``fit`` calls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Protocol

import numpy as np

from .data import Dataset
from .exceptions import (
    ContractViolationError,
    EosError,
    InvalidConfigError,
    InvalidInputError,
    ModelError,
    NumericalError,
)

__all__ = [
    "InitPolicy",
    "Termination",
    "EosConfig",
    "FitResult",
    "ErrorModel",
    "w_step",
    "objective",
    "shannon_entropy",
    "effective_sample_size",
    "fit",
]

# Weight vectors must sum to one within this absolute tolerance.
SIMPLEX_ATOL = 1e-12

# Allowed relative objective increase before the descent contract is
# considered violated (an absolute epsilon covers trajectories near zero).
DESCENT_RTOL = 1e-10
DESCENT_ATOL = 1e-15


class InitPolicy(str, Enum):
    UNIFORM = "uniform"
    SEEDED_DIRICHLET = "seeded_dirichlet"


class Termination(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS_REACHED = "max_iters_reached"


@dataclass(frozen=True)
class EosConfig:
    """Knobs for one alternating fit.

    ``alpha`` is the entropy-regularization strength, in the same units as
    the error function.  Larger alpha spreads weight more evenly; smaller
    alpha concentrates it on low-error instances.
    """

    alpha: float
    tol: float = 1e-12
    max_iters: int = 500
    init_policy: InitPolicy = InitPolicy.UNIFORM
    seed: int = 0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidConfigError(f"tol must be positive, got {self.tol!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise InvalidConfigError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        object.__setattr__(self, "init_policy", InitPolicy(self.init_policy))
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise InvalidConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of an alternating fit.

    ``objective_trajectory`` holds the objective after each pair of updates,
    evaluated at the fresh weights and the parameters they were derived
    from.  It is non-increasing up to a 1e-10 relative slack; a model that
    breaks this aborts the fit instead of producing a result.
    """

    weights: np.ndarray
    theta: Any
    objective_trajectory: np.ndarray
    iterations: int
    termination: Termination


class ErrorModel(Protocol):
    """Behavioral contract for pluggable error models.

    ``step`` returns ``(theta, errors)``: the parameters updated for the
    weights and the per-instance errors g_t under them.  theta must not
    increase the weighted error sum(w_t * g_t) beyond a 1e-10 relative
    slack; this is what guarantees the monotone objective trajectory of fit.
    """

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[Any, np.ndarray]: ...


def check_weights(weights: np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate a probability vector: non-negative, sums to one, length n."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise InvalidInputError(f"weights must be a non-empty 1-D vector, got shape {w.shape}")
    if n is not None and w.size != n:
        raise InvalidInputError(f"weights have length {w.size}, expected {n}")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weights contain a non-finite entry")
    if np.any(w < 0):
        raise InvalidInputError(f"weights contain a negative entry (min {w.min():.3e})")
    total = float(w.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise InvalidInputError(f"weights sum to {total!r}, expected 1 within {SIMPLEX_ATOL}")
    return w


def check_errors(errors: np.ndarray) -> np.ndarray:
    """Validate an error vector: 1-D, non-empty, every entry finite."""
    g = np.asarray(errors, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise InvalidInputError(f"errors must be a non-empty 1-D vector, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise InvalidInputError(f"errors contain a non-finite entry at index {bad}")
    return g


def _check_alpha(alpha: float) -> float:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise InvalidConfigError(f"alpha must be a positive finite real, got {alpha!r}")
    return float(alpha)


def _softmax(shifted: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """The w-step of a row (T,) or rows (R, T) of errors shifted to a zero
    minimum, in place; ``alpha`` is a scalar or an (R, 1) column.  Dividing
    by -alpha equals negating and then dividing, bit for bit.
    """
    shifted /= -alpha
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def _wlogw(weights: np.ndarray) -> float:
    """sum(w*log w) over the positive entries, i.e. with 0*log(0) = 0."""
    pos = weights > 0
    return float(np.sum(weights[pos] * np.log(weights[pos])))


def w_step(errors: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form entropic weight update.

    Returns the unique simplex minimizer of sum(w*g) + alpha*sum(w*log w),
    i.e. the softmax of -g/alpha.  The smallest error is subtracted before
    exponentiating, which leaves the result unchanged (the shift cancels in
    the normalization) and keeps the largest exponent at zero.
    """
    g = check_errors(errors)
    return _softmax(g - g.min(), _check_alpha(alpha))


def objective(errors: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """Evaluate sum(w*g) + alpha*sum(w*log w), with 0*log(0) = 0."""
    g = check_errors(errors)
    w = check_weights(weights, g.size)
    return float(w @ g) + _check_alpha(alpha) * _wlogw(w)


def shannon_entropy(weights: np.ndarray) -> float:
    """Entropy -sum(w*log w) in nats, in [0, log T]."""
    return max(-_wlogw(check_weights(weights)), 0.0)


def effective_sample_size(weights: np.ndarray) -> float:
    """exp(entropy): how many instances effectively carry weight."""
    return math.exp(shannon_entropy(weights))


def _initial_weights(n: int, config: EosConfig) -> np.ndarray:
    if config.init_policy is InitPolicy.UNIFORM:
        return np.full(n, 1.0 / n)
    rng = np.random.default_rng(config.seed)
    return rng.dirichlet(np.ones(n))


def fit(dataset: Dataset, model: ErrorModel, config: EosConfig) -> FitResult:
    """Alternate the error model's ``step`` with the closed-form w-step.

    Each iteration runs ``model.step`` for the current weights, checks the
    errors it returns, then runs the w-step on them and records the
    objective at that point.  Stops when the objective decrease is at most
    ``config.tol`` (absolute) or after ``config.max_iters`` iterations.

    Raises ``ModelError`` if the step fails (the message names the
    iteration), ``InvalidInputError`` if it returns no ``(theta, errors)``
    pair of the right shape, ``NumericalError`` if errors or the objective
    become non-finite, and ``ContractViolationError`` if the objective
    increases beyond the descent slack, which indicates a broken model.
    """
    n = dataset.n_instances
    w = _initial_weights(n, config)
    trajectory: list[float] = []
    theta: Any = None
    termination = Termination.MAX_ITERS_REACHED
    previous = math.inf
    iterations = 0

    for iteration in range(1, config.max_iters + 1):
        try:
            stepped = model.step(dataset, w)
        except EosError as exc:
            raise ModelError(f"parameter update failed at iteration {iteration}: {exc}") from exc
        if not (isinstance(stepped, tuple) and len(stepped) == 2):
            kind = type(stepped).__name__
            raise InvalidInputError(f"model.step must return a (theta, errors) pair, got {kind}")
        theta, g = stepped
        g = np.asarray(g, dtype=float)
        if g.shape != (n,):
            raise InvalidInputError(f"error model returned shape {g.shape}, expected ({n},)")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"error model produced non-finite errors at iteration {iteration}")

        w = _softmax(g - g.min(), config.alpha)
        value = float(w @ g) + config.alpha * _wlogw(w)
        if not math.isfinite(value):
            raise NumericalError(f"objective became non-finite at iteration {iteration}")
        trajectory.append(value)
        iterations = iteration

        delta = previous - value
        slack = DESCENT_RTOL * max(abs(value), 0.0 if math.isinf(previous) else abs(previous))
        if delta < -(slack + DESCENT_ATOL):
            raise ContractViolationError(
                f"objective increased by {-delta:.6e} at iteration {iteration}; "
                "the error model's step violates its descent contract"
            )
        previous = value
        if delta <= config.tol:
            termination = Termination.CONVERGED
            break

    return FitResult(
        weights=w,
        theta=theta,
        objective_trajectory=np.asarray(trajectory),
        iterations=iterations,
        termination=termination,
    )
