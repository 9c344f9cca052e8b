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
tolerance.  The alternation is a fixed-point map on the error vector,
g -> errors(step(w_step(g))), which ``fit`` accelerates with SQUAREM: any
real error vector gives valid weights, so extrapolated errors are safe to
step from.  The public functions check their inputs and call the unchecked
kernels ``_softmax``, ``_wlogw`` and ``_ess``; ``fit`` and the calibrations
in ``anomaly`` and ``affinity`` call them directly on arrays already checked.

Scalar parameters, here and in the other modules, are checked by
``_check_real`` or ``_check_int``: one rule for what counts as a number
(numpy scalars do, bools and strings do not), the checked value returned as
a Python float or int, and the caller's own error class and text for
anything else.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
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


class Termination(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS_REACHED = "max_iters_reached"


@dataclass(frozen=True)
class EosConfig:
    """Knobs for one alternating fit, which always starts from uniform weights.

    ``alpha`` is the entropy-regularization strength, in the same units as
    the error function, 1.0 unless given.  Larger alpha spreads weight more
    evenly; smaller alpha concentrates it on low-error instances.
    """

    alpha: float = 1.0
    tol: float = 1e-12
    max_iters: int = 500

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "tol", _check_real(
            self.tol, _positive, InvalidConfigError, "tol must be positive"))
        object.__setattr__(self, "max_iters", _check_int(
            self.max_iters, lambda n: n >= 1, InvalidConfigError,
            "max_iters must be an integer >= 1"))


@dataclass(frozen=True)
class FitResult:
    """Outcome of an alternating fit at ``alpha``, the fit's ``config.alpha``.

    ``objective_trajectory`` holds the objective at each kept point: the
    fresh weights and the parameters they were derived from.  It is
    non-increasing up to a 1e-10 relative slack; a model that breaks this
    aborts the fit instead of producing a result.  ``iterations`` counts the
    calls of the model's ``step``, dropped proposals of the acceleration
    included, so it can exceed the trajectory's length.  ``errors`` is the
    error vector of ``theta``, the array the last kept step returned, not a
    copy; ``calibrate_alpha`` and ``flag_outliers`` read it instead of
    evaluating the model again.  ``weights`` is the w-step of ``errors`` at ``alpha``.
    """

    alpha: float
    weights: np.ndarray
    theta: Any
    errors: np.ndarray
    objective_trajectory: np.ndarray
    iterations: int
    termination: Termination


class ErrorModel(Protocol):
    """Behavioral contract for pluggable error models.

    ``step`` returns ``(theta, errors)``: the parameters updated for the
    weights and the per-instance errors g_t under them.  theta must not
    increase the weighted error sum(w_t * g_t) beyond a 1e-10 relative
    slack; this is what guarantees the monotone objective trajectory of fit.
    ``fit`` may overwrite a step's errors array, but never the one it returns.
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


def _checked_errors(errors: np.ndarray) -> tuple[np.ndarray, float]:
    """Validate an error vector: 1-D, non-empty, every entry finite.  Also
    returns the smallest error, which the finiteness test reads anyway."""
    g = np.asarray(errors, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise InvalidInputError(f"errors must be a non-empty 1-D vector, got shape {g.shape}")
    low = float(g.min())
    # NaN propagates through min and max, so finite extremes clear every entry.
    if not (math.isfinite(low) and math.isfinite(float(g.max()))):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise InvalidInputError(f"errors contain a non-finite entry at index {bad}")
    return g, low


def _check_real(value: Any, ok: Callable[[float], bool], error: type[EosError], text: str) -> float:
    """``value`` as a float if it is a real number (numpy's too, not a bool) that
    a float can hold and ``ok`` accepts; else raise ``error(f"{text}, got {value!r}")``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if ok(number := float(value)):
                return number
        except OverflowError:  # an int beyond the float range
            pass
    raise error(f"{text}, got {value!r}")


def _check_int(value: Any, ok: Callable[[int], bool], error: type[EosError], text: str) -> int:
    """``value`` as an int: ``_check_real``'s rule, for an integral type and the exact int."""
    number = int(value) if isinstance(value, numbers.Integral) else None
    _check_real(value, lambda _: number is not None and ok(number), error, text)
    return number


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _check_alpha(alpha: float) -> float:
    return _check_real(alpha, _positive, InvalidConfigError, "alpha must be a positive finite real")


def _softmax(shifted: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """The w-step of a row (T,) or rows (R, T) of errors shifted to a zero
    minimum, in place; ``alpha`` is a scalar or an (R, 1) column.  Dividing
    by -alpha equals negating and then dividing, bit for bit.
    """
    with np.errstate(over="ignore"):  # a quotient past -max gives its limit, weight 0
        shifted /= -alpha
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def _wlogw(weights: np.ndarray) -> float:
    """sum(w*log w) over the positive entries, i.e. with 0*log(0) = 0."""
    p = weights if weights.all() else weights[weights > 0]
    terms = np.log(p)
    terms *= p
    return float(np.sum(terms))


def _ess(weights: np.ndarray) -> float:
    """exp(-sum(w*log w)), the effective sample size, with the entropy held at 0 or above."""
    return math.exp(max(-_wlogw(weights), 0.0))


def w_step(errors: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form entropic weight update.

    Returns the unique simplex minimizer of sum(w*g) + alpha*sum(w*log w),
    i.e. the softmax of -g/alpha.  The smallest error is subtracted before
    exponentiating, which leaves the result unchanged (the shift cancels in
    the normalization) and keeps the largest exponent at zero.
    """
    g, low = _checked_errors(errors)
    return _softmax(g - low, _check_alpha(alpha))


def objective(errors: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """Evaluate sum(w*g) + alpha*sum(w*log w), with 0*log(0) = 0."""
    g, _ = _checked_errors(errors)
    w = check_weights(weights, g.size)
    return float(w @ g) + _check_alpha(alpha) * _wlogw(w)


def shannon_entropy(weights: np.ndarray) -> float:
    """Entropy -sum(w*log w) in nats, in [0, log T]."""
    return max(-_wlogw(check_weights(weights)), 0.0)


def effective_sample_size(weights: np.ndarray) -> float:
    """exp(entropy): how many instances effectively carry weight."""
    return _ess(check_weights(weights))


def _extrapolate(
    g0: np.ndarray, g1: np.ndarray, g2: np.ndarray, step_max: float
) -> tuple[np.ndarray, bool]:
    """SQUAREM's proposal g0 + 2*s*r + s^2*v, written over g0, and whether
    step_max capped s; r = g1 - g0 and v = g2 - 2*g1 + g0 are built in g0
    and g1, scaled by their largest magnitude so the norms cannot overflow.
    r is never zero here: the plain steps that made g1 and g2 both lowered
    the objective.  A proposal that overflows comes back non-finite.
    """
    r = np.subtract(g1, g0, out=g0)
    v = np.subtract(g2, g1, out=g1)
    v -= r
    scale = max(float(r.max()), -float(r.min()), float(v.max()), -float(v.min()))
    r /= scale
    v /= scale
    vv = float(v @ v)
    ratio = math.sqrt(float(r @ r) / vv) if vv > 0.0 else math.inf
    s = min(max(ratio, 1.0), step_max)
    # g0 + 2*s*r + s^2*v is g2 + 2*(s-1)*r + (s^2-1)*v.
    with np.errstate(over="ignore", invalid="ignore"):
        r *= 2.0 * (s - 1.0) * scale
        v *= (s * s - 1.0) * scale
        r += v
        r += g2
    return r, ratio >= step_max


def fit(dataset: Dataset, model: ErrorModel, config: EosConfig) -> FitResult:
    """Alternate the error model's ``step`` with the closed-form w-step from
    uniform weights, accelerated by SQUAREM on the error vector (Varadhan and
    Roland 2008).

    A cycle runs two plain steps, g0 -> g1 -> g2, and then one step from the
    extrapolated errors g0 + 2*s*r + s^2*v, where r = g1 - g0,
    v = g2 - 2*g1 + g0 and s = ||r||/||v|| is clamped to [1, step_max].  The
    proposal's step is kept only if its objective lies strictly below g2's;
    otherwise, or if that step raises ``ModelError`` or ``NumericalError``,
    the next cycle starts from g2.  step_max starts at 1, grows fourfold
    after a kept proposal it capped and shrinks fourfold, never below 1,
    after a dropped one.  Only errors are extrapolated, never parameters.

    A plain step must not raise the objective beyond the descent slack.  The
    fit stops when a kept point lowers the objective by at most
    ``config.tol`` (absolute), or after ``config.max_iters`` calls of
    ``model.step``.  ``iterations`` counts those calls, dropped proposals
    included; ``objective_trajectory`` holds the kept points only.

    Raises ``ModelError`` if a plain step fails (the message names the
    iteration), ``InvalidInputError`` if a step returns no ``(theta, errors)``
    pair of the right shape, ``NumericalError`` if a plain step's errors or
    objective become non-finite, and ``ContractViolationError`` if a plain
    step raises the objective beyond the descent slack, which indicates a
    broken model.
    """
    n = dataset.n_instances
    alpha = config.alpha
    iterations = 0

    def advance(w: np.ndarray) -> tuple[Any, np.ndarray]:
        """One model step from w: theta and its errors."""
        nonlocal iterations
        iterations += 1
        try:
            stepped = model.step(dataset, w)
        except EosError as exc:
            raise ModelError(f"parameter update failed at iteration {iterations}: {exc}") from exc
        if not (isinstance(stepped, tuple) and len(stepped) == 2):
            kind = type(stepped).__name__
            raise InvalidInputError(f"model.step must return a (theta, errors) pair, got {kind}")
        theta, g = stepped
        # The errors are overwritten by the extrapolation; a read-only array is copied.
        g = np.require(g, dtype=float, requirements="W")
        if g.shape != (n,):
            raise InvalidInputError(f"error model returned shape {g.shape}, expected ({n},)")
        return theta, g

    def weigh(g: np.ndarray) -> tuple[np.ndarray, float]:
        """The w-step of a step's errors and the objective there."""
        low = float(g.min())
        if not (math.isfinite(low) and math.isfinite(float(g.max()))):
            raise NumericalError(f"error model produced non-finite errors at iteration {iterations}")
        w = _softmax(g - low, alpha)
        # min_w L = low - alpha*log(sum exp(-(g - low)/alpha)), and the weight
        # of the smallest error is exactly 1/sum.
        value = low + alpha * math.log(float(w.max()))
        if not math.isfinite(value):
            raise NumericalError(f"objective became non-finite at iteration {iterations}")
        return w, value

    theta, g = advance(np.full(n, 1.0 / n))
    w, value = weigh(g)
    trajectory = [value]
    cycle = [g]
    step_max = 1.0
    termination = Termination.MAX_ITERS_REACHED

    # Each T-vector is released as soon as it is dead, so a step's input
    # weights, g0 and g1 are the most that sit beside the step's own errors.
    while iterations < config.max_iters:
        if len(cycle) < 3:
            theta, g = advance(w)
            del w
            w, latest = weigh(g)
            slack = DESCENT_RTOL * max(abs(latest), abs(value))
            if latest - value > slack + DESCENT_ATOL:
                raise ContractViolationError(
                    f"objective increased by {latest - value:.6e} at iteration {iterations}; "
                    "the error model's step violates its descent contract"
                )
            cycle.append(g)
        else:
            del w  # drawn again from g if the proposal is dropped
            proposal, capped = _extrapolate(*cycle, step_max)
            cycle = [g]
            stepped = None
            low = float(proposal.min())
            if math.isfinite(low) and math.isfinite(float(proposal.max())):
                try:
                    stepped = advance(_softmax(np.subtract(proposal, low, out=proposal), alpha))
                    stepped += weigh(stepped[1])
                except (ModelError, NumericalError):
                    stepped = None
            del proposal
            if stepped is None or not stepped[3] < value:
                del stepped
                w = weigh(g)[0]  # the same _softmax of the same g: the weights released above
                step_max = max(1.0, step_max / 4.0)
                continue
            if capped:
                step_max *= 4.0
            theta, g, w, latest = stepped
            del stepped
            cycle = [g]
        trajectory.append(latest)
        delta, value = value - latest, latest
        if delta <= config.tol:
            termination = Termination.CONVERGED
            break

    return FitResult(
        alpha=alpha,
        weights=w,
        theta=theta,
        errors=g,
        objective_trajectory=np.asarray(trajectory),
        iterations=iterations,
        termination=termination,
    )
