"""Unsupervised anomaly detection on top of the Gaussian error model.

A fit concentrates weight on instances the Gaussian explains well; points
whose converged weight is far below the uniform share 1/T are flagged as
outliers, either by a relative threshold or by taking the k smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import EosConfig, Termination, effective_sample_size, fit
from .data import Dataset
from .exceptions import CalibrationError, InvalidConfigError, InvalidInputError
from .models import GaussianModel, GaussianParams

__all__ = [
    "FlagRule",
    "OutlierReport",
    "AlphaCalibration",
    "detect",
    "calibrate_alpha",
]


class FlagRule(str, Enum):
    RELATIVE_THRESHOLD = "relative_threshold"
    TOP_K = "top_k"


@dataclass(frozen=True)
class OutlierReport:
    """Fitted weights, the binary flags derived from them, and how the fit ended."""

    weights: np.ndarray
    flags: np.ndarray
    rule: FlagRule
    rule_param: float
    alpha_used: float
    gaussian: GaussianParams
    iterations: int
    termination: Termination

    def __post_init__(self) -> None:
        flags = np.array(self.flags, dtype=bool, copy=True)
        if flags.shape != self.weights.shape:
            raise InvalidInputError("flags and weights must have the same length")
        if bool(flags.all()):
            raise InvalidInputError("an outlier report must never flag every instance")
        flags.setflags(write=False)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "rule", FlagRule(self.rule))

    @property
    def n_flagged(self) -> int:
        return int(self.flags.sum())


@dataclass(frozen=True)
class AlphaCalibration:
    """Result of the ESS-fraction bisection.

    ``saturated`` is the warning flag: the target was unattainable inside
    the bracket and ``alpha`` is the nearer bracket endpoint.
    """

    alpha: float
    attained_fraction: float
    saturated: bool


def detect(
    dataset: Dataset,
    config: EosConfig,
    rule: FlagRule = FlagRule.RELATIVE_THRESHOLD,
    rule_param: float = 0.1,
) -> OutlierReport:
    """Fit the Gaussian model and convert converged weights to flags.

    RELATIVE_THRESHOLD flags instances with weight below rule_param/T.
    TOP_K flags the rule_param smallest weights, breaking ties by larger
    error and then by smaller index; exactly min(k, T-1) flags are set.
    """
    n, d = dataset.n_instances, dataset.n_features
    if n < d + 2:
        raise InvalidInputError(
            f"need at least D+2 = {d + 2} instances for a stable covariance, got T={n}"
        )
    rule = FlagRule(rule)
    model = GaussianModel()
    result = fit(dataset, model, config)
    w = result.weights

    if rule is FlagRule.RELATIVE_THRESHOLD:
        kappa = float(rule_param)
        if not (math.isfinite(kappa) and kappa > 0):
            raise InvalidConfigError(f"relative threshold must be positive, got {rule_param!r}")
        flags = w < kappa / n
        if bool(flags.all()):
            # Defensive: never flag everything, keep the best-explained point.
            flags = flags.copy()
            flags[int(np.argmax(w))] = False
    else:
        k = int(rule_param)
        if k < 0 or k != rule_param:
            raise InvalidConfigError(f"top-k count must be a non-negative integer, got {rule_param!r}")
        k_eff = min(k, n - 1)
        errors = model.evaluate(dataset, result.theta)
        order = np.lexsort((np.arange(n), -errors, w))
        flags = np.zeros(n, dtype=bool)
        flags[order[:k_eff]] = True

    return OutlierReport(
        weights=w,
        flags=flags,
        rule=rule,
        rule_param=float(rule_param),
        alpha_used=config.alpha,
        gaussian=result.theta,
        iterations=result.iterations,
        termination=result.termination,
    )


def calibrate_alpha(
    dataset: Dataset,
    target_ess_fraction: float,
    config: EosConfig,
    *,
    bracket: tuple[float, float] = (1e-6, 1e6),
    tol: float = 0.01,
    max_steps: int = 100,
) -> AlphaCalibration:
    """Bisect log(alpha) so the fitted ESS fraction matches the target.

    The effective sample size exp(entropy(w)) divided by T is non-decreasing
    in alpha, so a monotone bisection applies.  If even the bracket endpoints
    cannot reach the target, the nearer endpoint is returned with
    ``saturated=True``.
    """
    if not (0.0 < target_ess_fraction <= 1.0):
        raise InvalidInputError(
            f"target ESS fraction must lie in (0, 1], got {target_ess_fraction!r}"
        )
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise InvalidConfigError(f"invalid bracket {bracket!r}")
    n = dataset.n_instances
    model = GaussianModel()

    def fraction(alpha: float) -> float:
        result = fit(dataset, model, replace(config, alpha=alpha))
        return effective_sample_size(result.weights) / n

    f_lo = fraction(lo)
    if f_lo >= target_ess_fraction:
        return AlphaCalibration(lo, f_lo, saturated=f_lo - target_ess_fraction > tol)
    f_hi = fraction(hi)
    if f_hi <= target_ess_fraction:
        return AlphaCalibration(hi, f_hi, saturated=target_ess_fraction - f_hi > tol)

    achieved = f_hi
    for _ in range(max_steps):
        mid = math.sqrt(lo * hi)
        achieved = fraction(mid)
        if abs(achieved - target_ess_fraction) <= tol:
            return AlphaCalibration(mid, achieved, saturated=False)
        if achieved < target_ess_fraction:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"ESS calibration did not converge in {max_steps} steps "
        f"(achieved fraction {achieved:.4f}, target {target_ess_fraction})"
    )
