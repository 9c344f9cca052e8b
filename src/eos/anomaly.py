"""Unsupervised anomaly detection on top of the Gaussian error model.

A fit concentrates weight on instances the Gaussian explains well; points
whose converged weight is far below the uniform share 1/T are flagged as
outliers, either by a relative threshold or by taking the k smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core import EosConfig, FitResult, Termination, effective_sample_size, fit
from .data import Dataset
from .exceptions import CalibrationError, InvalidConfigError, InvalidInputError
from .models import GaussianModel, GaussianParams, gaussian_error

__all__ = [
    "FlagRule",
    "OutlierReport",
    "AlphaCalibration",
    "detect",
    "flag_outliers",
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
    the bracket and ``alpha`` is the nearer bracket endpoint.  ``path``
    holds every probed (alpha, attained fraction) pair in probe order: the
    low end of the bracket, then the high end if probed, then each midpoint.
    ``probe_fits`` holds each probe's (iterations, termination), in the
    order of ``path``.  ``fit`` is the fit computed at ``alpha``, reused to
    flag outliers instead of fitting again.
    """

    alpha: float
    attained_fraction: float
    saturated: bool
    path: tuple[tuple[float, float], ...]
    probe_fits: tuple[tuple[int, Termination], ...]
    fit: FitResult = field(repr=False, compare=False)

    @property
    def monotone(self) -> bool:
        """False when a larger probed alpha attained a smaller fraction.

        The bisection assumes the ESS fraction of the fitted weights is
        non-decreasing in alpha.  That holds for a fixed theta, not in
        general, so it is checked along the path.
        """
        fractions = [fraction for _, fraction in sorted(self.path)]
        return all(a <= b for a, b in zip(fractions, fractions[1:]))


def detect(
    dataset: Dataset,
    config: EosConfig,
    rule: FlagRule = FlagRule.RELATIVE_THRESHOLD,
    rule_param: float = 0.1,
) -> OutlierReport:
    """Fit the Gaussian model at ``config.alpha`` and flag outliers from it.

    This is one ``fit`` followed by ``flag_outliers``.  After
    ``calibrate_alpha``, call ``flag_outliers`` on the calibration's fit
    instead: it is the fit this function would compute again.
    """
    result = fit(dataset, GaussianModel(), config)
    return flag_outliers(dataset, result, config.alpha, rule, rule_param)


def flag_outliers(
    dataset: Dataset,
    result: FitResult,
    alpha: float,
    rule: FlagRule = FlagRule.RELATIVE_THRESHOLD,
    rule_param: float = 0.1,
) -> OutlierReport:
    """Convert the converged weights of a Gaussian fit at ``alpha`` to flags.

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
        errors = gaussian_error(dataset, result.theta)
        order = np.lexsort((np.arange(n), -errors, w))
        flags = np.zeros(n, dtype=bool)
        flags[order[:k_eff]] = True

    return OutlierReport(
        weights=w,
        flags=flags,
        rule=rule,
        rule_param=float(rule_param),
        alpha_used=alpha,
        gaussian=result.theta,
        iterations=result.iterations,
        termination=result.termination,
    )


_BRACKET = (1e-6, 1e6)
_ESS_TOL = 0.01
_MAX_STEPS = 100


def calibrate_alpha(
    dataset: Dataset, target_ess_fraction: float, config: EosConfig
) -> AlphaCalibration:
    """Bisect log(alpha) so the fitted ESS fraction matches the target.

    The effective sample size exp(entropy(w)) divided by T is assumed
    non-decreasing in alpha, so a monotone bisection applies; the result's
    ``monotone`` reports whether the probes bore that out.  The bisection
    searches alpha in [1e-6, 1e6] and stops within 0.01 of the target, or
    raises ``CalibrationError`` after 100 steps.  If even the bracket
    endpoints cannot reach the target, the nearer endpoint is returned with
    ``saturated=True``.  The fit at the returned alpha, an endpoint
    included, is kept in the result.
    """
    if not (0.0 < target_ess_fraction <= 1.0):
        raise InvalidInputError(
            f"target ESS fraction must lie in (0, 1], got {target_ess_fraction!r}"
        )
    lo, hi = _BRACKET
    n = dataset.n_instances
    model = GaussianModel()
    path: list[tuple[float, float]] = []
    probe_fits: list[tuple[int, Termination]] = []

    def probe(alpha: float) -> AlphaCalibration:
        result = fit(dataset, model, replace(config, alpha=alpha))
        fraction = effective_sample_size(result.weights) / n
        path.append((alpha, fraction))
        probe_fits.append((result.iterations, result.termination))
        return AlphaCalibration(alpha, fraction, False, tuple(path), tuple(probe_fits), result)

    probed = probe(lo)
    excess = probed.attained_fraction - target_ess_fraction
    if excess >= 0.0:
        return replace(probed, saturated=excess > _ESS_TOL)
    probed = probe(hi)
    shortfall = target_ess_fraction - probed.attained_fraction
    if shortfall >= 0.0:
        return replace(probed, saturated=shortfall > _ESS_TOL)

    for _ in range(_MAX_STEPS):
        probed = probe(math.sqrt(lo * hi))
        if abs(probed.attained_fraction - target_ess_fraction) <= _ESS_TOL:
            return probed
        if probed.attained_fraction < target_ess_fraction:
            lo = probed.alpha
        else:
            hi = probed.alpha
    raise CalibrationError(
        f"ESS calibration did not converge in {_MAX_STEPS} steps "
        f"(achieved fraction {probed.attained_fraction:.4f}, target {target_ess_fraction})"
    )
