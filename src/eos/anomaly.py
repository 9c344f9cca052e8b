"""Unsupervised anomaly detection on top of the Gaussian error model.

A fit concentrates weight on instances the Gaussian explains well; points
whose converged weight is far below the uniform share 1/T are flagged as
outliers, either by a relative threshold or by taking the k smallest.
Flags read only a fit's weights and errors, so any model's fit can be
flagged; ``detect`` returns the fit beside its flags, and
``AlphaCalibration`` holds its fit rather than copies of the fit's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core import EosConfig, FitResult, Termination, _check_real, _ess, _positive, _softmax, fit
from .data import Dataset
from .exceptions import CalibrationError, InvalidConfigError, InvalidInputError
from .models import GaussianModel

__all__ = [
    "FlagRule",
    "AlphaCalibration",
    "check_flag_rule",
    "detect",
    "flag_outliers",
    "calibrate_alpha",
]


class FlagRule(str, Enum):
    RELATIVE_THRESHOLD = "relative_threshold"
    TOP_K = "top_k"


@dataclass(frozen=True)
class AlphaCalibration:
    """Result of the ESS-fraction bisection.

    ``saturated`` is the warning flag: the target was unattainable inside
    the bracket and ``fit.alpha`` is the nearer bracket endpoint.  ``path``
    holds every probed (alpha, attained fraction) pair in probe order.  The
    probes are nodes of the bisection, its first midpoint first: the nodes
    that decided the result, the returned alpha among them, not every node
    the bisection passed.  ``probe_fits`` holds each probe's
    (iterations, termination), in the order of ``path``.  ``fit`` is the
    fit at the calibrated alpha, ``fit.alpha``: flag outliers from it.
    """

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
        general, so it is checked along the path.  Only the probes are
        checked: nodes the search settled without a fit are not.
        """
        fractions = [fraction for _, fraction in sorted(self.path)]
        return all(a <= b for a, b in zip(fractions, fractions[1:]))


def detect(
    dataset: Dataset,
    config: EosConfig,
    rule: FlagRule = FlagRule.RELATIVE_THRESHOLD,
    rule_param: float = 0.1,
) -> tuple[FitResult, np.ndarray]:
    """Fit the Gaussian model at ``config.alpha`` and flag outliers from it.

    This is one ``fit`` followed by ``flag_outliers``; it returns that fit
    and its flags.  The rule and T >= D+2 are checked before the fit.  After
    ``calibrate_alpha``, call ``flag_outliers`` on the calibration's fit
    instead: it is the fit this function would compute again.
    """
    check_flag_rule(rule, rule_param)
    _check_enough_instances(dataset)
    result = fit(dataset, GaussianModel(), config)
    return result, flag_outliers(result, rule, rule_param)


def flag_outliers(
    result: FitResult,
    rule: FlagRule = FlagRule.RELATIVE_THRESHOLD,
    rule_param: float = 0.1,
) -> np.ndarray:
    """The read-only binary flags of a fit's converged weights, T = ``result.weights.size``.

    RELATIVE_THRESHOLD flags instances with weight below rule_param/T.
    TOP_K flags the min(rule_param, T-1) smallest weights, breaking ties by
    larger error and then, as the sort is stable, by smaller index.  Any
    error model's fit can be flagged.
    """
    rule, param = check_flag_rule(rule, rule_param)
    w = result.weights
    n = w.size

    if rule is FlagRule.RELATIVE_THRESHOLD:
        flags = w < param / n
        if bool(flags.all()):
            # Defensive: never flag everything, keep the best-explained point.
            flags[int(np.argmax(w))] = False
    else:
        k_eff = min(param, n - 1)
        flags = np.zeros(n, dtype=bool)
        if k_eff:
            # Only weights at or below the k-th smallest can be flagged.  Sorting
            # just those, in index order, keeps the full sort's order of them and
            # so its tie rules; a NaN weight stays a candidate, as it sorts last.
            kth = np.partition(w, k_eff - 1)[k_eff - 1]
            candidates = np.flatnonzero(~(w > kth))
            order = np.lexsort((-result.errors[candidates], w[candidates]))
            flags[candidates[order[:k_eff]]] = True

    flags.setflags(write=False)
    return flags


def _check_enough_instances(dataset: Dataset) -> None:
    """T >= D+2, the least a stable covariance needs; checked before any fit."""
    n, d = dataset.n_instances, dataset.n_features
    if n < d + 2:
        raise InvalidInputError(
            f"need at least D+2 = {d + 2} instances for a stable covariance, got T={n}")


def check_flag_rule(rule: FlagRule, rule_param: float) -> tuple[FlagRule, float | int]:
    """The rule and its parameter: a finite positive relative threshold as a
    float, or a non-negative top-k count, given as an int or an integral
    float, as an int.  Anything else raises ``InvalidConfigError``.  Call it
    before a fit whose weights will be flagged, as ``detect`` does."""
    try:
        rule = FlagRule(rule)
    except ValueError:
        raise InvalidConfigError(
            f"rule must be one of {[r.value for r in FlagRule]}, got {rule!r}") from None
    if rule is FlagRule.RELATIVE_THRESHOLD:
        return rule, _check_real(
            rule_param, _positive, InvalidConfigError, "relative threshold must be positive")
    count = _check_real(rule_param, lambda c: c >= 0 and c.is_integer(), InvalidConfigError,
                        "top-k count must be a non-negative integer")
    return rule, int(count)


_BRACKET = (1e-6, 1e6)
_ESS_TOL = 0.01

# Verdicts at a node of the bisection: raise the low end, stop, or lower the
# high end.  An endpoint that does not stop leaves the bracket as it is.
_LOW, _STOP, _HIGH = -1, 0, 1


def _probe(dataset: Dataset, config: EosConfig) -> tuple[float, FitResult]:
    """One cold Gaussian fit at ``config.alpha`` and its ESS fraction."""
    result = fit(dataset, GaussianModel(), config)
    return _ess(result.weights) / dataset.n_instances, result


def calibrate_alpha(
    dataset: Dataset, target_ess_fraction: float, config: EosConfig
) -> AlphaCalibration:
    """Bisect log(alpha) so the fitted ESS fraction matches the target.

    The bisection searches alpha in [1e-6, 1e6] and stops within 0.01 of the
    target.  It raises ``CalibrationError`` once the bracket has closed to
    two neighbouring floats, within about 60 midpoints: the fraction then
    jumps across the target between them, and no alpha reaches it.  If even
    the bracket endpoints cannot reach the target, the nearer endpoint is
    returned with ``saturated=True``.  The fit at the returned alpha, an
    endpoint included, is kept in the result.  Like ``detect``, it raises
    ``InvalidInputError`` before any fit unless T >= D+2.

    The effective sample size exp(entropy(w)) divided by T is assumed
    non-decreasing in alpha; the result's ``monotone`` reports whether the
    probes bore that out.  Under that assumption the fractions fitted so far
    bound the fraction at every other node, and where both bounds give the
    bisection the same verdict the node needs no fit.  The search replays
    the bisection, guessing each unsettled verdict from a surrogate (the ESS
    fraction of ``w_step`` on the latest fit's errors, theta held fixed),
    and fits one guessed node per round until the replay guesses none.  So
    with monotone fractions it returns exactly what fitting every node
    returns, the same alpha, fraction, flag and fit or the same error, from
    fewer fits.
    """
    target = _check_real(target_ess_fraction, lambda f: 0.0 < f <= 1.0, InvalidInputError,
                         "target ESS fraction must lie in (0, 1]")
    _check_enough_instances(dataset)
    probe_fits: list[tuple[int, Termination]] = []
    # Each probe's fraction by alpha, in probe order.
    fractions: dict[float, float] = {}
    # Only fits that could be returned are kept: within the band, or at an endpoint.
    returnable: dict[float, FitResult] = {}
    errors = least = None

    def probe(alpha: float) -> None:
        nonlocal errors, least
        fraction, result = _probe(dataset, replace(config, alpha=alpha))
        probe_fits.append((result.iterations, result.termination))
        fractions[alpha] = fraction
        if alpha in _BRACKET or abs(fraction - target) <= _ESS_TOL:
            returnable[alpha] = result
        errors = result.errors
        least = float(errors.min())

    def verdict(alpha: float, fraction: float) -> int:
        """The bisection's verdict at a node; it never falls as the fraction rises."""
        if alpha == _BRACKET[0]:
            return _STOP if fraction >= target else _LOW
        if alpha == _BRACKET[1]:
            return _STOP if fraction <= target else _HIGH
        if abs(fraction - target) <= _ESS_TOL:
            return _STOP
        return _LOW if fraction < target else _HIGH

    def settled(alpha: float) -> int | None:
        """The verdict at a node if the fits made so far settle it, else None."""
        if alpha in fractions:
            return verdict(alpha, fractions[alpha])
        floor = max((f for a, f in fractions.items() if a < alpha), default=-math.inf)
        ceiling = min((f for a, f in fractions.items() if a > alpha), default=math.inf)
        low, high = verdict(alpha, floor), verdict(alpha, ceiling)
        return low if low == high else None

    def replay() -> tuple[list[tuple[float, int]], tuple[float, ...]]:
        """The bisection walked on settled verdicts and surrogate guesses.

        Returns the guessed (alpha, verdict) nodes in walk order and the
        nodes the walk ends on: the node that stops it, or the two
        neighbouring floats of a jump.
        """
        guesses = []

        def judge(alpha: float) -> int:
            known = settled(alpha)
            if known is not None:
                return known
            guess = verdict(alpha, _ess(_softmax(errors - least, alpha)) / len(errors))
            guesses.append((alpha, guess))
            return guess

        for end in _BRACKET:
            if judge(end) == _STOP:
                return guesses, (end,)
        low, high = _BRACKET
        while True:
            alpha = math.sqrt(low * high)
            if alpha in (low, high):
                return guesses, (low, high)
            side = judge(alpha)
            if side == _STOP:
                return guesses, (alpha,)
            if side == _LOW:
                low = alpha
            else:
                high = alpha

    def next_probe(guesses: list[tuple[float, int]]) -> tuple[float, int]:
        """The smallest guessed high node, else the largest guessed low node,
        else the guessed stop, else a guessed endpoint."""
        midpoints = [g for g in guesses if g[0] not in _BRACKET]
        highs = [g for g in midpoints if g[1] == _HIGH]
        lows = [g for g in midpoints if g[1] == _LOW]
        return min(highs) if highs else max(lows) if lows else (midpoints or guesses)[-1]

    probe(math.sqrt(_BRACKET[0] * _BRACKET[1]))
    mispredicted = False
    while True:
        guesses, end = replay()
        if guesses:
            # Once the surrogate has misled, probe in the bisection's own order:
            # guessing on would probe ever closer floats around one node.
            alpha, guess = guesses[0] if mispredicted else next_probe(guesses)
            probe(alpha)
            mispredicted = mispredicted or verdict(alpha, fractions[alpha]) != guess
        elif missing := [alpha for alpha in end if alpha not in fractions]:
            probe(missing[0])
        else:
            break

    if len(end) == 2:
        low, high = end
        raise CalibrationError(
            f"ESS fraction jumps from {fractions[low]:.4f} at alpha={low!r} "
            f"to {fractions[high]:.4f} at alpha={high!r} with no float between "
            f"them, so no alpha attains the target {target} within {_ESS_TOL}; "
            "choose a target outside that jump"
        )
    (alpha,) = end
    fraction = fractions[alpha]
    # An endpoint stops on the far side of the target, a midpoint within the band.
    saturated = abs(fraction - target) > _ESS_TOL
    return AlphaCalibration(
        fraction, saturated, tuple(fractions.items()), tuple(probe_fits), returnable[alpha]
    )
