"""Row-normalized Gaussian affinities and their generalization.

For squared Euclidean errors the entropic weight update reproduces the
classic spherically-symmetric Gaussian affinity

    p(j | i) = exp(-||x_i - x_j||^2 / (2 sigma^2)) / sum_k exp(-||x_i - x_k||^2 / (2 sigma^2))

with sigma^2 = alpha / 2.  The same update applied to arbitrary per-pair
error values yields affinities for non-Euclidean costs.  The self pair
(i, i) is excluded from every row.

Perplexity mode picks each anchor's alpha by bisection, as in the
per-point perplexity search of t-SNE (van der Maaten 2014).  All rows are
calibrated together: each bisection step evaluates every row still
searching in one batch.  Error spreads from 1e-300 to 1e300 are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_alpha, _softmax, check_errors, w_step
from .data import Dataset
from .exceptions import CalibrationError, InvalidConfigError, InvalidInputError

__all__ = [
    "AffinityRow",
    "gaussian_affinity_row",
    "generalized_affinity_row",
    "calibrate_row_alpha",
    "affinity_rows",
]


@dataclass(frozen=True)
class AffinityRow:
    """One anchor's affinity distribution over the other T-1 instances.

    ``values[k]`` refers to neighbor ``j`` where j runs over all indices
    except the anchor, in ascending order.  ``sigma_sq`` is only set when
    the underlying errors are squared Euclidean distances.
    """

    anchor_index: int
    values: np.ndarray
    sigma_sq: float | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1 or values.size < 1:
            raise InvalidInputError(f"values must be a non-empty vector, got shape {values.shape}")
        if np.any(values < 0) or abs(float(values.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("affinity values must be non-negative and sum to 1")
        if self.sigma_sq is not None and not (self.sigma_sq > 0):
            raise InvalidInputError(f"sigma_sq must be positive, got {self.sigma_sq!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def neighbor_indices(self) -> np.ndarray:
        """Dataset indices the entries of ``values`` refer to."""
        n = self.values.size + 1
        return np.delete(np.arange(n), self.anchor_index)


def _squared_distances_from(dataset: Dataset, i: int) -> np.ndarray:
    diff = dataset.instances - dataset.instances[i]
    sq = np.einsum("ij,ij->i", diff, diff)
    return np.delete(sq, i)


def gaussian_affinity_row(dataset: Dataset, i: int, sigma_sq: float) -> AffinityRow:
    """Gaussian affinity row for anchor i with bandwidth sigma^2.

    Identical to ``w_step`` on the squared distances with alpha = 2*sigma^2,
    including the stabilization.
    """
    if dataset.n_instances < 2:
        raise InvalidInputError("at least two instances are required for an affinity row")
    if not 0 <= i < dataset.n_instances:
        raise InvalidInputError(f"anchor index {i} out of range for T={dataset.n_instances}")
    if not (isinstance(sigma_sq, (int, float)) and math.isfinite(sigma_sq) and sigma_sq > 0):
        raise InvalidConfigError(f"sigma_sq must be a positive finite real, got {sigma_sq!r}")
    values = w_step(_squared_distances_from(dataset, i), 2.0 * float(sigma_sq))
    return AffinityRow(anchor_index=i, values=values, sigma_sq=float(sigma_sq))


def generalized_affinity_row(
    errors_for_anchor: np.ndarray,
    alpha: float,
    *,
    anchor_index: int = 0,
    squared_euclidean: bool = False,
) -> AffinityRow:
    """Affinity row for arbitrary per-neighbor error values.

    ``sigma_sq`` is reported as alpha/2 only when the caller declares the
    errors to be squared Euclidean distances; for other costs there is no
    bandwidth interpretation.
    """
    values = w_step(errors_for_anchor, alpha)
    sigma_sq = float(alpha) / 2.0 if squared_euclidean else None
    return AffinityRow(anchor_index=anchor_index, values=values, sigma_sq=sigma_sq)


# Rows are weighted by ``core._softmax``, the kernel of ``w_step``.  Only the
# batched entropy ``_perplexity`` repeats ``shannon_entropy``'s arithmetic, as
# it sums all rows in one ``np.add.reduceat`` call, not one ``np.sum`` each.
# A row's alpha and values do not depend on which rows share its batch.
_REL_TOL = 1e-4
_MAX_STEPS = 256
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
_SMALLEST = math.ulp(0.0)


def _perplexity(w: np.ndarray) -> list[float]:
    """exp(``shannon_entropy``) of each row of ``w``."""
    pos = w > 0
    wp = w[pos]
    terms = np.log(wp)
    terms *= wp
    del wp
    counts = pos.sum(axis=1)
    first = np.cumsum(counts) - counts
    # np.sum adds a vector to 0.0, while reduceat starts each segment from its
    # first element; a leading zero per row makes the two sums bit-identical.
    terms = np.insert(terms, first, 0.0)
    sums = np.add.reduceat(terms, first + np.arange(first.size))
    return [math.exp(max(-s, 0.0)) for s in sums.tolist()]


def _geometric_mid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        prod = lo * hi
    # lo*hi overflows for spreads above about 1e154 and underflows below
    # about 1e-154; only there are the square roots taken first.
    normal = (prod >= _TINY) & (prod <= _HUGE)
    return np.where(normal, np.sqrt(prod), np.sqrt(lo) * np.sqrt(hi))


def _calibrate(
    shifted: np.ndarray, target_perplexity: float
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Bisect log(alpha) of every row of ``shifted`` (R x n) at once.

    Each row holds finite errors shifted to a zero minimum.  Returns each
    row's alpha, the row's w-step at that alpha, and the rows that cannot be
    calibrated, each with the reason.
    """
    n_rows, n = shifted.shape
    if not (1.0 <= target_perplexity <= n):
        raise InvalidInputError(
            f"target perplexity must lie in [1, {n}] for {n} neighbors, got {target_perplexity!r}"
        )
    target = float(target_perplexity)
    tol = _REL_TOL * target
    spread = shifted.max(axis=1)
    alpha = np.ones(n_rows)
    values = np.empty_like(shifted)
    failures: dict[int, str] = {}

    flat = spread == 0.0
    if abs(n - target) > tol:
        for i in np.flatnonzero(flat).tolist():
            failures[i] = (
                f"all neighbor errors are identical; only perplexity {n} is achievable "
                f"(target {target})"
            )

    active = np.flatnonzero(~flat)
    # The bracket spread*1e-12 .. spread*1e12, kept off 0 and inf.
    lo = np.maximum(spread[active] * 1e-12, _SMALLEST)
    with np.errstate(over="ignore"):
        hi = np.minimum(spread[active] * 1e12, _HUGE)
    p_lo = _perplexity(_softmax(shifted[active], lo[:, None]))
    p_hi = _perplexity(_softmax(shifted[active], hi[:, None]))
    searching = []
    for k, i in enumerate(active.tolist()):
        achievable = f"achievable range [{p_lo[k]:.6g}, {p_hi[k]:.6g}]"
        if target < p_lo[k] - tol:
            failures[i] = (
                f"target perplexity {target} below {achievable} (duplicate smallest errors)"
            )
        elif target > p_hi[k] + tol:
            failures[i] = f"target perplexity {target} above {achievable}"
        elif abs(p_lo[k] - target) <= tol:
            alpha[i] = lo[k]
        elif abs(p_hi[k] - target) <= tol:
            alpha[i] = hi[k]
        else:
            searching.append(k)
    settled = np.setdiff1d(np.arange(n_rows), active[searching])
    values[settled] = _softmax(shifted[settled], alpha[settled, None])
    active, lo, hi = active[searching], lo[searching], hi[searching]
    achieved = np.asarray(p_lo)[searching]

    for _ in range(_MAX_STEPS):
        if active.size == 0:
            break
        mid = _geometric_mid(lo, hi)
        w = _softmax(shifted[active], mid[:, None])
        achieved = np.asarray(_perplexity(w))
        done = np.abs(achieved - target) <= tol
        alpha[active[done]], values[active[done]] = mid[done], w[done]
        below = achieved < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        active, lo, hi, achieved = active[~done], lo[~done], hi[~done], achieved[~done]
    for i, reached in zip(active.tolist(), achieved.tolist()):
        failures[i] = (
            f"perplexity calibration did not converge in {_MAX_STEPS} steps "
            f"(achieved {reached:.6g}, target {target})"
        )
    return alpha, values, failures


def calibrate_row_alpha(errors_for_anchor: np.ndarray, target_perplexity: float) -> float:
    """Bisect log(alpha) until exp(row entropy) matches the target perplexity.

    The perplexity of a row is non-decreasing in alpha, ranging from the
    multiplicity of the smallest error up to the number of neighbors.
    Targets outside that range raise ``CalibrationError`` naming the
    achievable interval.  The bracket is [spread*1e-12, spread*1e12] for the
    spread max - min of the errors; spreads from 1e-300 to 1e300 calibrate.
    The bisection stops within a relative 1e-4 of the target, or raises
    ``CalibrationError`` after 256 steps.
    This is the one-row case of the batched bisection in ``affinity_rows``
    and returns the same alpha as that row there.
    """
    g = check_errors(errors_for_anchor)
    shifted = (g - g.min())[np.newaxis]
    alphas, _, failures = _calibrate(shifted, target_perplexity)
    if failures:
        raise CalibrationError(failures[0])
    return float(alphas[0])


def affinity_rows(
    dataset: Dataset,
    *,
    sigma_sq: float | None = None,
    alpha: float | None = None,
    perplexity: float | None = None,
) -> list[AffinityRow]:
    """All T rows of the affinity matrix, under exactly one bandwidth mode.

    ``sigma_sq`` or ``alpha`` fix a shared bandwidth (alpha = 2*sigma_sq);
    ``perplexity`` calibrates alpha per anchor, all rows in one batched
    bisection.  Each row equals ``gaussian_affinity_row`` or
    ``generalized_affinity_row`` at ``calibrate_row_alpha`` of that row, bit
    for bit.  A row that cannot be calibrated raises ``CalibrationError``
    naming the lowest such anchor.
    """
    chosen = [v for v in (sigma_sq, alpha, perplexity) if v is not None]
    if len(chosen) != 1:
        raise InvalidConfigError(
            "exactly one of sigma_sq, alpha, or perplexity must be given"
        )
    t = dataset.n_instances
    if t < 2:
        raise InvalidInputError("at least two instances are required for affinities")
    if perplexity is None:
        ssq = float(sigma_sq) if sigma_sq is not None else float(alpha) / 2.0
        if not (math.isfinite(ssq) and ssq > 0):
            raise InvalidConfigError(f"sigma_sq must be a positive finite real, got {ssq!r}")

    errors = np.empty((t, t - 1))
    for i in range(t):
        errors[i] = _squared_distances_from(dataset, i)
    finite = np.isfinite(errors).all(axis=1)
    if not finite.all():
        check_errors(errors[np.argmin(finite)])  # raises, naming the entry
    errors -= errors.min(axis=1, keepdims=True)  # the shift of w_step: row minima are 0

    if perplexity is None:
        values = _softmax(errors, _check_alpha(2.0 * ssq))
        return [AffinityRow(anchor_index=i, values=values[i], sigma_sq=ssq) for i in range(t)]

    alphas, values, failures = _calibrate(errors, perplexity)
    if failures:
        first = min(failures)
        raise CalibrationError(f"anchor {first}: {failures[first]}")
    return [
        AffinityRow(anchor_index=i, values=values[i], sigma_sq=float(alphas[i]) / 2.0)
        for i in range(t)
    ]
