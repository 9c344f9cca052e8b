"""Row-normalized Gaussian affinities and their generalization.

For squared Euclidean errors the entropic weight update reproduces the
classic spherically-symmetric Gaussian affinity

    p(j | i) = exp(-||x_i - x_j||^2 / (2 sigma^2)) / sum_k exp(-||x_i - x_k||^2 / (2 sigma^2))

with sigma^2 = alpha / 2.  A row is a plain vector over the T-1 other
instances in ascending order: the self pair (i, i) is excluded.  For
arbitrary per-pair errors a generalized row is ``w_step`` on the anchor's
errors, at ``calibrate_row_alpha`` of them for a perplexity target.

Perplexity mode picks each anchor's alpha so that exp(entropy) of its row
hits the target, the per-point search of SNE and t-SNE (Hinton and Roweis
2002; van der Maaten and Hinton 2008), here by safeguarded Newton steps on
log(alpha).  ``affinity_blocks`` computes the rows one block of anchors at
a time, a fixed number of floats per block, and each step evaluates every
row of the block still searching in one batch.  A row's alpha and values
do not depend on its block, and memory does not grow with T^2.  Error
spreads from 1e-300 to 1e300 are supported.  A ``Dataset``'s bound keeps
squared distances below about 9e307, where the bracket's top is cut at the
float maximum and perplexities near the number of neighbors may not be met.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .core import _check_int, _check_real, _checked_errors, _softmax
from .data import _FLOAT_MAX, Dataset
from .exceptions import CalibrationError, InvalidConfigError, InvalidInputError
from .models import _quadratic_form

__all__ = ["gaussian_affinity_row", "calibrate_row_alpha", "affinity_blocks"]


def _check_sigma_sq(sigma_sq: float) -> float:
    """sigma_sq as a float: a positive real whose alpha = 2*sigma_sq is finite."""
    return _check_real(sigma_sq, lambda s: 0 < s <= _FLOAT_MAX / 2, InvalidConfigError,
                       f"sigma_sq must be a real in (0, {_FLOAT_MAX / 2!r}]")


def _check_perplexity(target_perplexity: float, n: int) -> float:
    """target_perplexity as a float: a real in [1, n] for n neighbors."""
    return _check_real(target_perplexity, lambda p: 1 <= p <= n, InvalidInputError,
                       f"target perplexity must be a real in [1, {n}] for {n} neighbors")


def gaussian_affinity_row(dataset: Dataset, i: int, sigma_sq: float) -> np.ndarray:
    """Gaussian affinity row for anchor i with bandwidth sigma^2: its T-1
    values, neighbors in ascending order, the anchor left out.

    Identical to ``w_step`` on the squared distances with alpha = 2*sigma^2,
    including the stabilization: the one-anchor block of ``affinity_blocks``.
    """
    # Checked here too: None is a bad sigma_sq, not another bandwidth mode.
    ssq = _check_sigma_sq(sigma_sq)
    i = _check_int(i, lambda _: True, InvalidInputError, "anchor index must be an integer")
    [(_, values, _)] = affinity_blocks(dataset, sigma_sq=ssq, anchors=range(i, i + 1))
    return values[0]


# Each row's log(alpha) is found by Newton's method inside the bracket
# [spread*1e-12, spread*1e12] (Numerical Recipes' rtsafe): H rises with alpha,
# and dH/dlog(alpha) is the weighted variance of g/alpha.  A step bisects the
# log-bracket instead when the Newton point leaves the open bracket, or when
# it is longer than half the step before the last, so a stalling Newton
# sequence falls back to bisection.  Only the rows still searching after the
# last step are evaluated at their bracket ends, to word why they failed.
# Every reduction runs along a row, so a row's alpha and values do not
# depend on which rows share its batch.
_REL_TOL = 1e-4
_MAX_STEPS = 256
# The least alpha whose half, sigma_sq, is positive: half of 5e-324 rounds to 0.
_LEAST_ALPHA = 2 * math.ulp(0.0)


def _entropy_pass(rows: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The w-step, entropy H and dH/dlog(alpha) of each row of ``rows``
    (R x n, errors shifted to a zero minimum) at the (R, 1) column ``alpha``.

    ``rows`` is overwritten with u = g/alpha.  w = exp(-u)/S with
    S = sum(exp(-u)) equals ``_softmax`` bit for bit, as dividing by -alpha is
    exact negation.  H = log(S) + w.u and dH/dlog(alpha) = Var_w(u); u lies in
    [0, spread/alpha], so neither overflows.  The dot products are summed
    with ``np.sum``: ``einsum`` buffers rows longer than 8192, and then sums a
    row differently when it shares a batch.
    """
    u = rows
    u /= alpha
    w = np.negative(u)
    np.exp(w, out=w)
    total = w.sum(axis=1)
    w /= total[:, None]
    terms = w * u
    mean = terms.sum(axis=1)
    entropy = np.log(total) + mean
    np.subtract(u, mean[:, None], out=terms)
    terms *= terms
    terms *= w
    return w, entropy, terms.sum(axis=1)


def _calibrate(
    shifted: np.ndarray, target: float
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Find log(alpha) of every row of ``shifted`` (R x n) at once by
    safeguarded Newton.

    Each row holds finite errors shifted to a zero minimum, and ``target``
    is a perplexity in [1, n].  Returns each row's alpha, the row's w-step
    at that alpha, and the rows that cannot be calibrated, each with the
    reason.  A flat row is uniform at alpha = 1 and fails unless the target
    is n; every other row searches until it meets the target, and a row
    still searching after the last step fails with the reason its bracket
    ends give.
    """
    n_rows, n = shifted.shape
    tol = _REL_TOL * target
    log_target = math.log(target)
    spread = shifted.max(axis=1)
    alpha = np.ones(n_rows)
    values = np.empty_like(shifted)
    failures: dict[int, str] = {}

    flat = spread == 0.0
    values[flat] = _softmax(shifted[flat], 1.0)
    if abs(n - target) > tol:
        for i in np.flatnonzero(flat).tolist():
            failures[i] = (
                f"all neighbor errors are identical; only perplexity {n} is achievable "
                f"(target {target})"
            )

    active = np.flatnonzero(~flat)
    # The bracket spread*1e-12 .. spread*1e12, kept off 0 and inf.
    lo = np.maximum(spread[active] * 1e-12, _LEAST_ALPHA)
    with np.errstate(over="ignore"):
        hi = np.minimum(spread[active] * 1e12, _FLOAT_MAX)
    # Start from half the target-th smallest error, where about target
    # neighbors carry weight; a start outside the open bracket bisects it.
    kth = min(int(target), n) - 1
    start = np.partition(shifted[active], kth, axis=1)[:, kth] / 2.0
    log_lo, log_hi = np.log(lo), np.log(hi)
    with np.errstate(divide="ignore"):
        x = np.where((start > lo) & (start < hi), np.log(start), 0.5 * (log_lo + log_hi))
    last = before = log_hi - log_lo
    for _ in range(_MAX_STEPS):
        if active.size == 0:
            return alpha, values, failures
        a = np.exp(x)
        w, entropy, slope = _entropy_pass(shifted[active], a[:, None])
        achieved = np.exp(entropy)
        done = np.abs(achieved - target) <= tol
        alpha[active[done]], values[active[done]] = a[done], w[done]
        below = entropy < log_target
        log_lo, log_hi = np.where(below, x, log_lo), np.where(below, log_hi, x)
        with np.errstate(all="ignore"):  # a zero slope gives no Newton point
            step = (log_target - entropy) / slope
            newton = (x + step > log_lo) & (x + step < log_hi) & (np.abs(step) <= 0.5 * before)
        following = np.where(newton, x + step, 0.5 * (log_lo + log_hi))
        before, last = last, np.abs(following - x)
        keep = ~done
        active, x, lo, hi, log_lo, log_hi, before, last, achieved = (
            v[keep] for v in (active, following, lo, hi, log_lo, log_hi, before, last, achieved)
        )
    p_lo = np.exp(_entropy_pass(shifted[active], lo[:, None])[1]).tolist()
    p_hi = np.exp(_entropy_pass(shifted[active], hi[:, None])[1]).tolist()
    for i, low, high, reached in zip(active.tolist(), p_lo, p_hi, achieved.tolist()):
        achievable = f"achievable range [{low:.6g}, {high:.6g}]"
        if target < low - tol:
            failures[i] = (
                f"target perplexity {target} below {achievable} (duplicate smallest errors)"
            )
        elif target > high + tol:
            failures[i] = f"target perplexity {target} above {achievable}"
        else:
            failures[i] = (
                f"perplexity calibration did not converge in {_MAX_STEPS} steps "
                f"(achieved {reached:.6g}, target {target})"
            )
    return alpha, values, failures


def calibrate_row_alpha(errors_for_anchor: np.ndarray, target_perplexity: float) -> float:
    """Solve for alpha at which exp(row entropy) matches the target perplexity.

    The perplexity of a row is non-decreasing in alpha, ranging from the
    multiplicity of the smallest error up to the number of neighbors.  The
    bracket is [spread*1e-12, spread*1e12] for the spread max - min of the
    errors; spreads from 1e-300 to 1e300 calibrate.  Newton steps on
    log(alpha), bisecting the bracket whenever a step would leave it or
    stalls, stop within a relative 1e-4 of the target, so a target at an end
    of the achievable range gets an alpha inside the bracket.  A search that
    has not stopped after 256 steps raises ``CalibrationError``: naming the
    achievable interval when the target lies outside it, else the perplexity
    reached.
    This is the one-row case of the batched search in ``affinity_blocks``
    and returns the same alpha as that row there.
    """
    g, low = _checked_errors(errors_for_anchor)
    target = _check_perplexity(target_perplexity, g.size)
    alphas, _, failures = _calibrate((g - low)[np.newaxis], target)
    if failures:
        raise CalibrationError(failures[0])
    return float(alphas[0])


# Floats per anchor block: rows of T - 1 errors, at least one row.  Drawing
# every block at T = 1000 and 3000 (perplexity 30, D = 10, one BLAS thread
# on 2 cores) took a median 0.14 and 1.24 s in blocks of 2**14 floats, 0.12
# and 1.03 s in blocks of 2**16, 0.24 and 1.38 s in blocks of 4 anchors and
# 0.16 and 2.12 s in one batch.  Whole `eos affinity` runs at T = 3000 were
# no faster with 2**16, whose peak RSS was 2.6 MB higher.
_BLOCK_FLOATS = 2**14


def _anchor_block(
    x: np.ndarray, anchors: range, alpha: float | None, perplexity: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """The values (R x T-1) and sigma_sq (R,) of the rows of ``anchors`` over
    the instances ``x``, at the shared ``alpha`` or, when it is None,
    calibrated to ``perplexity``.  Squared distances come from the blocked
    ``_quadratic_form``, kept finite by the bound of ``Dataset`` instances."""
    shifted = np.empty((len(anchors), x.shape[0] - 1))
    for k, i in enumerate(anchors):
        shifted[k] = np.delete(_quadratic_form(x, x[i]), i)
    shifted -= shifted.min(axis=1, keepdims=True)  # the shift of w_step: row minima are 0
    if perplexity is None:
        values, alphas = _softmax(shifted, alpha), np.full(len(anchors), alpha)
    else:
        alphas, values, failures = _calibrate(shifted, perplexity)
        if failures:
            first = min(failures)
            raise CalibrationError(f"anchor {anchors[first]}: {failures[first]}")
    return values, alphas / 2.0


def affinity_blocks(
    dataset: Dataset,
    *,
    sigma_sq: float | None = None,
    perplexity: float | None = None,
    anchors: range | None = None,
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """The rows of ``anchors`` of the affinity matrix, one block of anchors
    at a time, in anchor order.

    Exactly one bandwidth mode is given: ``sigma_sq`` fixes a shared
    bandwidth, the w-step's alpha = 2*sigma_sq; ``perplexity`` calibrates
    alpha per anchor by safeguarded Newton.  The arguments are
    checked at the call; the rows are computed as blocks are drawn.  A block
    is ``(anchors, values, sigma_sq)``: a range of anchors, their rows
    (R x T-1, neighbors ascending, the anchor left out) and each row's
    sigma_sq.  It holds about 2**14 values, at least one row, so memory does
    not grow with T^2.  Each row equals, bit for bit, ``gaussian_affinity_row``
    at a fixed bandwidth, and in perplexity mode ``w_step`` on the anchor's
    squared distances at ``calibrate_row_alpha`` of them; a generalized row,
    over any per-pair errors, is that same ``w_step`` on the anchor's errors.
    Drawing a block with a row that cannot be calibrated raises
    ``CalibrationError`` naming the lowest such anchor.

    ``anchors`` is a non-empty ``range`` of step 1 inside [0, T), by default
    every anchor; blocks are cut from ``anchors.start``.  A row does not
    depend on its block, so the rows of a sub-range equal, bit for bit, the
    matching rows of the whole, and ranges can be drawn in separate
    processes.
    """
    if (sigma_sq is None) == (perplexity is None):
        raise InvalidConfigError("exactly one of sigma_sq or perplexity must be given")
    t = dataset.n_instances
    if t < 2:
        raise InvalidInputError("at least two instances are required for affinities")
    if perplexity is not None:
        perplexity = _check_perplexity(perplexity, t - 1)
    alpha = None if sigma_sq is None else 2.0 * _check_sigma_sq(sigma_sq)
    if anchors is None:
        anchors = range(t)
    elif not (isinstance(anchors, range) and anchors.step == 1
              and 0 <= anchors.start < anchors.stop <= t):
        raise InvalidInputError(
            f"anchors must be a non-empty range of step 1 inside range(0, {t}), got {anchors!r}"
        )
    x = dataset.instances
    size = max(1, _BLOCK_FLOATS // (t - 1))
    blocks = (anchors[k:k + size] for k in range(0, len(anchors), size))
    return ((block, *_anchor_block(x, block, alpha, perplexity)) for block in blocks)

