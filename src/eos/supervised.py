"""Label-noise-robust supervised training.

The base learner is an L2-regularized logistic model trained by damped
Newton steps on the weighted log-loss.  Wrapping it in the alternating fit
downweights training instances the classifier cannot explain, which is
where randomly flipped labels end up.  Training and the per-sample error
share one log-loss kernel computed from the log-odds, with no probability
clamp, and the solver takes one path from any start, cold or warm.  Steps
take ``fit``'s weights unchecked.  The public functions check their inputs
once: a ``Dataset`` is checked when it is built, so an evaluator checks
only the parameters' dimension.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .bench import _metric_report
from .core import (EosConfig, FitResult, Termination, _check_int, _check_real, _positive,
                   check_weights, fit)
from .data import Dataset, _check_dataset, _check_dim
from .exceptions import (
    InvalidConfigError,
    InvalidInputError,
    NonConvergenceError,
    NumericalError,
)

__all__ = [
    "ClassifierParams",
    "decision_function",
    "predict_proba",
    "train_weighted_classifier",
    "classifier_loss_error",
    "ClassifierLossModel",
    "robust_fit",
    "inject_label_flips",
    "auc",
    "MislabelExperimentConfig",
    "SplitOutcome",
    "select_alpha",
    "mislabel_experiment",
    "summarize_mislabel",
]

# Rounding noise of the computed weighted log-loss, relative to its value.
# A Newton step whose predicted decrease is below this cannot be ranked by
# the value; observed value errors are one or two ulps (about 2.2e-16).
VALUE_NOISE_EPS = 16.0 * float(np.finfo(float).eps)
# The classifier's default l2 strength, everywhere one is taken.
_L2_STRENGTH = 1e-4
# The Newton solver's default gradient tolerance and step budget.
_GRAD_TOL = 1e-8
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class ClassifierParams:
    """Linear log-odds classifier: p(y=1 | x) = sigmoid(coef . x + intercept).

    The parameters are all a prediction reads; the l2 strength they were
    trained with stays with the caller that chose it.
    """

    coefficients: np.ndarray
    intercept: float

    def __post_init__(self) -> None:
        coef = np.array(self.coefficients, dtype=float, copy=True)
        if coef.ndim != 1:
            raise InvalidInputError(f"coefficients must be a vector, got shape {coef.shape}")
        if not np.all(np.isfinite(coef)):
            raise InvalidInputError("classifier parameters must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", _check_real(
            self.intercept, math.isfinite, InvalidInputError, "intercept must be finite"))


def _check_l2(l2_strength: float) -> float:
    """l2_strength as a float: finite and non-negative."""
    return _check_real(l2_strength, lambda c: math.isfinite(c) and c >= 0.0, InvalidConfigError,
                       "l2_strength must be finite and non-negative")


def decision_function(dataset: Dataset, params: ClassifierParams) -> np.ndarray:
    """Each row's log-odds coef . x + intercept, read from the instances with no copy."""
    _check_dataset(dataset)
    _check_dim(dataset, len(params.coefficients))
    return dataset.instances @ params.coefficients + params.intercept


def predict_proba(dataset: Dataset, params: ClassifierParams) -> np.ndarray:
    """Each row's p(y=1 | x), the logistic function of ``decision_function``."""
    from scipy.special import expit  # imported on use, so that import eos loads no scipy

    return expit(decision_function(dataset, params))


def _require_labels(dataset: Dataset) -> np.ndarray:
    if dataset.labels is None:
        raise InvalidInputError("this operation requires a labeled dataset")
    return dataset.labels


def _log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-log p(y | z) of 0/1 labels y at log-odds z: log(1 + e^z) - y*z."""
    return np.logaddexp(0.0, z) - y * z


def _design(x: np.ndarray) -> np.ndarray:
    """The solver's design ``[x, 1]``."""
    return np.hstack([x, np.ones((len(x), 1))])


def _solve_damped(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    damping = 0.0
    base = max(1.0, float(np.abs(np.diag(hessian)).max()))
    for _ in range(12):
        damped = hessian if damping == 0.0 else hessian + damping * np.eye(hessian.shape[0])
        try:
            step = np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.all(np.isfinite(step)):
            return step
        damping = base * 1e-12 if damping == 0.0 else damping * 100.0
    raise NumericalError("the damped Newton system has no finite solution at any damping")


def train_weighted_classifier(
    dataset: Dataset,
    weights: np.ndarray,
    l2_strength: float = _L2_STRENGTH,
    *,
    grad_tol: float = _GRAD_TOL,
    max_iters: int = _MAX_NEWTON_STEPS,
    initial: ClassifierParams | None = None,
) -> ClassifierParams:
    """Minimize sum_t w_t * logloss_t + l2_strength * ||coef||^2.

    Damped Newton iterations with a backtracking (Armijo) line search, run
    until the gradient norm drops to ``grad_tol``.  ``initial`` warm-starts
    the solver.  Near the optimum the decrease a Newton step predicts can
    fall below the rounding noise of the computed value, so the value can
    no longer rank two points; the step is then accepted when it lowers
    the gradient norm and its value lies within that noise.  The returned
    parameters therefore never score worse than the starting point by more
    than the rounding noise (a few ulps of the value), far inside the
    descent slack of ``fit``.

    The line search halves the step, with no cap, until a rule accepts it,
    so it also leaves a saturated start, where p(1 - p) vanishes and the
    Newton step is huge.  Raises ``NonConvergenceError`` if the gradient
    norm stays above ``grad_tol`` after ``max_iters`` Newton steps, or once
    the halved step no longer moves the parameters (no float-representable
    progress), the line search's only way to give up.  With
    ``l2_strength=0`` and separable classes the optimum is at infinity; the
    error then advises a positive l2 strength.
    """
    y = _require_labels(dataset).astype(float)
    w = check_weights(weights, dataset.n_instances)
    l2_strength = _check_l2(l2_strength)
    grad_tol = _check_real(grad_tol, _positive, InvalidConfigError, "grad_tol must be positive")
    max_iters = _check_int(max_iters, lambda n: n >= 1, InvalidConfigError,
                           "max_iters must be an integer >= 1")
    if initial is not None:
        _check_dim(dataset, len(initial.coefficients))
    return _newton(_design(dataset.instances), y, w, l2_strength, initial, grad_tol, max_iters)


def _newton(design: np.ndarray, y: np.ndarray, w: np.ndarray, l2_strength: float,
            initial: ClassifierParams | None, grad_tol: float, max_iters: int) -> ClassifierParams:
    """``train_weighted_classifier``'s solver, unchecked: the design ``[x, 1]``,
    float 0/1 labels ``y`` and weights ``w``, none of which it writes."""
    d = design.shape[1] - 1
    penalty = np.zeros(d + 1)
    penalty[:d] = 2.0 * l2_strength
    if initial is not None:
        theta = np.concatenate([initial.coefficients, [initial.intercept]])
    else:
        theta = np.zeros(d + 1)
    from scipy.special import expit  # on use, once per call: import eos loads no scipy

    def value_grad(t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        z = design @ t
        p = expit(z)
        val = float(w @ _log_loss(z, y) + l2_strength * (t[:d] @ t[:d]))
        grad = design.T @ (w * (p - y)) + penalty * t
        return val, grad, p

    val, grad, p = value_grad(theta)
    gnorm = math.sqrt(grad @ grad)
    for _ in range(max_iters):
        if gnorm <= grad_tol:
            break
        curvature = w * p * (1.0 - p)
        hessian = (design * curvature[:, None]).T @ design
        hessian.flat[:: d + 2] += penalty
        step = _solve_damped(hessian, grad)
        slope = float(grad @ step)
        noise = VALUE_NOISE_EPS * val
        stepsize = 1.0
        cand = theta - step
        while not np.array_equal(cand, theta):
            cval, cgrad, cp = value_grad(cand)
            cgnorm = math.sqrt(cgrad @ cgrad)
            if cval <= val - 1e-4 * stepsize * slope or (
                slope <= noise and cval <= val + noise and cgnorm < gnorm
            ):
                break
            stepsize *= 0.5
            cand = theta - stepsize * step
        else:
            break  # no step makes float-representable progress
        theta, val, grad, p, gnorm = cand, cval, cgrad, cp, cgnorm

    if l2_strength == 0.0:
        # With every weighted margin strictly positive, doubling theta halves
        # the loss, so no finite minimizer exists.
        margins = (2.0 * y - 1.0) * (design @ theta)
        if bool(np.all(margins[w > 0] > 0.0)):
            raise NonConvergenceError(
                "the weighted classes are perfectly separable and l2_strength is 0, "
                f"so the optimum is unbounded; set l2_strength > 0 (default {_L2_STRENGTH!r})"
            )
    if gnorm > grad_tol:
        advice = (
            f"with separable classes set l2_strength > 0 (default {_L2_STRENGTH!r})"
            if l2_strength == 0.0
            else "raise max_iters, or grad_tol if the data are badly scaled"
        )
        raise NonConvergenceError(
            f"weighted classifier did not reach gradient norm {grad_tol:g} "
            f"(got {gnorm:.3e}); {advice}"
        )
    return ClassifierParams(coefficients=theta[:d], intercept=float(theta[d]))


def classifier_loss_error(dataset: Dataset, params: ClassifierParams) -> np.ndarray:
    """Per-sample negative log-likelihood of the observed label.

    The loss is the one ``train_weighted_classifier`` minimizes, computed
    from ``decision_function``'s log-odds without forming probabilities, so
    it is finite for any parameters and unclamped: a certainly-wrong point
    costs its full margin.
    """
    return _log_loss(decision_function(dataset, params), _require_labels(dataset))


@dataclass
class ClassifierLossModel:
    """Adapter exposing the weighted classifier as a pluggable error model.

    ``step`` trains the classifier on the weights and returns each
    per-sample loss (the training loss, unclamped) plus the l2 penalty (a
    weight-independent constant).  Since the weights sum to one, the
    weighted error then equals what the training minimizes up to rounding,
    which makes the descent contract hold; the weight update itself is
    unchanged because it is invariant to uniform shifts of the error vector.

    Each step warm-starts the solver from the previous parameters, so the
    weighted objective never increases between steps by more than the
    rounding noise of its value, even though the solver stops at a finite
    gradient tolerance.  There is no second, cold solve: the solver leaves
    any warm start, even one fitted to one-hot weights that saturates every
    probability (a proposal that ``fit`` then dropped).  The warm-start
    cache makes an instance stateful: use one instance per fit, not across
    concurrent fits, on one dataset.  The step takes ``fit``'s weights
    unchecked and builds the design ``[x, 1]`` once, on its first step; a
    ``copy.copy`` of a stepped model starts warm and shares that design.
    """

    l2_strength: float = _L2_STRENGTH

    def __post_init__(self) -> None:
        self.l2_strength = _check_l2(self.l2_strength)
        self._warm: ClassifierParams | None = None
        self._problem: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, dataset: Dataset, weights: np.ndarray) -> tuple[ClassifierParams, np.ndarray]:
        if self._problem is None:
            self._problem = _design(dataset.instances), _require_labels(dataset).astype(float)
        params = _newton(*self._problem, weights, self.l2_strength, self._warm, _GRAD_TOL,
                         _MAX_NEWTON_STEPS)
        self._warm = params
        penalty = self.l2_strength * float(params.coefficients @ params.coefficients)
        return params, classifier_loss_error(dataset, params) + penalty


def robust_fit(dataset: Dataset, config: EosConfig, l2_strength: float = _L2_STRENGTH) -> FitResult:
    """Alternating fit with the classifier-loss error model.

    Instances the classifier cannot explain (mislabeled points in
    particular) end up with depressed weights; ``result.theta`` is the
    final ``ClassifierParams``.
    """
    _require_labels(dataset)
    return fit(dataset, ClassifierLossModel(l2_strength=l2_strength), config)


def inject_label_flips(
    dataset: Dataset, p: float, seed: int
) -> tuple[Dataset, frozenset[int]]:
    """Flip floor(p*T) uniformly chosen labels; return the corrupted copy.

    The returned index set is the ground truth of which labels were flipped.
    """
    labels = _require_labels(dataset)
    p = _check_real(p, lambda q: 0.0 <= q < 0.5, InvalidInputError,
                    "flip proportion must lie in [0, 0.5)")
    n = dataset.n_instances
    k = int(math.floor(p * n + 1e-9))
    rng = np.random.default_rng(_check_int(
        seed, lambda s: s >= 0, InvalidInputError, "seed must be a non-negative integer"))
    idx = rng.choice(n, size=k, replace=False)
    flipped = labels.copy()
    flipped[idx] = 1 - flipped[idx]
    return dataset.with_labels(flipped), frozenset(int(i) for i in idx)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve as the Mann-Whitney statistic.

    Each (positive, negative) pair counts 1 when the positive scores higher
    and 1/2 when the two scores tie.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise InvalidInputError("scores and labels must be 1-D vectors of equal length")
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("scores must be finite")
    if not np.all(np.isin(np.unique(y), (0, 1))):
        raise InvalidInputError("labels must be binary 0/1")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise InvalidInputError("both classes must be present to compute AUC")
    negatives = np.sort(s[y == 0])
    positives = s[y == 1]
    below = np.searchsorted(negatives, positives, side="left")
    below_or_tied = np.searchsorted(negatives, positives, side="right")
    u = float(below.sum() + below_or_tied.sum()) / 2.0
    return u / (n_pos * n_neg)


def _check_alpha_grid(alpha_grid) -> tuple[float, ...]:
    text = "alpha_grid must be non-empty with positive entries"
    entries = alpha_grid if isinstance(alpha_grid, Iterable) else ()
    grid = tuple(_check_real(a, _positive, InvalidConfigError, text) for a in entries)
    if not grid:
        raise InvalidConfigError(f"{text}, got {alpha_grid!r}")
    return grid


@dataclass(frozen=True)
class MislabelExperimentConfig:
    """Protocol knobs for the repeated label-flip experiment.

    ``alpha_grid`` entries are multipliers: each candidate alpha is the
    multiplier times the mean per-sample loss of the plain fit on that
    split, so the grid tracks the loss scale of the data at hand.  How one
    candidate is chosen is described in ``select_alpha``.
    """

    flip_proportion: float
    n_splits: int = 50
    train_fraction: float = 0.75
    seed: int = 0
    alpha_grid: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0)
    l2_strength: float = _L2_STRENGTH

    def __post_init__(self) -> None:
        object.__setattr__(self, "flip_proportion", _check_real(
            self.flip_proportion, lambda p: 0.0 <= p < 0.5, InvalidConfigError,
            "flip proportion must lie in [0, 0.5)"))
        object.__setattr__(self, "n_splits", _check_int(
            self.n_splits, lambda n: n >= 1, InvalidConfigError,
            "n_splits must be a positive integer"))
        object.__setattr__(self, "train_fraction", _check_real(
            self.train_fraction, lambda f: 0.0 < f < 1.0, InvalidConfigError,
            "train_fraction must lie in (0, 1)"))
        object.__setattr__(self, "seed", _check_int(
            self.seed, lambda n: n >= 0, InvalidConfigError, "seed must be a non-negative integer"))
        object.__setattr__(self, "alpha_grid", _check_alpha_grid(self.alpha_grid))
        object.__setattr__(self, "l2_strength", _check_l2(self.l2_strength))


@dataclass(frozen=True)
class SplitOutcome:
    """Per-split results of the mislabeling comparison."""

    auc_plain: float
    auc_robust: float
    alpha_selected: float
    mean_weight_flipped: float | None
    mean_weight_clean: float
    n_flipped: int


def _two_gaussian_dataset(n: int, dim: int, rng: np.random.Generator) -> Dataset:
    """Balanced binary task: two unit-covariance Gaussians at +-2/sqrt(D)."""
    n_pos = n // 2
    n_neg = n - n_pos
    offset = 2.0 / math.sqrt(dim)
    x = np.vstack(
        [
            rng.standard_normal((n_neg, dim)) - offset,
            rng.standard_normal((n_pos, dim)) + offset,
        ]
    )
    y = np.concatenate([np.zeros(n_neg, dtype=int), np.ones(n_pos, dtype=int)])
    perm = rng.permutation(n)
    return Dataset(x[perm], y[perm])


def _separation(scores: np.ndarray, labels: np.ndarray) -> float:
    """Class separation of scores: (m1 - m0) / sqrt(v1 + v0).

    m and v are the per-class means and variances of the scores.  Under a
    binormal model of the two classes' scores the AUC is Phi of this value,
    so ranking scorers by it ranks them by that AUC.  Unlike the rank
    statistic of ``auc``, it uses every score rather than only the few
    cross-class pairs in the wrong order, so it still tells scorers apart
    when the classes barely overlap.  Constant scores give 0 (AUC 1/2).
    """
    pos, neg = scores[labels == 1], scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise InvalidInputError("both classes must be present to select alpha")
    spread = math.sqrt(float(pos.var() + neg.var()))
    if spread == 0.0:
        return 0.0
    return float(pos.mean() - neg.mean()) / spread


def select_alpha(
    corrupted: Dataset,
    reference: Dataset,
    alpha_grid: tuple[float, ...],
    l2_strength: float,
    config: EosConfig = EosConfig(),
) -> tuple[ClassifierParams, FitResult]:
    """Plain fit plus grid selection of alpha by class separation on ``reference``.

    ``alpha_grid`` holds multipliers of the plain fit's mean per-sample loss
    (see ``MislabelExperimentConfig``).  Every grid entry gets a robust fit
    on ``corrupted`` with ``config.tol`` and ``config.max_iters``, started
    from the plain fit's parameters: its first step returns them, the same
    bits as a cold start.  ``config.alpha`` is ignored, as in
    ``calibrate_alpha``.  Among the fits that converged, the one whose
    decision scores best separate the classes of ``reference``
    (``_separation``, the binormal AUC) is selected; ties go to the earlier
    grid entry.  Returns the plain fit's parameters and the selected fit;
    its ``alpha`` is the selected one.  ``reference`` carries the labels to
    trust: the uncorrupted training labels in the experiment, the training
    data itself in ``robust-train``.

    The mean log-loss on ``reference`` is not the criterion because it
    rewards calibration as much as ranking; on the label-flip task it
    favours fits close to the plain one.  Raises ``NonConvergenceError``
    naming the alpha values if no fit converged.
    """
    grid = _check_alpha_grid(alpha_grid)
    n = corrupted.n_instances
    model = ClassifierLossModel(l2_strength)
    plain, _ = model.step(corrupted, np.full(n, 1.0 / n))
    loss_scale = max(float(classifier_loss_error(corrupted, plain).mean()), 1e-6)
    labels = _require_labels(reference)

    best_separation = -math.inf
    best_result: FitResult | None = None
    unconverged: list[float] = []
    for multiplier in grid:
        result = fit(corrupted, copy.copy(model), replace(config, alpha=multiplier * loss_scale))
        if result.termination is not Termination.CONVERGED:
            unconverged.append(result.alpha)
            continue
        separation = _separation(decision_function(reference, result.theta), labels)
        if separation > best_separation:
            best_separation, best_result = separation, result
    if best_result is None:
        raise NonConvergenceError(
            f"no robust fit converged within max_iters={config.max_iters} at any alpha in "
            f"({', '.join(f'{a:.6g}' for a in unconverged)}); raise max_iters or tol"
        )
    return plain, best_result


def _run_split(data: Dataset, cfg: MislabelExperimentConfig, rng: np.random.Generator) -> SplitOutcome:
    n = data.n_instances
    n_train = int(cfg.train_fraction * n + 1e-9)
    if n_train < 4 or n - n_train < 2:
        raise InvalidInputError(f"split of T={n} leaves too few instances on one side")
    perm = rng.permutation(n)
    train = data.subset(perm[:n_train])
    test = data.subset(perm[n_train:])

    flip_seed = int(rng.integers(0, 2**63 - 1))
    corrupted, flipped = inject_label_flips(train, cfg.flip_proportion, flip_seed)

    plain, robust = select_alpha(corrupted, train, cfg.alpha_grid, cfg.l2_strength)

    auc_plain = auc(predict_proba(test, plain), test.labels)
    auc_robust = auc(predict_proba(test, robust.theta), test.labels)

    weights = robust.weights
    clean_mask = np.ones(n_train, dtype=bool)
    if flipped:
        flipped_idx = np.fromiter(flipped, dtype=np.intp)
        clean_mask[flipped_idx] = False
        mean_flipped = float(weights[flipped_idx].mean())
    else:
        mean_flipped = None
    return SplitOutcome(
        auc_plain=auc_plain,
        auc_robust=auc_robust,
        alpha_selected=robust.alpha,
        mean_weight_flipped=mean_flipped,
        mean_weight_clean=float(weights[clean_mask].mean()),
        n_flipped=len(flipped),
    )


def mislabel_experiment(
    cfg: MislabelExperimentConfig,
    dataset: Dataset | None = None,
    *,
    task_size: int = 400,
    task_dim: int = 5,
) -> list[SplitOutcome]:
    """Run the repeated flip-train-evaluate protocol.

    With ``dataset`` given, each split re-partitions it into train and test;
    otherwise a fresh two-Gaussian task is drawn per split.  Test labels are
    never corrupted.  Split randomness is derived from ``cfg.seed`` so the
    whole experiment is reproducible.  Splits run independently, and
    outcomes are returned in split order.
    """
    task_size = _check_int(task_size, lambda n: n >= 1, InvalidInputError,
                           "task_size must be a positive integer")
    task_dim = _check_int(task_dim, lambda n: n >= 1, InvalidInputError,
                          "task_dim must be a positive integer")
    outcomes = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_splits):
        rng = np.random.default_rng(child)
        data = dataset if dataset is not None else _two_gaussian_dataset(task_size, task_dim, rng)
        outcomes.append(_run_split(data, cfg, rng))
    return outcomes


def summarize_mislabel(outcomes: list[SplitOutcome]) -> dict:
    """Score the splits of one flip proportion, robust fit against plain fit.

    Returns the test AUCs of both fits as ``MetricReport``s (``auc_plain``,
    ``auc_robust``); ``win_fraction``, the share of splits where
    ``auc_robust >= auc_plain`` (a tie is a win); ``mean_improvement``, the
    mean of ``auc_robust - auc_plain``; and ``suppression_fraction``, the
    share of splits with flipped labels whose flipped instances got a lower
    mean weight than the clean ones, or None when no label was flipped.
    """
    plain = [o.auc_plain for o in outcomes]
    robust = [o.auc_robust for o in outcomes]
    flipped = [o for o in outcomes if o.mean_weight_flipped is not None]
    suppressed = sum(o.mean_weight_flipped < o.mean_weight_clean for o in flipped)
    return {
        "auc_plain": _metric_report("auc_plain", plain),  # raises when outcomes is empty
        "auc_robust": _metric_report("auc_robust", robust),
        "win_fraction": sum(b >= a for a, b in zip(plain, robust)) / len(outcomes),
        "mean_improvement": float(np.mean(np.asarray(robust) - np.asarray(plain))),
        "suppression_fraction": suppressed / len(flipped) if flipped else None,
    }
