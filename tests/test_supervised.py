from __future__ import annotations

import copy
import math
import tracemalloc

import numpy as np
import pytest

from eos import (
    ClassifierLossModel,
    ClassifierParams,
    Dataset,
    EosConfig,
    InvalidConfigError,
    InvalidInputError,
    MislabelExperimentConfig,
    NonConvergenceError,
    Termination,
    auc,
    classifier_loss_error,
    decision_function,
    inject_label_flips,
    mislabel_experiment,
    predict_proba,
    robust_fit,
    SplitOutcome,
    summarize_mislabel,
    train_weighted_classifier,
)

import eos.supervised
from eos.supervised import _separation, _two_gaussian_dataset, select_alpha

from conftest import finite_difference_gradient


def _weighted_objective(data: Dataset, weights: np.ndarray, l2: float):
    x, y = data.instances, data.labels.astype(float)

    def value(theta: np.ndarray) -> float:
        z = x @ theta[:-1] + theta[-1]
        nll = np.logaddexp(0.0, z) - y * z
        return float(weights @ nll + l2 * (theta[:-1] @ theta[:-1]))

    return value


def _theta(params: ClassifierParams) -> np.ndarray:
    return np.concatenate([params.coefficients, [params.intercept]])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_symmetric_two_point_problem():
    data = Dataset(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    params = train_weighted_classifier(data, np.array([0.5, 0.5]), 1e-4)
    assert abs(params.intercept) < 1e-6
    assert params.coefficients[0] > 0


def test_one_hot_weights_fit_that_point():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(6, 2)), np.array([0, 1, 0, 1, 1, 0]))
    weights = np.zeros(6)
    weights[2] = 1.0
    params = train_weighted_classifier(data, weights, 1e-4)
    prob_one = predict_proba(data.subset([2]), params)[0]
    prob_true = 1.0 - prob_one if data.labels[2] == 0 else prob_one
    assert prob_true > 0.99


def test_predictions_read_the_datasets_matrix_without_a_copy():
    # The Dataset checked its instances when it was built; a prediction
    # allocates row vectors only, not a second 50,000 x 10 matrix (4 MB).
    rng = np.random.default_rng(8)
    data = Dataset(rng.standard_normal((50_000, 10)))
    params = ClassifierParams(rng.standard_normal(10), 0.5)
    predict_proba(data.subset([0]), params)  # loads scipy before the trace
    tracemalloc.start()
    try:
        proba = predict_proba(data, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.instances.nbytes
    from scipy.special import expit

    assert np.array_equal(proba, expit(data.instances @ params.coefficients + params.intercept))


def test_gradient_norm_at_optimum():
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(-1.5, 1.0, (50, 3)), rng.normal(1.5, 1.0, (50, 3))])
    y = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    data = Dataset(x, y)
    weights = np.full(100, 0.01)
    l2 = 1e-3
    params = train_weighted_classifier(data, weights, l2)

    theta = np.concatenate([params.coefficients, [params.intercept]])
    value = _weighted_objective(data, weights, l2)
    grad = finite_difference_gradient(value, theta)
    assert np.linalg.norm(grad) <= 1e-6  # finite-difference noise floor


def test_analytic_gradient_matches_finite_differences():
    # Checked away from the optimum, where the gradient is well-scaled.
    rng = np.random.default_rng(19)
    data = Dataset(rng.normal(size=(40, 3)), (rng.uniform(size=40) > 0.5).astype(int))
    weights = rng.dirichlet(np.ones(40))
    l2 = 1e-3
    value = _weighted_objective(data, weights, l2)
    y = data.labels.astype(float)
    for _ in range(5):
        theta = rng.normal(scale=0.8, size=4)
        z = data.instances @ theta[:-1] + theta[-1]
        p = 1.0 / (1.0 + np.exp(-z))
        analytic = np.concatenate(
            [
                data.instances.T @ (weights * (p - y)) + 2.0 * l2 * theta[:-1],
                [float(weights @ (p - y))],
            ]
        )
        numeric = finite_difference_gradient(value, theta)
        assert np.abs(numeric - analytic).max() <= 1e-4 * max(1.0, np.abs(analytic).max())


def test_separable_with_zero_l2_raises():
    data = Dataset(np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([0, 0, 1, 1]))
    with pytest.raises(NonConvergenceError, match="l2_strength"):
        train_weighted_classifier(data, np.full(4, 0.25), 0.0)


@pytest.mark.parametrize("seed, split", [(12, 35), (108, 15)])
def test_newton_step_below_value_resolution_is_taken(seed, split):
    # The 10x alpha fit of this split of mislabel_experiment at p=0.3, rebuilt
    # as _run_split draws it.  Its last Newton step predicts a decrease below
    # one ulp of the value, which reads 1-2 ulps higher after the step; a
    # value-only line search rejected it and stopped at gradient norm
    # 1.2e-8 / 1.3e-8, above grad_tol.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(split + 1)[split])
    data = _two_gaussian_dataset(400, 5, rng)
    train = data.subset(rng.permutation(400)[:300])
    corrupted, _ = inject_label_flips(train, 0.3, int(rng.integers(0, 2**63 - 1)))
    plain = train_weighted_classifier(corrupted, np.full(300, 1 / 300), 1e-4)
    alpha = 10.0 * float(classifier_loss_error(corrupted, plain).mean())

    result = robust_fit(corrupted, EosConfig(alpha=alpha), l2_strength=1e-4)

    assert result.termination is Termination.CONVERGED


@pytest.mark.parametrize("coef", [0.0, 50.0])
@pytest.mark.parametrize("intercept", [-60.0, -200.0, -700.0, -745.0, -1e5, 191340.0])
def test_training_converges_from_a_saturated_start(coef, intercept):
    # Every probability is 0 or 1 at these starts, so p(1-p) vanishes and the
    # first Newton step is about 1e28 or larger; a line search capped at 60
    # halvings could not shrink it to an acceptable size.
    data = _two_gaussian_dataset(150, 3, np.random.default_rng(19))
    weights = np.full(150, 1 / 150)
    start = ClassifierParams(coefficients=np.full(3, coef), intercept=intercept)

    params = train_weighted_classifier(data, weights, 1e-4, initial=start)

    x, y = data.instances, data.labels.astype(float)
    p = 1.0 / (1.0 + np.exp(-(x @ params.coefficients + params.intercept)))
    grad = np.concatenate(
        [x.T @ (weights * (p - y)) + 2e-4 * params.coefficients, [float(weights @ (p - y))]]
    )
    assert np.linalg.norm(grad) <= 1e-8  # the default grad_tol
    cold = train_weighted_classifier(data, weights, 1e-4)
    value = _weighted_objective(data, weights, 1e-4)
    assert value(_theta(params)) == pytest.approx(value(_theta(cold)), rel=1e-10)


def test_nonconvergence_advice_matches_l2_strength():
    rng = np.random.default_rng(5)
    data = _two_gaussian_dataset(60, 2, rng)
    weights = np.full(60, 1 / 60)
    with pytest.raises(NonConvergenceError) as regularized:
        train_weighted_classifier(data, weights, 1e-4, max_iters=1)
    assert "l2_strength > 0" not in str(regularized.value)
    assert "max_iters" in str(regularized.value)


def test_features_at_1e150_reach_the_solver():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((200, 3))
    y = (rng.standard_normal(200) > 0).astype(int)
    uniform = np.full(200, 1 / 200)
    # At 1e150 the squares still fit in a float: the solver runs and reports
    # that it could not reach the gradient tolerance.
    with pytest.raises(NonConvergenceError, match="did not reach gradient norm"):
        train_weighted_classifier(Dataset(x * 1e150, y), uniform)


def test_training_requires_labels():
    data = Dataset(np.zeros((3, 1)))
    with pytest.raises(InvalidInputError):
        train_weighted_classifier(data, np.full(3, 1 / 3), 1e-4)


# ---------------------------------------------------------------------------
# per-sample loss
# ---------------------------------------------------------------------------

def test_loss_half_probability_is_log_two():
    data = Dataset(np.array([[0.0]]), np.array([1]))
    params = ClassifierParams(coefficients=np.zeros(1), intercept=0.0)
    assert classifier_loss_error(data, params)[0] == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_is_not_clamped_at_certainty():
    data = Dataset(np.array([[1.0], [1.0]]), np.array([1, 0]))
    params = ClassifierParams(coefficients=np.array([1e4]), intercept=0.0)
    right, wrong = classifier_loss_error(data, params)
    assert right == 0.0
    assert wrong == 1e4  # the full log-odds z


def test_flipped_duplicate_has_larger_loss():
    rng = np.random.default_rng(15)
    data = _two_gaussian_dataset(120, 3, rng)
    deep = int(np.argmax(data.instances.sum(axis=1) * (2 * data.labels - 1)))
    x = np.vstack([data.instances, data.instances[deep]])
    y = np.concatenate([data.labels, [1 - data.labels[deep]]])
    augmented = Dataset(x, y)
    params = train_weighted_classifier(augmented, np.full(121, 1 / 121), 1e-4)
    losses = classifier_loss_error(augmented, params)
    assert losses[-1] > losses[deep]


def _assert_public_pair(step, data, w, l2, initial=None):
    """``step`` equals, bit for bit, the public trainer from ``initial`` and its loss."""
    params, errors = step
    public = train_weighted_classifier(data, w, l2, initial=initial)
    assert np.array_equal(params.coefficients, public.coefficients)
    assert params.intercept == public.intercept
    penalty = l2 * float(public.coefficients @ public.coefficients)
    assert np.array_equal(errors, classifier_loss_error(data, public) + penalty)


def test_classifier_step_equals_the_public_pair():
    rng = np.random.default_rng(16)
    data = _two_gaussian_dataset(150, 3, rng)
    l2 = 1e-3
    uniform, skewed = np.full(150, 1 / 150), rng.dirichlet(np.ones(150))
    for w in (uniform, skewed):
        # A fresh model, so the step trains from the same cold start.
        _assert_public_pair(ClassifierLossModel(l2_strength=l2).step(data, w), data, w, l2)

    # A second step of the same model starts warm from the first.
    model = ClassifierLossModel(l2_strength=l2)
    first, _ = model.step(data, uniform)
    _assert_public_pair(model.step(data, skewed), data, skewed, l2, initial=first)

    # A copy of a stepped model starts warm from the original's last step,
    # and stepping the copy leaves the original's warm start alone.
    last, _ = model.step(data, uniform)
    copied = copy.copy(model)
    _assert_public_pair(copied.step(data, skewed), data, skewed, l2, initial=last)
    _assert_public_pair(model.step(data, skewed), data, skewed, l2, initial=last)


def test_classifier_step_converges_from_a_saturated_warm_start():
    """A step on one-hot weights, such as a proposal of fit's acceleration
    that fit then drops, leaves a warm start that saturates every
    probability; the next step still converges from it, to the cold optimum."""
    rng = np.random.default_rng(19)
    data = _two_gaussian_dataset(150, 3, rng)
    uniform = np.full(150, 1 / 150)
    one_hot = np.zeros(150)
    one_hot[5] = 1.0
    model = ClassifierLossModel(l2_strength=1e-4)
    model.step(data, uniform)
    saturated, _ = model.step(data, one_hot)
    z = decision_function(data, saturated)
    assert np.all(np.abs(z) > 40.0)  # p(1-p) < 1e-17 at every point

    params, _ = model.step(data, uniform)

    direct = train_weighted_classifier(data, uniform, 1e-4, initial=saturated)
    assert np.array_equal(_theta(params), _theta(direct))
    cold = train_weighted_classifier(data, uniform, 1e-4)
    value = _weighted_objective(data, uniform, 1e-4)
    assert value(_theta(params)) == pytest.approx(value(_theta(cold)), rel=1e-10)


def test_weighted_step_error_is_the_training_objective():
    # A label-0 point deep in the class-1 region: its loss (its log-odds,
    # about 59) lies far above -log(1e-12) = 27.6, where a loss computed from
    # clamped probabilities would stop.
    base = _two_gaussian_dataset(150, 3, np.random.default_rng(19))
    data = Dataset(
        np.vstack([base.instances, np.full((1, 3), 6.0)]), np.concatenate([base.labels, [0]])
    )
    weights = np.random.default_rng(5).dirichlet(np.ones(151))
    l2 = 1e-4

    params, errors = ClassifierLossModel(l2_strength=l2).step(data, weights)

    penalty = l2 * float(params.coefficients @ params.coefficients)
    assert (errors - penalty).max() > -math.log(1e-12)
    objective = _weighted_objective(data, weights, l2)(_theta(params))
    assert float(weights @ errors) == pytest.approx(objective, rel=1e-14)


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

def test_flip_none_is_identity():
    rng = np.random.default_rng(1)
    data = _two_gaussian_dataset(40, 2, rng)
    corrupted, flipped = inject_label_flips(data, 0.0, seed=5)
    assert flipped == frozenset()
    assert np.array_equal(corrupted.labels, data.labels)


def test_flip_count_and_uniqueness():
    rng = np.random.default_rng(2)
    data = _two_gaussian_dataset(100, 2, rng)
    corrupted, flipped = inject_label_flips(data, 0.2, seed=5)
    assert len(flipped) == 20
    assert all(0 <= i < 100 for i in flipped)
    changed = np.flatnonzero(corrupted.labels != data.labels)
    assert frozenset(int(i) for i in changed) == flipped


def test_flip_determinism():
    rng = np.random.default_rng(2)
    data = _two_gaussian_dataset(60, 2, rng)
    _, first = inject_label_flips(data, 0.3, seed=77)
    _, second = inject_label_flips(data, 0.3, seed=77)
    assert first == second


def test_flip_validation():
    rng = np.random.default_rng(2)
    data = _two_gaussian_dataset(40, 2, rng)
    with pytest.raises(InvalidInputError):
        inject_label_flips(data, 0.5, seed=1)
    with pytest.raises(InvalidInputError):
        inject_label_flips(Dataset(data.instances), 0.1, seed=1)
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((2, 1)), np.array([0, 2]))  # non-binary labels


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------

def test_auc_perfect_ordering():
    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0


def test_auc_all_ties_is_half():
    assert auc(np.full(6, 0.4), np.array([0, 1, 0, 1, 0, 1])) == 0.5


def test_auc_hand_counted_pairs():
    # positives {0.35, 0.8} vs negatives {0.1, 0.4}: 3 of 4 pairs concordant
    value = auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert value == pytest.approx(0.75, abs=1e-15)


def test_auc_equals_pairwise_count_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[: int(rng.integers(1, n))]] = 1
        pos, neg = scores[labels == 1], scores[labels == 0]
        pairs = (pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()
        assert auc(scores, labels) == pairs / (pos.size * neg.size)


def test_auc_requires_both_classes():
    with pytest.raises(InvalidInputError):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=30)
    labels = (rng.uniform(size=30) > 0.5).astype(int)
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# robust fit
# ---------------------------------------------------------------------------

def test_huge_alpha_reduces_to_plain_training():
    rng = np.random.default_rng(25)
    data = _two_gaussian_dataset(150, 3, rng)
    result = robust_fit(data, EosConfig(alpha=1e8), l2_strength=1e-4)
    assert np.abs(result.weights - 1.0 / 150).max() < 1e-6
    plain = train_weighted_classifier(data, np.full(150, 1 / 150), 1e-4)
    assert np.abs(result.theta.coefficients - plain.coefficients).max() < 1e-6
    assert abs(result.theta.intercept - plain.intercept) < 1e-6


def test_flipped_points_get_depressed_weights():
    rng = np.random.default_rng(33)
    data = _two_gaussian_dataset(400, 5, rng)
    corrupted, flipped = inject_label_flips(data, 0.2, seed=8)
    plain = train_weighted_classifier(corrupted, np.full(400, 1 / 400), 1e-4)
    scale = float(classifier_loss_error(corrupted, plain).mean())
    flipped_idx = np.fromiter(flipped, dtype=np.intp)
    clean_mask = np.ones(400, dtype=bool)
    clean_mask[flipped_idx] = False
    for multiplier in (0.3, 1.0, 3.0):
        result = robust_fit(corrupted, EosConfig(alpha=multiplier * scale), l2_strength=1e-4)
        assert result.weights[flipped_idx].mean() < result.weights[clean_mask].mean()


def test_mislabel_experiment_small_run():
    cfg = MislabelExperimentConfig(flip_proportion=0.2, n_splits=5, seed=2)
    outcomes = mislabel_experiment(cfg, task_size=160, task_dim=4)
    assert len(outcomes) == 5
    for outcome in outcomes:
        assert 0.0 <= outcome.auc_plain <= 1.0
        assert 0.0 <= outcome.auc_robust <= 1.0
        assert outcome.n_flipped == 24  # floor(0.2 * 120 train rows)
        assert outcome.mean_weight_flipped < outcome.mean_weight_clean


def test_mislabel_experiment_deterministic():
    cfg = MislabelExperimentConfig(flip_proportion=0.1, n_splits=3, seed=9)
    first = mislabel_experiment(cfg, task_size=120, task_dim=3)
    second = mislabel_experiment(cfg, task_size=120, task_dim=3)
    assert first == second


def test_summarize_mislabel_on_hand_built_outcomes():
    def outcome(plain, robust, flipped, clean):
        return SplitOutcome(auc_plain=plain, auc_robust=robust, alpha_selected=1.0,
                            mean_weight_flipped=flipped, mean_weight_clean=clean,
                            n_flipped=0 if flipped is None else 3)

    split = [
        outcome(0.75, 0.75, 0.001, 0.003),  # a tie counts as a win
        outcome(0.875, 0.75, 0.004, 0.002),
        outcome(0.5, 0.875, 0.001, 0.003),
    ]
    summary = summarize_mislabel(split)
    assert summary["auc_plain"].per_seed_values == (0.75, 0.875, 0.5)
    assert summary["auc_robust"].per_seed_values == (0.75, 0.75, 0.875)
    assert summary["win_fraction"] == 2 / 3
    assert summary["mean_improvement"] == pytest.approx(0.25 / 3, abs=1e-15)
    assert summary["suppression_fraction"] == 2 / 3

    unflipped = summarize_mislabel([outcome(0.75, 0.75, None, 0.004)] * 2)
    assert unflipped["win_fraction"] == 1.0
    assert unflipped["mean_improvement"] == 0.0
    assert unflipped["suppression_fraction"] is None
    with pytest.raises(InvalidInputError):
        summarize_mislabel([])


def test_separation_is_the_binormal_auc_argument():
    scores = np.array([1.0, 3.0, -1.0, 1.0])
    labels = np.array([1, 1, 0, 0])
    # class means 2 and 0, class variances 1 and 1
    assert _separation(scores, labels) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert _separation(-scores, labels) == pytest.approx(-math.sqrt(2.0), abs=1e-15)
    assert _separation(np.full(4, 19.0), labels) == 0.0
    with pytest.raises(InvalidInputError):
        _separation(scores, np.ones(4, dtype=int))


def _corrupted_task():
    rng = np.random.default_rng(41)
    data = _two_gaussian_dataset(200, 3, rng)
    corrupted, _ = inject_label_flips(data, 0.2, seed=6)
    return data, corrupted


def test_select_alpha_skips_unconverged_fits():
    data, corrupted = _corrupted_task()
    cfg = MislabelExperimentConfig(flip_proportion=0.2, alpha_grid=(0.1, 10.0))
    plain, _ = select_alpha(corrupted, data, cfg.alpha_grid, cfg.l2_strength)
    scale = float(classifier_loss_error(corrupted, plain).mean())
    # The cap lets the large-alpha fit converge and stops the small one.
    uncapped = [robust_fit(corrupted, EosConfig(alpha=f * scale), l2_strength=1e-4)
                for f in cfg.alpha_grid]
    assert all(r.termination is Termination.CONVERGED for r in uncapped)
    assert uncapped[0].iterations > uncapped[1].iterations
    cap = uncapped[1].iterations
    small = robust_fit(corrupted, EosConfig(alpha=0.1 * scale, max_iters=cap), l2_strength=1e-4)
    large = robust_fit(corrupted, EosConfig(alpha=10.0 * scale, max_iters=cap), l2_strength=1e-4)
    assert small.termination is Termination.MAX_ITERS_REACHED
    assert large.termination is Termination.CONVERGED

    # config.alpha is ignored: the selected fit's alpha is its grid multiplier
    # times the plain fit's mean loss.
    capped = EosConfig(alpha=123.0, max_iters=cap)
    _, result = select_alpha(corrupted, data, cfg.alpha_grid, cfg.l2_strength, capped)
    assert result.alpha == 10.0 * scale
    assert result.termination is Termination.CONVERGED


def test_select_alpha_raises_when_no_fit_converges():
    data, corrupted = _corrupted_task()
    cfg = MislabelExperimentConfig(flip_proportion=0.2, alpha_grid=(0.1, 10.0))
    with pytest.raises(NonConvergenceError, match="max_iters=1") as info:
        select_alpha(corrupted, data, cfg.alpha_grid, cfg.l2_strength, EosConfig(max_iters=1))
    assert str(info.value).count(",") == 1  # both alpha values are named


def test_select_alpha_solves_the_plain_fit_once(monkeypatch):
    # The plain fit is the one cold solve; every grid fit starts from it and
    # shares its design.
    data, corrupted = _corrupted_task()
    starts, designs = [], []
    newton, hstack = eos.supervised._newton, np.hstack

    def counted_newton(design, y, w, l2_strength, initial, *args):
        starts.append(initial)
        return newton(design, y, w, l2_strength, initial, *args)

    def counted_hstack(*args, **kwargs):
        designs.append(hstack(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(eos.supervised, "_newton", counted_newton)
    monkeypatch.setattr(np, "hstack", counted_hstack)
    select_alpha(corrupted, data, (0.1, 1.0, 10.0), 1e-4)
    assert starts[0] is None
    assert sum(initial is None for initial in starts) == 1
    assert len(starts) > 3
    assert len(designs) == 1


def test_select_alpha_result_equals_a_cold_robust_fit():
    # Warm-starting the grid fits from the plain fit changes no bit.
    data, corrupted = _corrupted_task()
    plain, result = select_alpha(corrupted, data, (0.1, 1.0, 10.0), 1e-4)
    cold_plain = train_weighted_classifier(corrupted, np.full(200, 1 / 200), 1e-4)
    assert np.array_equal(plain.coefficients, cold_plain.coefficients)
    assert plain.intercept == cold_plain.intercept
    cold = robust_fit(corrupted, EosConfig(alpha=result.alpha), l2_strength=1e-4)
    assert np.array_equal(result.weights, cold.weights)
    assert np.array_equal(result.errors, cold.errors)
    assert np.array_equal(result.theta.coefficients, cold.theta.coefficients)
    assert result.theta.intercept == cold.theta.intercept
    assert np.array_equal(result.objective_trajectory, cold.objective_trajectory)
    assert result.iterations == cold.iterations
    assert result.termination is cold.termination


@pytest.mark.parametrize("grid", [(), (1.0, 0.0), (1.0, math.inf)])
def test_select_alpha_rejects_bad_grid(grid):
    data, corrupted = _corrupted_task()
    with pytest.raises(InvalidConfigError, match="alpha_grid"):
        select_alpha(corrupted, data, grid, 1e-4)


def test_mislabel_config_validation():
    with pytest.raises(InvalidConfigError):
        MislabelExperimentConfig(flip_proportion=0.5)
    with pytest.raises(InvalidConfigError):
        MislabelExperimentConfig(flip_proportion=0.1, n_splits=0)
    with pytest.raises(InvalidConfigError):
        MislabelExperimentConfig(flip_proportion=0.1, train_fraction=1.0)
    with pytest.raises(InvalidConfigError):
        MislabelExperimentConfig(flip_proportion=0.1, alpha_grid=())
