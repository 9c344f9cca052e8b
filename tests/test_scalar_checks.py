"""One table over every public scalar parameter.

Each row calls a public entry point with one scalar parameter set to the
value under test.  A numpy scalar must give the same result, bit for bit and
type for type, as the Python number or string it equals; a string, None or
a bool must raise the entry point's own error class with a message that
ends in ``, got {value!r}``, as must a negative seed.  A second table holds
the array checks of the public boundary: each row builds one malformed array
or value and names the error class and a fragment of its message.
"""

from __future__ import annotations

import pickle
import re
import types

import numpy as np
import pytest

from eos import (
    CalibrationError,
    ClassifierLossModel,
    ClassifierParams,
    Dataset,
    EosConfig,
    FlagRule,
    GaussianModel,
    GaussianParams,
    InvalidConfigError,
    InvalidInputError,
    MislabelExperimentConfig,
    SyntheticSpec,
    affinity_blocks,
    auc,
    calibrate_alpha,
    calibrate_row_alpha,
    check_flag_rule,
    classifier_loss_error,
    decision_function,
    detect,
    effective_sample_size,
    fit,
    flag_outliers,
    gaussian_affinity_row,
    gaussian_error,
    inject_label_flips,
    mahalanobis_chi2_baseline,
    mahalanobis_squared,
    mislabel_experiment,
    objective,
    predict_proba,
    robust_fit,
    run_synth_benchmark,
    select_alpha,
    shannon_entropy,
    squared_euclidean_error,
    timing_probe_wstep,
    train_weighted_classifier,
    w_step,
)
from eos.cli import RunConfig

_RNG = np.random.default_rng(20)
_X = np.vstack([_RNG.standard_normal((36, 2)), _RNG.uniform(5.0, 8.0, (4, 2))])
POINTS = Dataset(_X)
LABELED = Dataset(_X, (_X[:, 0] + 0.5 * _RNG.standard_normal(40) > 0).astype(int))
ERRORS = np.linspace(0.0, 3.0, 9)
UNIFORM = np.full(40, 1.0 / 40)
FIT = fit(POINTS, GaussianModel(), EosConfig(alpha=1.0))
SPEC = {"T": 200, "D": 4, "outlier_fraction": 0.05}


def _timing_rows(**kwargs):
    rows = timing_probe_wstep(**{"t_grid": [16], "d_grid": [2], "repeats": 5, "fixed_t": 16,
                                 "warmup": 0, **kwargs})
    return [{k: v for k, v in row.items() if not k.endswith("_s")} for row in rows]


def _mislabel(**sizes):
    config = MislabelExperimentConfig(0.1, n_splits=1, alpha_grid=(1.0,))
    return mislabel_experiment(config, **{"task_size": 40, "task_dim": 2, **sizes})


# (id, call, numpy scalar, error class).  The numpy scalar is a valid value.
SITES = [
    ("EosConfig.alpha", lambda v: EosConfig(alpha=v), np.float32(0.3), InvalidConfigError),
    ("EosConfig.tol", lambda v: EosConfig(alpha=1.0, tol=v), np.float32(1e-6), InvalidConfigError),
    ("EosConfig.max_iters", lambda v: EosConfig(alpha=1.0, max_iters=v), np.int64(50),
     InvalidConfigError),
    ("RunConfig.seed", lambda v: RunConfig("timing", seed=v), np.int64(7), InvalidConfigError),
    ("w_step.alpha", lambda v: w_step(ERRORS, v), np.float32(0.3), InvalidConfigError),
    ("objective.alpha", lambda v: objective(ERRORS, np.full(9, 1 / 9), v), np.int64(2),
     InvalidConfigError),
    ("fit.alpha", lambda v: fit(POINTS, GaussianModel(), EosConfig(alpha=v)), np.float32(0.3),
     InvalidConfigError),
    ("gaussian_affinity_row.sigma_sq", lambda v: gaussian_affinity_row(POINTS, 3, v),
     np.int64(2), InvalidConfigError),
    ("gaussian_affinity_row.i", lambda v: gaussian_affinity_row(POINTS, v, 0.5), np.int64(3),
     InvalidInputError),
    ("calibrate_row_alpha.target_perplexity", lambda v: calibrate_row_alpha(ERRORS, v),
     np.float32(3.5), InvalidInputError),
    ("affinity_blocks.sigma_sq", lambda v: list(affinity_blocks(POINTS, sigma_sq=v)),
     np.int64(1), InvalidConfigError),
    ("affinity_blocks.perplexity", lambda v: list(affinity_blocks(POINTS, perplexity=v)),
     np.float32(5.5), InvalidInputError),
    ("detect.relative_threshold",
     lambda v: detect(POINTS, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, v),
     np.float32(0.3), InvalidConfigError),
    ("detect.top_k", lambda v: detect(POINTS, EosConfig(alpha=1.0), FlagRule.TOP_K, v),
     np.int64(4), InvalidConfigError),
    # The flag rule is checked where it is given: a report holds a checked one.
    ("detect.rule", lambda v: detect(POINTS, EosConfig(alpha=1.0), v, 0.1),
     np.str_(FlagRule.RELATIVE_THRESHOLD.value), InvalidConfigError),
    ("flag_outliers.rule", lambda v: flag_outliers(FIT, v, 0.1),
     np.str_(FlagRule.RELATIVE_THRESHOLD.value), InvalidConfigError),
    ("flag_outliers.top_k", lambda v: flag_outliers(FIT, FlagRule.TOP_K, v),
     np.float32(4.0), InvalidConfigError),
    ("check_flag_rule.relative_threshold",
     lambda v: check_flag_rule(FlagRule.RELATIVE_THRESHOLD, v), np.float32(0.3),
     InvalidConfigError),
    ("calibrate_alpha.target_ess_fraction",
     lambda v: calibrate_alpha(POINTS, v, EosConfig(alpha=1.0)), np.float32(0.75),
     InvalidInputError),
    ("GaussianParams.ridge", lambda v: GaussianParams(np.zeros(2), np.eye(2), v),
     np.float32(0.1), InvalidInputError),
    ("SyntheticSpec.T", lambda v: SyntheticSpec(**{**SPEC, "T": v}), np.int64(50),
     InvalidConfigError),
    ("SyntheticSpec.D", lambda v: SyntheticSpec(**{**SPEC, "D": v}), np.int64(3),
     InvalidConfigError),
    ("SyntheticSpec.outlier_fraction",
     lambda v: SyntheticSpec(**{**SPEC, "outlier_fraction": v}), np.float32(0.2),
     InvalidConfigError),
    ("SyntheticSpec.seed", lambda v: SyntheticSpec(**{**SPEC, "seed": v}), np.int64(3),
     InvalidConfigError),
    ("SyntheticSpec.outlier_box_low",
     lambda v: SyntheticSpec(**{**SPEC, "outlier_box_low": v}), np.float32(4.5),
     InvalidConfigError),
    ("SyntheticSpec.outlier_box_high",
     lambda v: SyntheticSpec(**{**SPEC, "outlier_box_high": v}), np.int64(8),
     InvalidConfigError),
    ("mahalanobis_chi2_baseline.quantile", lambda v: mahalanobis_chi2_baseline(POINTS, v),
     np.float32(0.9), InvalidConfigError),
    ("timing_probe_wstep.repeats", lambda v: _timing_rows(repeats=v), np.int64(5),
     InvalidInputError),
    ("timing_probe_wstep.fixed_t", lambda v: _timing_rows(fixed_t=v), np.int64(16),
     InvalidInputError),
    ("timing_probe_wstep.t_grid", lambda v: _timing_rows(t_grid=[v]), np.int64(16),
     InvalidInputError),
    ("timing_probe_wstep.d_grid", lambda v: _timing_rows(d_grid=[v]), np.int64(2),
     InvalidInputError),
    ("timing_probe_wstep.seed", lambda v: _timing_rows(seed=v), np.int64(3), InvalidInputError),
    ("timing_probe_wstep.warmup", lambda v: _timing_rows(warmup=v), np.int64(1),
     InvalidInputError),
    ("run_synth_benchmark.n_seeds",
     lambda v: run_synth_benchmark(SyntheticSpec(**SPEC), v), np.int64(2),
     InvalidInputError),
    ("ClassifierParams.intercept", lambda v: ClassifierParams(np.zeros(2), v),
     np.float32(0.5), InvalidInputError),
    ("train_weighted_classifier.l2_strength",
     lambda v: train_weighted_classifier(LABELED, UNIFORM, v), np.float32(0.01),
     InvalidConfigError),
    ("train_weighted_classifier.grad_tol",
     lambda v: train_weighted_classifier(LABELED, UNIFORM, grad_tol=v), np.float32(1e-6),
     InvalidConfigError),
    ("train_weighted_classifier.max_iters",
     lambda v: train_weighted_classifier(LABELED, UNIFORM, max_iters=v), np.int64(50),
     InvalidConfigError),
    ("ClassifierLossModel.l2_strength", lambda v: ClassifierLossModel(v).l2_strength,
     np.float32(0.01), InvalidConfigError),
    ("robust_fit.l2_strength", lambda v: robust_fit(LABELED, EosConfig(alpha=1.0), v),
     np.float32(0.01), InvalidConfigError),
    ("select_alpha.alpha_grid", lambda v: select_alpha(LABELED, LABELED, (1.0, v), 0.01),
     np.float32(0.3), InvalidConfigError),
    ("inject_label_flips.p", lambda v: inject_label_flips(LABELED, v, 3), np.float32(0.2),
     InvalidInputError),
    ("inject_label_flips.seed", lambda v: inject_label_flips(LABELED, 0.2, v), np.int64(3),
     InvalidInputError),
    ("mislabel_experiment.task_size", lambda v: _mislabel(task_size=v), np.int64(40),
     InvalidInputError),
    ("mislabel_experiment.task_dim", lambda v: _mislabel(task_dim=v), np.int64(2),
     InvalidInputError),
    ("MislabelExperimentConfig.flip_proportion",
     lambda v: MislabelExperimentConfig(flip_proportion=v), np.float32(0.2), InvalidConfigError),
    ("MislabelExperimentConfig.n_splits",
     lambda v: MislabelExperimentConfig(0.1, n_splits=v), np.int64(3), InvalidConfigError),
    ("MislabelExperimentConfig.seed",
     lambda v: MislabelExperimentConfig(0.1, seed=v), np.int64(3), InvalidConfigError),
    ("MislabelExperimentConfig.train_fraction",
     lambda v: MislabelExperimentConfig(0.1, train_fraction=v), np.float32(0.5),
     InvalidConfigError),
    ("MislabelExperimentConfig.alpha_grid",
     lambda v: MislabelExperimentConfig(0.1, alpha_grid=(v,)), np.float32(0.3),
     InvalidConfigError),
    ("MislabelExperimentConfig.l2_strength",
     lambda v: MislabelExperimentConfig(0.1, l2_strength=v), np.float32(0.01),
     InvalidConfigError),
]
IDS = [site[0] for site in SITES]
# None selects another mode at these sites, so it is no bad value there.
NONE_MEANS_UNSET = {"affinity_blocks.sigma_sq", "affinity_blocks.perplexity"}
BAD = [pytest.param(*site, bad, id=f"{site[0]}-{label}")
       for site in SITES
       for bad, label in (("x", "str"), (None, "None"), (True, "bool"))
       if not (bad is None and site[0] in NONE_MEANS_UNSET)] + [
    # A grid that is not iterable at all, and negative seeds.
    pytest.param("MislabelExperimentConfig.alpha_grid",
                 lambda v: MislabelExperimentConfig(0.1, alpha_grid=v), None, InvalidConfigError,
                 0.3, id="MislabelExperimentConfig.alpha_grid-scalar"),
    pytest.param("select_alpha.alpha_grid", lambda v: select_alpha(LABELED, LABELED, v, 0.01),
                 None, InvalidConfigError, None, id="select_alpha.alpha_grid-whole-None"),
] + [pytest.param(*site, -1, id=f"{site[0]}-negative")
     for site in SITES if site[0].endswith(".seed")]


# (id, call, error class, message fragment).
ARRAY_SITES = [
    ("Dataset.instances-1d", lambda: Dataset(np.zeros(3)), InvalidInputError,
     "instances must be a 2-D matrix, got ndim=1"),
    ("Dataset.instances-no-rows", lambda: Dataset(np.zeros((0, 2))), InvalidInputError,
     "instances must be at least 1x1, got (0, 2)"),
    ("Dataset.instances-non-finite", lambda: Dataset(np.array([[0.0, np.nan]])),
     InvalidInputError, "instances contain a non-finite entry at row 0, column 1"),
    ("Dataset.instances-beyond-bound", lambda: Dataset(np.array([[0.0, 1e200]])),
     InvalidInputError, "|instances| reaches 1e+200, beyond 3.35"),
    ("Dataset.labels-length", lambda: Dataset(_X, np.zeros(39, dtype=int)), InvalidInputError,
     "labels must be a vector of length 40, got shape (39,)"),
    ("Dataset.feature_names-length", lambda: Dataset(_X, feature_names=("a",)),
     InvalidInputError, "feature_names has 1 entries for 2 columns"),
    ("Dataset.subset-out-of-range", lambda: POINTS.subset([0, 99]), InvalidInputError,
     "indices must be integers in [-40, 40), got int64 values in [0, 99]"),
    ("Dataset.subset-non-integer", lambda: POINTS.subset([0.5]), InvalidInputError,
     "indices must be integers in [-40, 40), got float64 values in [0.5, 0.5]"),
    ("auc.shape", lambda: auc(np.zeros(3), np.array([0, 1])), InvalidInputError,
     "scores and labels must be 1-D vectors of equal length"),
    ("auc.non-finite", lambda: auc(np.array([0.0, np.nan]), np.array([0, 1])),
     InvalidInputError, "scores must be finite"),
    ("auc.label", lambda: auc(np.zeros(2), np.array([0, 2])), InvalidInputError,
     "labels must be binary 0/1"),
    ("ClassifierParams.coefficients-2d", lambda: ClassifierParams(np.zeros((2, 1)), 0.0),
     InvalidInputError, "coefficients must be a vector, got shape (2, 1)"),
    ("ClassifierParams.coefficients-non-finite",
     lambda: ClassifierParams(np.array([np.inf, 0.0]), 0.0), InvalidInputError,
     "classifier parameters must be finite"),
    ("decision_function.columns",
     lambda: decision_function(POINTS, ClassifierParams(np.zeros(3), 0.0)),
     InvalidInputError, "dataset has 2 features, params expect 3"),
    ("classifier_loss_error.columns",
     lambda: classifier_loss_error(LABELED, ClassifierParams(np.zeros(3), 0.0)),
     InvalidInputError, "dataset has 2 features, params expect 3"),
    ("train_weighted_classifier.initial",
     lambda: train_weighted_classifier(LABELED, UNIFORM,
                                       initial=ClassifierParams(np.zeros(3), 0.0)),
     InvalidInputError, "dataset has 2 features, params expect 3"),
    ("GaussianParams.mu-2d", lambda: GaussianParams(np.zeros((2, 1)), np.eye(2)),
     InvalidInputError, "mu must be a vector, got shape (2, 1)"),
    ("GaussianParams.mu-empty", lambda: GaussianParams(np.zeros(0), np.zeros((0, 0))),
     InvalidInputError, "mu must have at least one entry"),
    ("GaussianParams.mu-non-finite", lambda: GaussianParams(np.array([np.nan, 0.0]), np.eye(2)),
     InvalidInputError, "mu and sigma must be finite"),
    ("GaussianParams.mu-beyond-bound", lambda: GaussianParams(np.array([0.0, 1e200]), np.eye(2)),
     InvalidInputError, "|mu| reaches 1e+200, beyond 3.35"),
    ("mahalanobis_squared.columns",
     lambda: mahalanobis_squared(POINTS, GaussianParams(np.zeros(3), np.eye(3))),
     InvalidInputError, "dataset has 2 features, params expect 3"),
    ("gaussian_error.columns", lambda: gaussian_error(POINTS, GaussianParams(np.zeros(1), np.eye(1))),
     InvalidInputError, "dataset has 2 features, params expect 1"),
    ("squared_euclidean_error.center",
     lambda: squared_euclidean_error(POINTS, np.array([np.inf, 0.0])), InvalidInputError,
     "center must be finite"),
    ("squared_euclidean_error.center-beyond-bound",
     lambda: squared_euclidean_error(POINTS, np.array([1e200, 0.0])), InvalidInputError,
     "|center| reaches 1e+200, beyond 3.35"),
    ("shannon_entropy.weights-2d", lambda: shannon_entropy(np.full((2, 2), 0.25)),
     InvalidInputError, "weights must be a non-empty 1-D vector, got shape (2, 2)"),
    ("effective_sample_size.weights-non-finite",
     lambda: effective_sample_size(np.array([np.nan, 1.0])), InvalidInputError,
     "weights contain a non-finite entry"),
    ("fit.error-model-shape",
     lambda: fit(POINTS, types.SimpleNamespace(step=lambda data, w: (None, np.zeros(39))),
                 EosConfig()),
     InvalidInputError, "error model returned shape (39,), expected (40,)"),
    ("mahalanobis_chi2_baseline.too-few-instances",
     lambda: mahalanobis_chi2_baseline(Dataset(_X[:3])), InvalidInputError,
     "need at least D+2 = 4 instances for a stable covariance, got T=3"),
    ("mislabel_experiment.split-too-small", lambda: _mislabel(task_size=5), InvalidInputError,
     "split of T=5 leaves too few instances on one side"),
    # The largest bracket end cannot spread the weight of an error near the
    # float maximum evenly, so perplexity 2 of two neighbors is out of reach.
    ("calibrate_row_alpha.above-range", lambda: calibrate_row_alpha([0.0, 1.7e308], 2),
     CalibrationError, "target perplexity 2.0 above achievable range [1, 1.80891]"),
]

# Each evaluator that takes a Dataset first refuses a bare matrix there and
# the parameters-first order, before either argument is read.
_GAUSSIAN = GaussianParams(np.zeros(2), np.eye(2))
_CLASSIFIER = ClassifierParams(np.zeros(2), 0.0)
ARRAY_SITES += [
    (f"{evaluate.__name__}.{case}", lambda evaluate=evaluate, args=args: evaluate(*args),
     InvalidInputError, f"got {type(args[0]).__name__}; the Dataset comes first")
    for evaluate, params in [(mahalanobis_squared, _GAUSSIAN), (gaussian_error, _GAUSSIAN),
                             (squared_euclidean_error, np.zeros(2)),
                             (decision_function, _CLASSIFIER), (predict_proba, _CLASSIFIER),
                             (classifier_loss_error, _CLASSIFIER)]
    for case, args in [("ndarray-first", (_X, params)), ("swapped", (params, LABELED))]
]


@pytest.mark.parametrize("name, call, error, fragment", ARRAY_SITES,
                         ids=[site[0] for site in ARRAY_SITES])
def test_malformed_array_raises_the_sites_error(name, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("name, call, value, error", SITES, ids=IDS)
def test_numpy_scalar_equals_python_number(name, call, value, error):
    # pickle compares types as well as bits: a stored np.float32 would differ.
    assert pickle.dumps(call(value)) == pickle.dumps(call(value.item()))


@pytest.mark.parametrize("name, call, value, error, bad", BAD)
def test_non_number_raises_the_sites_error(name, call, value, error, bad):
    with pytest.raises(error, match=re.escape(f", got {bad!r}") + "$"):
        call(bad)


def test_numpy_alpha_keeps_the_fit_in_float64():
    alpha = np.float32(0.3)
    assert EosConfig(alpha=alpha).alpha == float(alpha)
    assert type(EosConfig(alpha=alpha).alpha) is float
    trajectory = fit(POINTS, GaussianModel(), EosConfig(alpha=alpha)).objective_trajectory
    reference = fit(POINTS, GaussianModel(), EosConfig(alpha=float(alpha))).objective_trajectory
    assert trajectory.dtype == np.float64
    assert trajectory.tobytes() == reference.tobytes()


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "-huge"])
def test_int_beyond_float_range_is_rejected(value):
    with pytest.raises(InvalidConfigError, match=r"^alpha must be .*, got -?10{400}$"):
        EosConfig(alpha=value)
    with pytest.raises(InvalidConfigError, match=r"^max_iters must be .*, got -?10{400}$"):
        EosConfig(alpha=1.0, max_iters=value)
