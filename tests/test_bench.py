from __future__ import annotations

import numpy as np
import pytest

from eos import (
    Dataset,
    InvalidConfigError,
    InvalidInputError,
    SyntheticSpec,
    generate,
    mahalanobis_chi2_baseline,
    mahalanobis_squared,
    precision,
    run_synth_benchmark,
    timing_probe_wstep,
    timing_ratios,
    weighted_gaussian_mle,
)
from eos.bench import _ci95, _metric_report


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generate_no_outliers():
    data, truth = generate(SyntheticSpec(T=100, D=3, outlier_fraction=0.0, seed=1))
    assert truth == frozenset()
    assert data.n_instances == 100


def test_generate_counts_and_box_support():
    spec = SyntheticSpec(T=1000, D=10, outlier_fraction=0.05, seed=2)
    data, truth = generate(spec)
    assert len(truth) == 50
    rows = data.instances[sorted(truth)]
    assert np.all(rows >= 5.0) and np.all(rows <= 9.0)


def test_generate_inlier_mean_clt_bound():
    spec = SyntheticSpec(seed=3)
    data, truth = generate(spec)
    inlier_mask = np.ones(spec.T, dtype=bool)
    inlier_mask[sorted(truth)] = False
    means = data.instances[inlier_mask].mean(axis=0)
    assert np.abs(means).max() <= 4.0 / np.sqrt(spec.T)


def test_generate_deterministic():
    spec = SyntheticSpec(T=200, D=4, seed=9)
    first, truth_a = generate(spec)
    second, truth_b = generate(spec)
    assert first.instances.tobytes() == second.instances.tobytes()
    assert truth_a == truth_b


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        SyntheticSpec(T=50, D=2, outlier_box_low=5.0, outlier_box_high=5.0)
    with pytest.raises(InvalidConfigError):
        SyntheticSpec(T=10, D=10, outlier_fraction=0.4)
    with pytest.raises(InvalidConfigError, match="^outlier_box_low must be finite, got 'x'$"):
        SyntheticSpec(outlier_box_low="x")
    with pytest.raises(InvalidConfigError, match="^outlier_box_high must be finite, got inf$"):
        SyntheticSpec(outlier_box_high=np.inf)


def test_equal_specs_compare_equal_and_hash_alike():
    assert SyntheticSpec(seed=1) == SyntheticSpec(seed=1)
    assert SyntheticSpec(seed=1) != SyntheticSpec(seed=2)
    assert hash(SyntheticSpec(outlier_box_low=np.float32(5.0))) == hash(SyntheticSpec())


# ---------------------------------------------------------------------------
# chi2 baseline
# ---------------------------------------------------------------------------

def test_baseline_flags_extreme_point():
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(0, 0.2, size=(60, 2)), [[50.0, 50.0]]])
    flags = mahalanobis_chi2_baseline(Dataset(x), 0.975)
    assert flags[-1]


def test_baseline_false_positive_rate_on_pure_gaussian():
    rng = np.random.default_rng(6)
    flags = mahalanobis_chi2_baseline(Dataset(rng.standard_normal((10_000, 4))), 0.975)
    assert 0.015 <= flags.mean() <= 0.035


def test_baseline_extreme_quantile_flags_nothing():
    rng = np.random.default_rng(7)
    flags = mahalanobis_chi2_baseline(Dataset(rng.standard_normal((500, 3))), 0.999999)
    assert flags.sum() == 0


def test_baseline_threshold_is_the_chi2_quantile():
    from scipy.stats import chi2

    rng = np.random.default_rng(9)
    for d in (1, 3, 10):
        data = Dataset(rng.standard_normal((400, d)))
        maha = mahalanobis_squared(data, weighted_gaussian_mle(data, np.full(400, 1 / 400)))
        for q in (0.5, 0.975, 0.999):
            expected = maha > chi2.ppf(q, d)
            assert np.array_equal(mahalanobis_chi2_baseline(data, q), expected)


def test_robust_baseline_full_recall_on_default_spec():
    # The robustified variant is immune to the masking that a 5% cluster at
    # 15 sigma induces in the classical MLE estimates.
    for seed in range(3):
        data, truth = generate(SyntheticSpec(seed=seed))
        flags = mahalanobis_chi2_baseline(data, 0.975, robust=True)
        assert all(flags[i] for i in truth)


def test_baseline_validation():
    data = Dataset(np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        mahalanobis_chi2_baseline(data, 0.975)
    rng = np.random.default_rng(8)
    with pytest.raises(InvalidConfigError):
        mahalanobis_chi2_baseline(Dataset(rng.normal(size=(50, 2))), 1.5)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_precision_basic_cases():
    flags = np.array([True, True, False, False])
    assert precision(flags, frozenset({0, 1})) == 1.0
    assert precision(flags, frozenset({2, 3})) == 0.0
    ten = np.zeros(20, dtype=bool)
    ten[:10] = True
    assert precision(ten, frozenset(range(8))) == pytest.approx(0.8)
    assert precision(np.zeros(4, dtype=bool), frozenset({1})) is None


def test_precision_permutation_invariant():
    rng = np.random.default_rng(9)
    flags = rng.uniform(size=50) < 0.3
    truth = frozenset(int(i) for i in rng.choice(50, size=10, replace=False))
    base = precision(flags, truth)
    perm = rng.permutation(50)
    permuted_truth = frozenset(int(np.flatnonzero(perm == i)[0]) for i in truth)
    assert precision(flags[perm], permuted_truth) == pytest.approx(base)


def test_ci95_zero_variance():
    assert _ci95(np.array([2.5, 2.5, 2.5])) == (2.5, 2.5, 2.5)


def test_ci95_hand_computed():
    mean, low, high = _ci95(np.array([0.0, 1.0]))
    assert mean == pytest.approx(0.5)
    assert low == pytest.approx(-0.48, abs=1e-12)
    assert high == pytest.approx(1.48, abs=1e-12)


def test_ci95_contains_zero_for_standard_normal_draws():
    values = np.random.default_rng(123).standard_normal(50)
    _, low, high = _ci95(values)
    assert low <= 0.0 <= high


def test_ci95_needs_two_values():
    with pytest.raises(InvalidInputError):
        _ci95(np.array([1.0]))


def test_metric_report_with_absent_values():
    report = _metric_report("m", [0.5, None, 0.7])
    assert report.per_seed_values == (0.5, None, 0.7)
    assert report.mean == pytest.approx(0.6)
    assert report.ci_low <= report.mean <= report.ci_high
    with pytest.raises(InvalidInputError):
        _metric_report("m", [None, None])


# ---------------------------------------------------------------------------
# timing + harness
# ---------------------------------------------------------------------------

def test_timing_probe_smoke():
    rows = timing_probe_wstep([1000, 2000], [2, 5], repeats=5, fixed_t=1000)
    assert len(rows) == 4
    for row in rows:
        assert row["median_s"] > 0
        assert row["repeats"] == 5
    ratios = timing_ratios(rows)
    assert len(ratios["t_ratios"]) == 1
    assert ratios["d_max_over_min"] >= 1.0


def test_timing_probe_validation():
    with pytest.raises(InvalidInputError):
        timing_probe_wstep([], [2], repeats=5)
    with pytest.raises(InvalidInputError):
        timing_probe_wstep([100], [2], repeats=3)
    for bad in ({"seed": -1}, {"seed": 1.5}, {"warmup": "x"}, {"warmup": -1}):
        with pytest.raises(InvalidInputError, match="must be a non-negative integer"):
            timing_probe_wstep([100], [2], repeats=5, **bad)


def test_synth_benchmark_structure_and_quality():
    out = run_synth_benchmark(SyntheticSpec(T=300, D=5, seed=5), 3)
    assert len(out["rows"]) == 3
    reports = out["reports"]
    assert set(reports) == {
        "precision_eos_topk",
        "precision_chi2_mle",
        "precision_chi2_robust",
    }
    assert len(reports["precision_eos_topk"].per_seed_values) == 3
    assert reports["precision_eos_topk"].mean >= reports["precision_chi2_robust"].mean


def test_synth_benchmark_of_one_seed_has_a_point_interval():
    reports = run_synth_benchmark(SyntheticSpec(T=200, D=4, seed=5), 1)["reports"]
    for report in reports.values():
        (value,) = report.per_seed_values
        assert report.mean == report.ci_low == report.ci_high == value
