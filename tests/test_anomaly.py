from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import eos.anomaly

from eos import (
    Dataset,
    EosConfig,
    FlagRule,
    InvalidConfigError,
    InvalidInputError,
    calibrate_alpha,
    detect,
    effective_sample_size,
    fit,
    GaussianModel,
    SyntheticSpec,
    Termination,
    generate,
)

from conftest import planted_gaussian_2d


def test_identical_points_produce_no_flags():
    data = Dataset(np.tile([2.0, 3.0, 4.0], (20, 1)))
    report = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 0.1)
    assert report.n_flagged == 0


def test_topk_recovers_planted_outliers():
    data, planted = planted_gaussian_2d(seed=7)
    report = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 10)
    assert frozenset(int(i) for i in np.flatnonzero(report.flags)) == planted
    assert report.n_flagged == 10


def test_relative_threshold_separates_planted_outliers():
    # At alpha=1 every planted weight sits below 0.1/T, but in D=2 a handful
    # of tail inliers do too (their relative weights reach down to ~1.6e-3
    # while planted ones stay below 2e-11).  kappa=1e-4 lies in that gap and
    # recovers the planted set exactly; it is the recorded separating kappa.
    data, planted = planted_gaussian_2d(seed=7)
    report = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 0.1)
    n = data.n_instances
    planted_idx = np.fromiter(planted, dtype=np.intp)
    inlier_mask = np.ones(n, dtype=bool)
    inlier_mask[planted_idx] = False
    assert np.all(report.weights[planted_idx] < 0.1 / n)
    assert report.weights[planted_idx].max() < report.weights[inlier_mask].min()

    separated = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 1e-4)
    assert frozenset(int(i) for i in np.flatnonzero(separated.flags)) == planted


def test_topk_tie_break_by_index_on_symmetric_data():
    data = Dataset(np.tile([1.0, 1.0], (6, 1)))
    report = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 2)
    assert list(np.flatnonzero(report.flags)) == [0, 1]


def test_topk_monotone_in_k():
    data, _ = planted_gaussian_2d(seed=4)
    previous: set[int] = set()
    for k in (0, 1, 3, 7, 15, 40):
        report = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, k)
        current = set(np.flatnonzero(report.flags).tolist())
        assert report.n_flagged == min(k, data.n_instances - 1)
        assert previous <= current
        previous = current


def test_topk_caps_at_t_minus_one():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(10, 1)))
    report = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 500)
    assert report.n_flagged == 9


def test_relative_threshold_monotone_in_kappa():
    data, _ = planted_gaussian_2d(seed=4)
    previous: set[int] = set()
    for kappa in (1e-6, 1e-3, 0.05, 0.2, 0.8):
        report = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, kappa)
        current = set(np.flatnonzero(report.flags).tolist())
        assert previous <= current
        previous = current


def test_relative_threshold_never_flags_everything():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(25, 2)))
    # kappa > 1 would flag every near-uniform weight without the guard.
    report = detect(data, EosConfig(alpha=1e6), FlagRule.RELATIVE_THRESHOLD, 5.0)
    assert report.n_flagged < data.n_instances


def test_detect_requires_enough_instances():
    data = Dataset(np.zeros((4, 3)))
    with pytest.raises(InvalidInputError):
        detect(data, EosConfig(alpha=1.0))


def test_detect_rejects_bad_rule_params():
    data, _ = planted_gaussian_2d(seed=4)
    with pytest.raises(InvalidConfigError):
        detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 0.0)
    with pytest.raises(InvalidConfigError):
        detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, -3)


# ---------------------------------------------------------------------------
# alpha calibration
# ---------------------------------------------------------------------------

def test_calibrate_identical_points_saturates_low():
    data = Dataset(np.tile([0.5, 1.0], (20, 1)))
    result = calibrate_alpha(data, 0.5, EosConfig(alpha=1.0))
    assert result.alpha == pytest.approx(1e-6)
    assert result.attained_fraction == pytest.approx(1.0, abs=1e-9)
    assert result.saturated


def test_calibrate_planted_target_hits_band():
    data, _ = planted_gaussian_2d(seed=11)
    result = calibrate_alpha(data, 0.95, EosConfig(alpha=1.0))
    assert not result.saturated
    # Self-consistency: refit at the returned alpha.
    refit = fit(data, GaussianModel(), EosConfig(alpha=result.alpha))
    fraction = effective_sample_size(refit.weights) / data.n_instances
    assert 0.94 <= fraction <= 0.96


def test_calibrate_full_target_returns_large_alpha():
    data, _ = planted_gaussian_2d(seed=11)
    result = calibrate_alpha(data, 1.0, EosConfig(alpha=1.0))
    assert result.attained_fraction >= 0.99


def test_calibrate_rejects_bad_target():
    data, _ = planted_gaussian_2d(seed=11)
    with pytest.raises(InvalidInputError):
        calibrate_alpha(data, 0.0, EosConfig(alpha=1.0))
    with pytest.raises(InvalidInputError):
        calibrate_alpha(data, 1.5, EosConfig(alpha=1.0))


def test_ess_fraction_monotone_in_alpha():
    data, _ = planted_gaussian_2d(seed=11)
    fractions = []
    for alpha in np.logspace(-2, 2, 5):
        result = fit(data, GaussianModel(), EosConfig(alpha=float(alpha)))
        fractions.append(effective_sample_size(result.weights) / data.n_instances)
    assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))


def test_calibration_records_its_bisection_path():
    data, _ = planted_gaussian_2d(seed=11)
    config = EosConfig(alpha=1.0)
    result = calibrate_alpha(data, 0.95, config)
    assert [alpha for alpha, _ in result.path[:2]] == [1e-6, 1e6]
    assert len(result.path) > 2
    assert result.path[-1] == (result.alpha, result.attained_fraction)
    assert len(result.probe_fits) == len(result.path)
    for (alpha, fraction), probe_fit in zip(result.path, result.probe_fits):
        refit = fit(data, GaussianModel(), replace(config, alpha=alpha))
        assert effective_sample_size(refit.weights) / data.n_instances == fraction
        assert probe_fit == (refit.iterations, refit.termination)
    assert result.monotone
    at_alpha = fit(data, GaussianModel(), replace(config, alpha=result.alpha))
    assert np.array_equal(result.fit.weights, at_alpha.weights)


def test_calibration_reports_a_non_monotone_path(monkeypatch):
    # Probes at 1e-6, 1e6, 1, 1e-3, then 10**-4.5: the fraction at 1e-3 is
    # above the one at 1, which the bisection's monotonicity assumption rules out.
    data, _ = planted_gaussian_2d(seed=11)
    fractions = iter([0.1, 0.99, 0.97, 0.98, 0.95])
    monkeypatch.setattr(
        eos.anomaly, "effective_sample_size", lambda w: next(fractions) * len(w)
    )
    result = calibrate_alpha(data, 0.95, EosConfig(alpha=1.0))
    assert [fraction for _, fraction in result.path] == pytest.approx([0.1, 0.99, 0.97, 0.98, 0.95])
    assert result.alpha == pytest.approx(10**-4.5)
    assert not result.monotone


@pytest.mark.parametrize("seed", [9103, 9287])
def test_calibrate_survives_weights_collapsed_onto_two_points(seed):
    # During this bisection one fit's weights collapse onto two points, so
    # nine of ten covariance eigenvalues sit at the floor.  Evaluating a
    # re-factored sigma rebuilt from that spectrum moved the log-determinant
    # by more than fit's descent slack: the objective rose about 1e-9 and fit
    # raised ContractViolationError.
    spec = SyntheticSpec(
        T=1000, D=10, outlier_fraction=0.05, outlier_box_low=1.0, outlier_box_high=3.0, seed=seed
    )
    data, _ = generate(spec)
    calibration = calibrate_alpha(data, 0.95, EosConfig(alpha=1.0))
    assert not calibration.saturated
    assert abs(calibration.attained_fraction - 0.95) <= 0.01


def test_detect_reports_fit_termination():
    data, _ = planted_gaussian_2d(seed=7)
    converged = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 10)
    assert converged.termination is Termination.CONVERGED
    assert converged.iterations > 1
    capped = detect(data, EosConfig(alpha=1.0, max_iters=1), FlagRule.TOP_K, 10)
    assert capped.termination is Termination.MAX_ITERS_REACHED
    assert capped.iterations == 1
