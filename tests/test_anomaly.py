from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import eos.anomaly
import eos.core

from eos import (
    AlphaCalibration,
    CalibrationError,
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
    SquaredEuclideanModel,
    SyntheticSpec,
    Termination,
    generate,
)

from conftest import planted_gaussian_2d


def test_identical_points_produce_no_flags():
    data = Dataset(np.tile([2.0, 3.0, 4.0], (20, 1)))
    _, flags = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 0.1)
    assert not flags.any()


def test_topk_recovers_planted_outliers():
    data, planted = planted_gaussian_2d(seed=7)
    _, flags = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 10)
    assert frozenset(int(i) for i in np.flatnonzero(flags)) == planted
    assert flags.sum() == 10


def test_relative_threshold_separates_planted_outliers():
    # At alpha=1 every planted weight sits below 0.1/T, but in D=2 a handful
    # of tail inliers do too (their relative weights reach down to ~1.6e-3
    # while planted ones stay below 2e-11).  kappa=1e-4 lies in that gap and
    # recovers the planted set exactly; it is the recorded separating kappa.
    data, planted = planted_gaussian_2d(seed=7)
    result, _ = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 0.1)
    n = data.n_instances
    planted_idx = np.fromiter(planted, dtype=np.intp)
    inlier_mask = np.ones(n, dtype=bool)
    inlier_mask[planted_idx] = False
    weights = result.weights
    assert np.all(weights[planted_idx] < 0.1 / n)
    assert weights[planted_idx].max() < weights[inlier_mask].min()

    _, separated = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 1e-4)
    assert frozenset(int(i) for i in np.flatnonzero(separated)) == planted


def test_topk_tie_break_by_index_on_symmetric_data():
    data = Dataset(np.tile([1.0, 1.0], (6, 1)))
    _, flags = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 2)
    assert list(np.flatnonzero(flags)) == [0, 1]


@pytest.mark.parametrize("k, flagged", [(1, [1]), (2, [1, 3]), (3, [1, 2, 3]), (4, [0, 1, 2, 3])])
def test_topk_breaks_weight_ties_by_the_fits_larger_error_then_index(k, flagged):
    data = Dataset(np.random.default_rng(0).normal(size=(8, 2)))
    errors = np.array([0.0, 2.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    tied = replace(fit(data, GaussianModel(), EosConfig(alpha=1.0)),
                   weights=np.full(8, 0.125), errors=errors)
    flags = eos.anomaly.flag_outliers(tied, FlagRule.TOP_K, k)
    assert np.flatnonzero(flags).tolist() == flagged


def test_topk_flags_the_first_k_of_the_full_sort():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(200, 2)))
    # Five weight levels and four error levels: ties within ties everywhere.
    w = rng.integers(1, 6, size=200).astype(float)
    w /= w.sum()
    errors = rng.integers(0, 4, size=200).astype(float)
    tied = replace(fit(data, GaussianModel(), EosConfig(alpha=1.0)), weights=w, errors=errors)
    order = np.lexsort((-errors, w))
    at_tie = next(k for k in range(1, 199)
                  if w[order[k - 1]] == w[order[k]] and errors[order[k - 1]] == errors[order[k]])
    for k in (0, 1, at_tie, 199):
        expected = np.zeros(200, dtype=bool)
        expected[order[:k]] = True
        flags = eos.anomaly.flag_outliers(tied, FlagRule.TOP_K, k)
        assert np.array_equal(flags, expected)


@pytest.mark.parametrize("rule, param", [(FlagRule.RELATIVE_THRESHOLD, 0.1), (FlagRule.TOP_K, 3)])
def test_flags_are_read_only(rule, param):
    data = Dataset(np.random.default_rng(2).normal(size=(20, 2)))
    flags = eos.anomaly.flag_outliers(fit(data, GaussianModel(), EosConfig()), rule, param)
    with pytest.raises(ValueError, match="read-only"):
        flags[0] = not flags[0]


def test_topk_monotone_in_k():
    data, _ = planted_gaussian_2d(seed=4)
    previous: set[int] = set()
    for k in (0, 1, 3, 7, 15, 40):
        _, flags = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, k)
        current = set(np.flatnonzero(flags).tolist())
        assert flags.sum() == min(k, data.n_instances - 1)
        assert previous <= current
        previous = current


def test_topk_caps_at_t_minus_one():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(10, 1)))
    _, flags = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 500)
    assert flags.sum() == 9


def test_relative_threshold_monotone_in_kappa():
    data, _ = planted_gaussian_2d(seed=4)
    previous: set[int] = set()
    for kappa in (1e-6, 1e-3, 0.05, 0.2, 0.8):
        _, flags = detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, kappa)
        current = set(np.flatnonzero(flags).tolist())
        assert previous <= current
        previous = current


def test_relative_threshold_never_flags_everything():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(25, 2)))
    # kappa > 1 would flag every near-uniform weight without the guard.
    _, flags = detect(data, EosConfig(alpha=1e6), FlagRule.RELATIVE_THRESHOLD, 5.0)
    assert flags.sum() < data.n_instances


@pytest.mark.parametrize("shape", [(4, 3), (8, 10)], ids=["4x3", "8x10"])
def test_detect_requires_enough_instances(monkeypatch, shape):
    # T >= D+2 is checked before any fit, by detect and by calibrate_alpha.
    monkeypatch.setattr(eos.anomaly, "fit", lambda *args: pytest.fail("fitted"))
    data = Dataset(np.random.default_rng(0).normal(size=shape))
    message = (f"^need at least D\\+2 = {shape[1] + 2} instances for a stable covariance, "
               f"got T={shape[0]}$")
    with pytest.raises(InvalidInputError, match=message):
        detect(data, EosConfig(alpha=1.0))
    with pytest.raises(InvalidInputError, match=message):
        calibrate_alpha(data, 0.9, EosConfig(alpha=1.0))


def test_detect_returns_the_fit_it_flags():
    data, _ = planted_gaussian_2d(seed=7)
    result, flags = detect(data, EosConfig(alpha=2.5), FlagRule.TOP_K, 10)
    assert result.alpha == 2.5
    assert np.array_equal(flags, eos.anomaly.flag_outliers(result, FlagRule.TOP_K, 10))
    alone = fit(data, GaussianModel(), EosConfig(alpha=2.5))
    assert np.array_equal(flags, eos.anomaly.flag_outliers(alone, FlagRule.TOP_K, 10))


def test_any_models_fit_can_be_flagged():
    data, _ = planted_gaussian_2d(seed=7)
    result = fit(data, SquaredEuclideanModel(), EosConfig(alpha=1.0))
    top = eos.anomaly.flag_outliers(result, FlagRule.TOP_K, 10)
    expected = np.zeros(data.n_instances, dtype=bool)
    expected[np.lexsort((-result.errors, result.weights))[:10]] = True
    assert np.array_equal(top, expected)
    relative = eos.anomaly.flag_outliers(result, FlagRule.RELATIVE_THRESHOLD, 0.1)
    assert np.array_equal(relative, result.weights < 0.1 / data.n_instances)


def test_detect_rejects_bad_rule_params(monkeypatch):
    data, _ = planted_gaussian_2d(seed=4)
    with pytest.raises(InvalidConfigError):
        detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, 0.0)
    with pytest.raises(InvalidConfigError):
        detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, -3)
    # The parameter is checked before the fit, which is never reached.
    monkeypatch.setattr(eos.anomaly, "fit", lambda *args: pytest.fail("fitted"))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidConfigError, match=f"top-k count .*, got {bad!r}$"):
            detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, bad)
        with pytest.raises(InvalidConfigError, match=f"relative threshold .*, got {bad!r}$"):
            detect(data, EosConfig(alpha=1.0), FlagRule.RELATIVE_THRESHOLD, bad)


# ---------------------------------------------------------------------------
# alpha calibration
# ---------------------------------------------------------------------------

def test_calibrate_identical_points_saturates_low():
    data = Dataset(np.tile([0.5, 1.0], (20, 1)))
    result = calibrate_alpha(data, 0.5, EosConfig(alpha=1.0))
    assert result.fit.alpha == pytest.approx(1e-6)
    assert result.attained_fraction == pytest.approx(1.0, abs=1e-9)
    assert result.saturated


def test_calibrate_planted_target_hits_band():
    data, _ = planted_gaussian_2d(seed=11)
    result = calibrate_alpha(data, 0.95, EosConfig(alpha=1.0))
    assert not result.saturated
    # Self-consistency: refit at the returned alpha.
    refit = fit(data, GaussianModel(), EosConfig(alpha=result.fit.alpha))
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
    # The first probe is the bisection's first midpoint.
    assert result.path[0][0] == math.sqrt(1e-6 * 1e6)
    assert len(result.path) > 2
    assert result.path[-1] == (result.fit.alpha, result.attained_fraction)
    assert len(result.probe_fits) == len(result.path)
    for (alpha, fraction), probe_fit in zip(result.path, result.probe_fits):
        refit = fit(data, GaussianModel(), replace(config, alpha=alpha))
        assert effective_sample_size(refit.weights) / data.n_instances == fraction
        assert probe_fit == (refit.iterations, refit.termination)
    assert result.monotone
    at_alpha = fit(data, GaussianModel(), replace(config, alpha=result.fit.alpha))
    assert np.array_equal(result.fit.weights, at_alpha.weights)


def test_calibration_checks_no_weights(monkeypatch):
    # A probe reads the ESS of its fit's own weights, and the surrogate's
    # guesses (11 at this target, besides 5 probes) that of a w-step of a
    # probe's errors: neither needs a check.
    checked = []
    check_weights = eos.core.check_weights

    def counting(*args):
        checked.append(args)
        return check_weights(*args)

    monkeypatch.setattr(eos.core, "check_weights", counting)
    data, _ = planted_gaussian_2d(seed=7)
    result = calibrate_alpha(data, 0.9, EosConfig())
    assert len(result.path) == 5
    assert checked == []


def test_calibration_reports_a_non_monotone_path(monkeypatch):
    # Fractions by alpha, with a bump: 0.98 on [1e-4, 0.5) lies above the
    # 0.97 of [0.5, 1e3), which the bisection's monotonicity assumption rules
    # out.  Bisecting probes 1e-6, 1e6, 1, 1e-3 and lands on 10**-4.5.
    def fraction(alpha):
        for edge, value in ((3e-5, 0.1), (1e-4, 0.95), (0.5, 0.98), (1e3, 0.97)):
            if alpha < edge:
                return value
        return 0.99

    probe = eos.anomaly._probe

    def faked(dataset, config):
        return fraction(config.alpha), probe(dataset, config)[1]

    monkeypatch.setattr(eos.anomaly, "_probe", faked)
    data, _ = planted_gaussian_2d(seed=11)
    result = calibrate_alpha(data, 0.95, EosConfig(alpha=1.0))
    assert all(f == fraction(alpha) for alpha, f in result.path)
    assert result.fit.alpha == math.sqrt(1e-6 * 1e-3)
    assert result.attained_fraction == 0.95
    assert not result.monotone


@pytest.mark.parametrize("step", [3.7e-6, 0.806, 123456.7])
def test_calibration_walk_closes_on_neighbouring_floats(monkeypatch, step):
    # The fraction steps from 0 to 1 at ``step``, so no alpha attains 0.5 and
    # the bisection runs until the bracket is two neighbouring floats: the
    # deepest walk there is, about 60 midpoints of [1e-6, 1e6].
    probe = eos.anomaly._probe
    probed = []

    def faked(dataset, config):
        probed.append(config.alpha)
        return float(config.alpha >= step), probe(dataset, config)[1]

    monkeypatch.setattr(eos.anomaly, "_probe", faked)
    data, _ = planted_gaussian_2d(seed=11)
    with pytest.raises(CalibrationError, match="^ESS fraction jumps from 0.0000 at alpha=") as info:
        calibrate_alpha(data, 0.5, EosConfig(alpha=1.0))
    low, high = (float(a) for a in re.findall(r"alpha=([^ ]+) ", str(info.value)))
    assert low < step <= high == np.nextafter(low, np.inf)
    assert {low, high} <= set(probed)
    assert 50 < len(probed) < 64


def _bisect_alpha(dataset, target_ess_fraction, config, fraction_at=None):
    """calibrate_alpha as plain bisection: a cold fit at every node, in order.
    ``fraction_at(alpha)``, when given, stands in for each fit's ESS fraction."""
    n = dataset.n_instances
    model = GaussianModel()
    path = []
    probe_fits = []

    def probe(alpha):
        result = fit(dataset, model, replace(config, alpha=alpha))
        fraction = (effective_sample_size(result.weights) / n if fraction_at is None
                    else fraction_at(alpha))
        path.append((alpha, fraction))
        probe_fits.append((result.iterations, result.termination))
        return AlphaCalibration(fraction, False, tuple(path), tuple(probe_fits), result)

    low = probe(1e-6)
    excess = low.attained_fraction - target_ess_fraction
    if excess >= 0.0:
        return replace(low, saturated=excess > 0.01)
    high = probe(1e6)
    shortfall = target_ess_fraction - high.attained_fraction
    if shortfall >= 0.0:
        return replace(high, saturated=shortfall > 0.01)

    while True:
        alpha = math.sqrt(low.fit.alpha * high.fit.alpha)
        if alpha in (low.fit.alpha, high.fit.alpha):
            raise CalibrationError(
                f"ESS fraction jumps from {low.attained_fraction:.4f} at alpha={low.fit.alpha!r} "
                f"to {high.attained_fraction:.4f} at alpha={high.fit.alpha!r} with no float between "
                f"them, so no alpha attains the target {target_ess_fraction} within 0.01; "
                "choose a target outside that jump"
            )
        probed = probe(alpha)
        if abs(probed.attained_fraction - target_ess_fraction) <= 0.01:
            return probed
        if probed.attained_fraction < target_ess_fraction:
            low = probed
        else:
            high = probed


def test_calibration_fits_an_end_node_the_replay_settled_without_a_fit(monkeypatch):
    # Monotone fractions, all but the midpoint 1's within 0.01 of the target
    # 0.3.  The low end's 0.296 stops no search, as it lies below the target,
    # yet as a midpoint's lower bound it is within the band, as is 0.303 at
    # the probed 0.0078; so the replay settles the node 1e-3 between them as
    # the stop without a fit, and that node is fitted before it is returned.
    def fraction(alpha):
        return 0.296 if alpha < 9.5e-6 else 0.303 if alpha < 0.318 else 0.3104

    probe = eos.anomaly._probe
    probed = []

    def faked(dataset, config):
        probed.append(config.alpha)
        return fraction(config.alpha), probe(dataset, config)[1]

    monkeypatch.setattr(eos.anomaly, "_probe", faked)
    data, _ = planted_gaussian_2d(seed=11)
    config = EosConfig(alpha=1.0)
    result = calibrate_alpha(data, 0.3, config)
    expected = _bisect_alpha(data, 0.3, config, fraction)
    assert probed[-1] == result.fit.alpha == expected.fit.alpha == 1e-3
    assert result.attained_fraction == expected.attained_fraction
    assert result.saturated is expected.saturated is False
    assert np.array_equal(result.fit.weights, expected.fit.weights)


def _synthetic(seed, t=1000):
    spec = SyntheticSpec(
        T=t, D=10, outlier_fraction=0.05, outlier_box_low=1.0, outlier_box_high=3.0, seed=seed
    )
    return generate(spec)[0]


def _jump_data():
    # The data of test_cli.py's detect_setup: the ESS fraction jumps across
    # 0.95 between two neighbouring floats, and a target of 0.5 takes 27
    # bisection probes over a non-monotone path.
    x = np.random.default_rng(0).standard_normal((60, 3))
    x[:4] += 9.0
    return Dataset(x)


_EQUIVALENCE_CASES = [
    *((f"planted-{seed}-{target}", lambda seed=seed: planted_gaussian_2d(seed=seed)[0], target)
      for seed in (7, 11) for target in (0.5, 0.9, 0.95, 1.0)),
    *((f"synthetic-{seed}", lambda seed=seed: _synthetic(seed), 0.95) for seed in (9103, 9287)),
    ("identical-points", lambda: Dataset(np.tile([0.5, 1.0], (20, 1))), 0.5),
    ("ess-jump", _jump_data, 0.95),
    ("ess-jump-0.5", _jump_data, 0.5),
]


@pytest.mark.parametrize(
    "make_data, target",
    [case[1:] for case in _EQUIVALENCE_CASES],
    ids=[case[0] for case in _EQUIVALENCE_CASES],
)
def test_calibration_returns_what_plain_bisection_returns(make_data, target):
    data = make_data()
    config = EosConfig(alpha=1.0)
    try:
        expected = _bisect_alpha(data, target, config)
    except CalibrationError as error:
        with pytest.raises(CalibrationError) as info:
            calibrate_alpha(data, target, config)
        assert str(info.value) == str(error)
        return
    result = calibrate_alpha(data, target, config)
    assert result.fit.alpha in dict(result.path)
    assert result.fit.alpha == expected.fit.alpha
    assert result.attained_fraction == expected.attained_fraction
    assert result.saturated is expected.saturated
    assert np.array_equal(result.fit.weights, expected.fit.weights)


def test_calibration_probes_at_most_half_of_the_bisection():
    probes, bisected = [], []
    for seed in range(9000, 9020):
        data = _synthetic(seed)
        config = EosConfig(alpha=1.0)
        result = calibrate_alpha(data, 0.95, config)
        expected = _bisect_alpha(data, 0.95, config)
        assert result.fit.alpha == expected.fit.alpha
        probes.append(len(result.path))
        bisected.append(len(expected.path))
    assert all(p <= b for p, b in zip(probes, bisected))
    assert 2 * sum(probes) <= sum(bisected)


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
    converged, _ = detect(data, EosConfig(alpha=1.0), FlagRule.TOP_K, 10)
    assert converged.termination is Termination.CONVERGED
    assert converged.iterations > 1
    capped, _ = detect(data, EosConfig(alpha=1.0, max_iters=1), FlagRule.TOP_K, 10)
    assert capped.termination is Termination.MAX_ITERS_REACHED
    assert capped.iterations == 1
