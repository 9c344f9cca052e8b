from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import eos.affinity
from eos import (
    CalibrationError,
    Dataset,
    InvalidConfigError,
    InvalidInputError,
    affinity_blocks,
    calibrate_row_alpha,
    gaussian_affinity_row,
    shannon_entropy,
    squared_euclidean_error,
    w_step,
)

from conftest import grid_objective, simplex_grid


def _anchor_sq_dists(data: Dataset, i: int) -> np.ndarray:
    return np.delete(squared_euclidean_error(data, data.instances[i]), i)


def test_two_points_single_neighbor():
    data = Dataset(np.array([[0.0], [3.0]]))
    row = gaussian_affinity_row(data, 0, 2.5)
    assert isinstance(row, np.ndarray)
    assert row == pytest.approx([1.0])


def test_collinear_midpoint_symmetry():
    data = Dataset(np.array([[0.0], [1.0], [2.0]]))
    for sigma_sq in (0.1, 1.0, 42.0):
        row = gaussian_affinity_row(data, 1, sigma_sq)
        assert row == pytest.approx([0.5, 0.5], abs=1e-15)


def test_matches_w_step_with_doubled_bandwidth():
    # sigma^2 = alpha / 2, checked entrywise across anchors.
    rng = np.random.default_rng(9)
    data = Dataset(rng.normal(size=(10, 4)))
    for i in range(10):
        row = gaussian_affinity_row(data, i, 0.7)
        expected = w_step(_anchor_sq_dists(data, i), 1.4)
        assert np.abs(row - expected).max() <= 1e-12


def test_generalized_row_manhattan_matches_grid_oracle():
    points = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0], [2.5, -1.0], [0.3, 0.9]])
    anchor = 0
    errors = np.array(
        [np.abs(points[j] - points[anchor]).sum() for j in range(5) if j != anchor]
    )
    row = w_step(errors, 1.0)

    grid = simplex_grid(4, 0.01)
    values = grid_objective(grid, errors, 1.0)
    argmin = grid[np.argmin(values)]
    assert np.abs(row - argmin).max() <= 0.02
    own = float(row @ errors) + float(np.sum(row[row > 0] * np.log(row[row > 0])))
    assert own <= values.min() + 1e-9


def test_rigid_motion_leaves_rows_unchanged():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(12, 3))
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.normal(size=3)
    moved = x @ rotation.T + shift
    for i in (0, 5, 11):
        before = gaussian_affinity_row(Dataset(x), i, 0.9)
        after = gaussian_affinity_row(Dataset(moved), i, 0.9)
        assert np.abs(before - after).max() <= 1e-10


def test_row_validation():
    data = Dataset(np.zeros((1, 2)))
    with pytest.raises(InvalidInputError):
        gaussian_affinity_row(data, 0, 1.0)
    data = Dataset(np.zeros((3, 2)))
    with pytest.raises(InvalidConfigError):
        gaussian_affinity_row(data, 0, 0.0)
    for anchor in (5, 3, -1):
        with pytest.raises(InvalidInputError):
            gaussian_affinity_row(data, anchor, 1.0)


# ---------------------------------------------------------------------------
# perplexity calibration
# ---------------------------------------------------------------------------

def test_calibration_upper_target_near_uniform():
    rng = np.random.default_rng(2)
    errors = rng.uniform(0.5, 3.0, size=9)
    alpha = calibrate_row_alpha(errors, 9.0)
    perp = math.exp(shannon_entropy(w_step(errors, alpha)))
    assert perp >= 9.0 * (1 - 1e-4)


def test_calibration_lower_target_concentrates():
    errors = np.array([0.1, 1.0, 2.0, 5.0])
    alpha = calibrate_row_alpha(errors, 1.0)
    w = w_step(errors, alpha)
    assert np.argmax(w) == 0
    assert math.exp(shannon_entropy(w)) <= 1.0 + 1e-4


def test_calibration_mid_target_self_consistency():
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(10, 3)))
    errors = _anchor_sq_dists(data, 4)
    alpha = calibrate_row_alpha(errors, 5.0)
    attained = math.exp(shannon_entropy(w_step(errors, alpha)))
    assert 4.9995 <= attained <= 5.0005


def test_calibration_duplicate_points_unattainable():
    # Two zero-distance neighbors force minimum perplexity 2.
    errors = np.array([0.0, 0.0, 4.0, 9.0])
    with pytest.raises(CalibrationError) as error:
        calibrate_row_alpha(errors, 1.0)
    assert str(error.value) == (
        "target perplexity 1.0 below achievable range [2, 4] (duplicate smallest errors)"
    )


def test_calibration_identical_errors():
    errors = np.full(5, 2.0)
    assert calibrate_row_alpha(errors, 5.0) > 0
    with pytest.raises(CalibrationError) as error:
        calibrate_row_alpha(errors, 2.0)
    assert str(error.value) == (
        "all neighbor errors are identical; only perplexity 5 is achievable (target 2.0)"
    )


@pytest.mark.parametrize(
    "points, target",
    [([0.0, 0.1, 1.0, 2.0, 5.0], 1.0), ([0.0, 0.1, 1.0, 2.0, 5.0], 4.0),
     ([0.0, 0.0, 0.0, 4.0, 9.0], 2.0)],
    ids=["unique-nearest-at-1", "all-neighbors-at-n", "duplicate-nearest-at-multiplicity"],
)
def test_end_of_range_target_is_met_inside_the_bracket(points, target):
    # Anchor 0 sits at the origin, so its errors are the squares of the others.
    data = Dataset(np.sqrt(points)[:, np.newaxis])
    errors = _row_errors(data, 0)
    alpha = calibrate_row_alpha(errors, target)
    spread = errors.max() - errors.min()
    assert spread * 1e-12 < alpha < spread * 1e12
    assert math.exp(shannon_entropy(w_step(errors, alpha))) == pytest.approx(target, rel=1e-4)
    [(_, rows, sigma_sq)] = affinity_blocks(data, perplexity=target, anchors=range(1))
    assert rows[0].tobytes() == w_step(errors, alpha).tobytes()
    assert sigma_sq[0] == alpha / 2.0


def test_search_out_of_steps_words_the_failure_after_it_ends(monkeypatch):
    monkeypatch.setattr(eos.affinity, "_MAX_STEPS", 1)
    with pytest.raises(CalibrationError) as error:
        calibrate_row_alpha(np.array([0.1, 1.0, 2.0, 5.0]), 2.5)
    message = str(error.value)
    assert message.startswith("perplexity calibration did not converge in 1 steps (achieved ")
    assert message.endswith(", target 2.5)")
    # A target out of range keeps its reason however few the steps.
    with pytest.raises(CalibrationError) as error:
        calibrate_row_alpha(np.array([0.0, 0.0, 4.0, 9.0]), 1.0)
    assert str(error.value) == (
        "target perplexity 1.0 below achievable range [2, 4] (duplicate smallest errors)"
    )


def test_calibration_target_out_of_range():
    errors = np.array([1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        calibrate_row_alpha(errors, 0.5)
    with pytest.raises(InvalidInputError):
        calibrate_row_alpha(errors, 4.0)


# ---------------------------------------------------------------------------
# affinity_blocks
# ---------------------------------------------------------------------------

def test_affinity_blocks_modes():
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(8, 2)))
    [(anchors, by_sigma, sigma_sq)] = affinity_blocks(data, sigma_sq=0.5)
    assert anchors == range(8) and by_sigma.shape == (8, 7) and sigma_sq.tolist() == [0.5] * 8
    # The Gaussian row is the w-step on the squared distances at alpha = 2*sigma_sq.
    assert np.array_equal(by_sigma[0], w_step(_row_errors(data, 0), 1.0))
    [(_, by_perp, perp_sigma_sq)] = affinity_blocks(data, perplexity=4.0)
    for row in by_perp:
        assert math.exp(shannon_entropy(row)) == pytest.approx(4.0, rel=2e-4)
    for perplexity in (4, np.int64(4), np.float32(4.0)):  # any real type
        [(_, _, same)] = affinity_blocks(data, perplexity=perplexity)
        assert same.tolist() == perp_sigma_sq.tolist()
    # The generator checks its arguments when called, before any block is drawn.
    for both_or_neither in ({"sigma_sq": 1.0, "perplexity": 4.0}, {}):
        with pytest.raises(InvalidConfigError,
                           match="^exactly one of sigma_sq or perplexity must be given$"):
            affinity_blocks(data, **both_or_neither)
    with pytest.raises(InvalidInputError, match="target perplexity"):
        affinity_blocks(data, perplexity=8.0)



@pytest.mark.parametrize(
    "bandwidth", [{"perplexity": 7.0}, {"sigma_sq": 0.6}, {"sigma_sq": 0.65}],
    ids=["perplexity", "sigma_sq", "sigma_sq-0.65"],
)
def test_affinity_blocks_over_anchor_ranges_equal_the_whole_bit_for_bit(monkeypatch, bandwidth):
    data = Dataset(np.random.default_rng(23).normal(size=(40, 3)))
    monkeypatch.setattr(eos.affinity, "_BLOCK_FLOATS", 6 * 39)  # six anchors a block
    whole = list(affinity_blocks(data, **bandwidth))
    values = np.vstack([v for _, v, _ in whole])
    sigma_sq = np.concatenate([s for _, _, s in whole])
    # Starts off and on a block boundary of the whole, one anchor, the last anchor.
    for anchors in (range(9, 40), range(12, 31), range(9, 10), range(39, 40), range(0, 40)):
        blocks = list(affinity_blocks(data, **bandwidth, anchors=anchors))
        assert [b for b, _, _ in blocks] == [anchors[k:k + 6] for k in range(0, len(anchors), 6)]
        part = np.vstack([v for _, v, _ in blocks])
        assert part.tobytes() == values[anchors.start:anchors.stop].tobytes()
        part_sigma_sq = np.concatenate([s for _, _, s in blocks])
        assert part_sigma_sq.tobytes() == sigma_sq[anchors.start:anchors.stop].tobytes()


@pytest.mark.parametrize(
    "anchors",
    [range(0, 6), range(-1, 2), range(3, 3), range(4, 2), range(0, 4, 2), range(4, 0, -1),
     [0, 1], (0, 1), 2, np.arange(2)],
    ids=["past-t", "negative", "empty", "reversed", "step-2", "step-minus-1", "list", "tuple",
         "int", "array"],
)
def test_affinity_blocks_rejects_bad_anchors_at_the_call(anchors):
    with pytest.raises(InvalidInputError, match="anchors must be a non-empty range of step 1"):
        affinity_blocks(Dataset(np.eye(5)), sigma_sq=0.5, anchors=anchors)


@pytest.mark.parametrize("i", [1.0, 1.5], ids=["integral-float", "fraction"])
def test_gaussian_affinity_row_rejects_a_non_integer_anchor(i):
    with pytest.raises(InvalidInputError, match=rf"^anchor index must be an integer, got {i!r}$"):
        gaussian_affinity_row(Dataset(np.eye(5)), i, 0.5)


@pytest.mark.parametrize("i", [-1, 5])
def test_gaussian_affinity_row_rejects_an_anchor_outside_the_data(i):
    with pytest.raises(InvalidInputError, match="anchors must be a non-empty range of step 1"):
        gaussian_affinity_row(Dataset(np.eye(5)), i, 0.5)

# ---------------------------------------------------------------------------
# batched calibration
# ---------------------------------------------------------------------------

def _row_errors(data: Dataset, i: int) -> np.ndarray:
    """Anchor i's squared distances, computed as affinity_blocks computes them."""
    diff = data.instances - data.instances[i]
    return np.delete(np.einsum("ij,ij->i", diff, diff), i)


def test_affinity_blocks_equal_single_row_results_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(12):
        t = int(rng.integers(2, 60))
        data = Dataset(rng.normal(size=(t, int(rng.integers(1, 5)))) * 10.0 ** rng.uniform(-3, 3))
        perplexity = float(rng.uniform(1.0, t - 1))
        sigma_sq = float(10.0 ** rng.uniform(-2, 2))
        [(_, by_perplexity, perplexity_sigma_sq)] = affinity_blocks(data, perplexity=perplexity)
        [(_, by_sigma, _)] = affinity_blocks(data, sigma_sq=sigma_sq)
        for i in range(t):
            errors = _row_errors(data, i)
            alpha = calibrate_row_alpha(errors, perplexity)
            assert np.array_equal(by_perplexity[i], w_step(errors, alpha))
            assert perplexity_sigma_sq[i] == alpha / 2.0
            fixed = gaussian_affinity_row(data, i, sigma_sq)
            assert np.array_equal(by_sigma[i], fixed)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_entropy_pass_matches_w_step_and_shannon_entropy(scale):
    # Small alphas underflow most weights to 0; the closed-form entropy must
    # still match the w log w sum, and the weights the w-step, bit for bit.
    # Rows longer than 8192 must also come out the same alone as in a batch.
    rng = np.random.default_rng(41)
    for n in (1, 7, 130, 999, 9000):
        errors = rng.uniform(0.0, 50.0, size=(20, n)) * scale
        alphas = 10.0 ** rng.uniform(-2, 2, 20) * scale
        shifted = errors - errors.min(axis=1, keepdims=True)
        w, entropy, slope = eos.affinity._entropy_pass(shifted.copy(), alphas[:, None])
        for k in range(20):
            assert np.array_equal(w[k], w_step(errors[k], alphas[k]))
            expected = shannon_entropy(w[k])
            assert abs(entropy[k] - expected) <= 1e-10 * max(1.0, expected)
            alone = eos.affinity._entropy_pass(shifted[k:k + 1], alphas[k:k + 1, None])
            assert (alone[1][0], alone[2][0]) == (entropy[k], slope[k])
        assert np.all(slope >= 0.0)


def test_perplexity_search_takes_few_steps_per_row(monkeypatch):
    # Bisection needed 22.5 row evaluations per row here.
    data = Dataset(np.random.default_rng(5).standard_normal((1000, 10)))
    real = eos.affinity._entropy_pass
    evaluated = []

    def counting(rows, alpha):
        evaluated.append(rows.shape[0])
        return real(rows, alpha)

    monkeypatch.setattr(eos.affinity, "_entropy_pass", counting)
    rows = np.vstack([values for _, values, _ in affinity_blocks(data, perplexity=30.0)])
    assert sum(evaluated) <= 5 * 1000
    for row in rows:
        assert math.exp(shannon_entropy(row)) == pytest.approx(30.0, rel=1e-4)


def test_affinity_blocks_memory_is_bounded_by_the_block_not_by_t_squared():
    def peak(t):
        blocks = affinity_blocks(Dataset(np.random.default_rng(t).standard_normal((t, 10))),
                                 perplexity=30.0)
        tracemalloc.start()
        try:
            for anchors, values, sigma_sq in blocks:
                assert values.shape == (len(anchors), t - 1) and sigma_sq.shape == (len(anchors),)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500), peak(2000)
    assert large <= 1.5 * small
    assert large <= 8 * 2000 * 1999 / 16  # a sixteenth of the T x (T-1) matrix


def test_affinity_blocks_calibration_error_names_the_anchor():
    # Anchors 4, 5 and 6 coincide, so each has two neighbors at distance 0
    # and cannot reach perplexity 1.5; the error names the first of them.
    x = np.random.default_rng(17).normal(size=(10, 2))
    x[5] = x[6] = x[4]
    data = Dataset(x)
    with pytest.raises(CalibrationError) as single:
        calibrate_row_alpha(_row_errors(data, 4), 1.5)
    with pytest.raises(CalibrationError) as batched:
        list(affinity_blocks(data, perplexity=1.5))
    assert str(batched.value) == f"anchor 4: {single.value}"


@pytest.mark.parametrize(
    "bandwidth",
    [{"sigma_sq": 0.0}, {"sigma_sq": math.nan}, {"sigma_sq": math.inf}, {"sigma_sq": -1.0}],
)
def test_affinity_blocks_rejects_bad_bandwidth(bandwidth):
    with pytest.raises(InvalidConfigError):
        affinity_blocks(Dataset(np.eye(3)), **bandwidth)


_SIGMA_SQ_MESSAGE = "sigma_sq must be a real in (0, 8.988465674311579e+307], got "


_PERPLEXITY_MESSAGE = "target perplexity must be a real in [1, 2] for 2 neighbors, got "


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: affinity_blocks(d, sigma_sq=-0.5), _SIGMA_SQ_MESSAGE + "-0.5"),
        (lambda d: affinity_blocks(d, sigma_sq=1e308), _SIGMA_SQ_MESSAGE + "1e+308"),
        (lambda d: affinity_blocks(d, sigma_sq="2"), _SIGMA_SQ_MESSAGE + "'2'"),
        (lambda d: gaussian_affinity_row(d, 0, 1e308), _SIGMA_SQ_MESSAGE + "1e+308"),
        # A perplexity out of range or not a real is bad input, not a bad bandwidth.
        (lambda d: next(affinity_blocks(d, perplexity=3.0)), _PERPLEXITY_MESSAGE + "3.0"),
        (lambda d: next(affinity_blocks(d, perplexity="2")), _PERPLEXITY_MESSAGE + "'2'"),
        (lambda d: calibrate_row_alpha(np.arange(2.0), "2"), _PERPLEXITY_MESSAGE + "'2'"),
        (lambda d: calibrate_row_alpha(np.arange(2.0), None), _PERPLEXITY_MESSAGE + "None"),
    ],
    ids=["rows-sigma-sq-negative", "rows-sigma-sq-huge", "rows-sigma-sq-string",
         "row-sigma-sq-huge", "blocks-perplexity-huge", "blocks-perplexity-string",
         "row-perplexity-string", "row-perplexity-none"],
)
def test_bad_bandwidth_is_named_as_given(call, message):
    error_type = InvalidInputError if message.startswith("target perplexity") else InvalidConfigError
    with pytest.raises(error_type) as error:
        call(Dataset(np.array([[0.0], [1.0], [3.0]])))
    assert type(error.value) is error_type
    assert str(error.value) == message


@pytest.mark.parametrize("spread", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_calibration_at_extreme_magnitudes(spread):
    errors = np.array([0.0, 1.0, 2.0, 3.0, 5.0]) * spread
    alpha = calibrate_row_alpha(errors, 3.0)
    assert math.exp(shannon_entropy(w_step(errors, alpha))) == pytest.approx(3.0, rel=1e-4)
    # Points whose squared distances span the same magnitude.
    data = Dataset(np.array([[0.0], [1.0], [2.0], [3.0], [5.0]]) * math.sqrt(spread))
    [(_, rows, _)] = affinity_blocks(data, perplexity=3.0)
    for row in rows:
        assert math.exp(shannon_entropy(row)) == pytest.approx(3.0, rel=1e-4)


@pytest.mark.parametrize("alpha", [1.0, 1e298, 1e302])
def test_generalized_row_on_simplex_at_scale(alpha):
    # 10^6 neighbors with errors up to 1e300.
    errors = np.random.default_rng(8).uniform(0.0, 1e300, size=10**6)
    row = w_step(errors, alpha)
    assert np.all(row >= 0.0)
    assert abs(float(row.sum()) - 1.0) <= 1e-12
