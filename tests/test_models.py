from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from eos import (
    Dataset,
    EosConfig,
    GaussianModel,
    GaussianParams,
    InvalidInputError,
    ModelError,
    SquaredEuclideanModel,
    calibrate_alpha,
    fit,
    gaussian_error,
    mahalanobis_squared,
    squared_euclidean_error,
    weighted_gaussian_mle,
)
from eos import models
from eos.models import RIDGE_FACTOR, covariance_floor

from conftest import dense_inverse_gaussian_error, planted_gaussian_2d


def _random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


# ---------------------------------------------------------------------------
# gaussian_error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 5])
def test_error_zero_at_mean_with_identity_cov(d):
    mu = np.linspace(-1.0, 1.0, d)
    data = Dataset(np.tile(mu, (3, 1)))
    params = GaussianParams(mu=mu, sigma=np.eye(d))
    assert gaussian_error(data, params) == pytest.approx(np.zeros(3), abs=1e-14)


def test_error_scalar_case():
    data = Dataset(np.array([[3.0]]))
    params = GaussianParams(mu=np.array([0.0]), sigma=np.array([[1.0]]))
    assert gaussian_error(data, params)[0] == pytest.approx(4.5, abs=1e-14)


def test_error_two_dim_hand_value():
    # (1/2) * (0.5*log(4) + 0.5*(1 + 0.25)) = 0.6590735902799726
    data = Dataset(np.array([[1.0, 1.0]]))
    params = GaussianParams(mu=np.zeros(2), sigma=np.diag([1.0, 4.0]))
    value = gaussian_error(data, params)[0]
    assert value == pytest.approx(0.6590735902799726, abs=1e-12)
    reference = dense_inverse_gaussian_error(data, params.mu, params.sigma)[0]
    assert value == pytest.approx(reference, rel=1e-12)


def test_error_matches_dense_inverse_on_random_spd():
    rng = np.random.default_rng(31)
    for d in (2, 5, 11, 20):
        data = Dataset(rng.normal(size=(40, d)))
        params = GaussianParams(mu=rng.normal(size=d), sigma=_random_spd(rng, d))
        got = gaussian_error(data, params)
        expected = dense_inverse_gaussian_error(data, params.mu, params.sigma)
        assert np.abs(got - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())


def test_error_reports_smallest_eigenvalue_when_not_pd():
    data = Dataset(np.zeros((2, 2)))
    params = GaussianParams(mu=np.zeros(2), sigma=np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(ModelError, match="-5"):
        gaussian_error(data, params)


def test_error_dimension_mismatch():
    data = Dataset(np.zeros((2, 3)))
    params = GaussianParams(mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(InvalidInputError):
        gaussian_error(data, params)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        GaussianParams(mu=np.zeros(2), sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        GaussianParams(mu=np.zeros(2), sigma=np.eye(3))
    with pytest.raises(InvalidInputError):
        GaussianParams(mu=np.zeros(2), sigma=np.eye(2), ridge=-1e-3)


# ---------------------------------------------------------------------------
# weighted_gaussian_mle
# ---------------------------------------------------------------------------

def test_uniform_weights_reduce_to_classical_mle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 4))
    data = Dataset(x)
    params = weighted_gaussian_mle(data, np.full(60, 1.0 / 60))
    assert np.abs(params.mu - x.mean(axis=0)).max() <= 1e-12
    centered = x - x.mean(axis=0)
    classical = centered.T @ centered / 60
    assert np.abs(params.sigma - classical).max() <= 1e-12
    assert params.ridge == 0.0


def test_one_hot_weights_rescued_by_ridge():
    data = Dataset(np.array([[1.0], [4.0], [9.0]]))
    w = np.array([0.0, 1.0, 0.0])
    params = weighted_gaussian_mle(data, w)
    assert params.mu[0] == pytest.approx(4.0, abs=1e-15)
    assert params.ridge > 0.0
    assert params.sigma[0, 0] == pytest.approx(params.ridge, abs=1e-20)


def test_symmetric_weight_pattern_hand_computed():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    weights = np.array([0.4, 0.1, 0.1, 0.4])
    params = weighted_gaussian_mle(Dataset(points), weights)
    assert params.mu == pytest.approx([1.0, 1.0], abs=1e-15)
    # sum of w * (x - mu)(x - mu)^T with deviations (+-1, +-1)
    assert params.sigma == pytest.approx(np.array([[1.0, 0.6], [0.6, 1.0]]), abs=1e-15)


def test_weighted_mle_is_perturbation_optimal():
    rng = np.random.default_rng(44)
    for _ in range(20):
        t = int(rng.integers(20, 60))
        d = int(rng.integers(1, 5))
        data = Dataset(rng.normal(size=(t, d)))
        w = rng.dirichlet(np.ones(t))
        params = weighted_gaussian_mle(data, w)
        base = float(w @ gaussian_error(data, params))
        for _ in range(50):
            d_mu = rng.normal(scale=1e-3, size=d)
            sym = rng.normal(scale=1e-3, size=(d, d))
            sym = 0.5 * (sym + sym.T)
            perturbed = GaussianParams(mu=params.mu + d_mu, sigma=params.sigma + sym)
            value = float(w @ gaussian_error(data, perturbed))
            assert value >= base - 1e-12 * max(1.0, abs(base))


def test_update_never_increases_weighted_error():
    rng = np.random.default_rng(12)
    model = GaussianModel()
    for _ in range(10):
        data = Dataset(rng.normal(size=(50, 3)))
        w = rng.dirichlet(np.ones(50))
        old = GaussianParams(mu=rng.normal(size=3), sigma=_random_spd(rng, 3))
        before = float(w @ gaussian_error(data, old))
        _, errors = model.step(data, w)
        after = float(w @ errors)
        assert after <= before + 1e-10 * abs(before)


def test_gaussian_step_equals_the_public_pair():
    rng = np.random.default_rng(4)
    for t, d in [(300, 4), (40, 1), (25, 6)]:
        data = Dataset(rng.normal(size=(t, d)) @ _random_spd(rng, d))
        for w in (rng.dirichlet(np.ones(t)), np.eye(t)[3]):  # one-hot weights hit the floor
            params, errors = GaussianModel().step(data, w)
            public = weighted_gaussian_mle(data, w)
            assert np.array_equal(params.mu, public.mu)
            assert np.array_equal(params.sigma, public.sigma)
            assert params.ridge == public.ridge
            assert np.array_equal(errors, gaussian_error(data, public))


def test_squared_euclidean_step_equals_the_public_pair():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(200, 3)) * 1e3)
    w = rng.dirichlet(np.ones(200))
    center, errors = SquaredEuclideanModel().step(data, w)
    assert np.array_equal(center, w @ data.instances)
    assert np.array_equal(errors, squared_euclidean_error(data, w @ data.instances))


@pytest.mark.parametrize("evaluate", [gaussian_error, mahalanobis_squared])
def test_evaluation_after_update_equals_a_fresh_dataset(evaluate):
    # Evaluation centers the dataset it is given, the fitted one or a copy.
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(300, 4)) @ _random_spd(rng, 4))
    w = rng.dirichlet(np.ones(300))
    params = weighted_gaussian_mle(data, w)
    reused = evaluate(data, params)
    assert np.array_equal(reused, evaluate(Dataset(data.instances), params))
    assert np.array_equal(reused, evaluate(data, params))


def test_update_params_on_another_dataset_match_the_oracle():
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(200, 3)))
    other = Dataset(rng.normal(loc=2.0, size=(200, 3)))
    params = weighted_gaussian_mle(data, rng.dirichlet(np.ones(200)))
    got = gaussian_error(other, params)
    expected = dense_inverse_gaussian_error(other, params.mu, params.sigma)
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
    # Evaluating elsewhere first leaves evaluation on the fitted data as it was.
    assert np.array_equal(gaussian_error(data, params), gaussian_error(Dataset(data.instances), params))


def test_fit_result_theta_holds_no_instance_sized_array():
    rng = np.random.default_rng(7)
    data = Dataset(rng.normal(size=(100, 3)))
    result = fit(data, GaussianModel(), EosConfig(alpha=1.0))
    held = list(vars(result.theta).values())
    arrays = []
    while held:
        value = held.pop()
        if isinstance(value, tuple):
            held.extend(value)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    assert len(arrays) >= 3  # mu, sigma and the spectrum
    assert all(a.shape[:1] != (data.n_instances,) for a in arrays)


def test_floor_variance_computed_once_per_dataset(monkeypatch):
    data, _ = planted_gaussian_2d(seed=11)
    computed = []
    mean_variance = Dataset.mean_variance.func

    def counting(dataset):
        computed.append(dataset)
        return mean_variance(dataset)

    monkeypatch.setattr(Dataset.mean_variance, "func", counting)
    calibration = calibrate_alpha(data, 0.95, EosConfig(alpha=1.0))
    assert len(calibration.path) > 2
    assert len(computed) == 1 and computed[0] is data
    assert covariance_floor(data) == RIDGE_FACTOR * float(data.instances.var(axis=0).mean())


# ---------------------------------------------------------------------------
# squared Euclidean
# ---------------------------------------------------------------------------

def test_squared_euclidean_at_center_is_zero():
    data = Dataset(np.array([[2.0, -1.0]]))
    assert squared_euclidean_error(data, np.array([2.0, -1.0]))[0] == 0.0


def test_squared_euclidean_three_four_five():
    data = Dataset(np.array([[3.0, 4.0]]))
    assert squared_euclidean_error(data, np.zeros(2))[0] == pytest.approx(25.0, abs=1e-14)


def test_squared_euclidean_dimension_mismatch():
    data = Dataset(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        squared_euclidean_error(data, np.zeros(2))


# ---------------------------------------------------------------------------
# row-blocked passes
# ---------------------------------------------------------------------------

def _block_rows(d):
    return max(d, models._BLOCK_CELLS // d)


@pytest.mark.parametrize("d", [1, 10, 200])
@pytest.mark.parametrize("extra", ["rows-1", "rows", "rows+1", "3*rows+7"])
def test_blocked_step_equals_the_public_pair_and_the_oracle(d, extra):
    rows = _block_rows(d)
    t = {"rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "3*rows+7": 3 * rows + 7}[extra]
    rng = np.random.default_rng(d + t)
    data = Dataset(rng.normal(size=(t, d)) @ _random_spd(rng, d) + 3.0)
    w = rng.dirichlet(np.ones(t))
    params, errors = GaussianModel().step(data, w)
    public = weighted_gaussian_mle(data, w)
    assert np.array_equal(params.mu, public.mu)
    assert np.array_equal(params.sigma, public.sigma)
    assert np.array_equal(errors, gaussian_error(data, public))
    # The explicit-inverse oracle loses digits with the condition number:
    # at D = 200 the first three T are below D, so Sigma sits on its floor.
    rtol = 1e-12 + 1e-15 * np.linalg.cond(params.sigma)
    expected = dense_inverse_gaussian_error(data, params.mu, params.sigma)
    assert np.abs(errors - expected).max() <= rtol * np.abs(expected).max()
    diff = data.instances - params.mu
    maha = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(params.sigma), diff)
    assert np.abs(mahalanobis_squared(data, params) - maha).max() <= rtol * maha.max()


@pytest.mark.parametrize("d", [1, 10, 200])
def test_single_block_step_is_the_one_shot_formula(d):
    t = _block_rows(d)
    rng = np.random.default_rng(d)
    x = rng.normal(size=(t, d)) @ _random_spd(rng, d)
    data = Dataset(x)
    one_hot = np.zeros(t)
    one_hot[3] = 1.0
    for w in (rng.dirichlet(np.ones(t)), one_hot):  # one-hot weights hit the floor
        mu = w @ x
        centered = x - mu
        sigma = (centered * w[:, None]).T @ centered
        sigma = 0.5 * (sigma + sigma.T)
        eigenvalues, eigenvectors = np.linalg.eigh(sigma)
        eigenvalues = np.maximum(eigenvalues, covariance_floor(data))
        z = centered @ (eigenvectors / np.sqrt(eigenvalues))
        expected = (0.5 * np.sum(np.log(eigenvalues)) + 0.5 * np.einsum("ij,ij->i", z, z)) / d
        params, errors = GaussianModel().step(data, w)
        assert np.array_equal(params.mu, mu)
        assert np.array_equal(errors, expected)


def test_step_allocates_no_instance_sized_matrix():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(200_000, 10)))
    w = rng.dirichlet(np.ones(data.n_instances))
    model = GaussianModel()
    model.step(data, w)
    tracemalloc.start()
    try:
        model.step(data, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.instances.nbytes / 4
