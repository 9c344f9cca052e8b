from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eos.core
import eos.models
from eos import (
    ClassifierLossModel,
    ContractViolationError,
    Dataset,
    EosConfig,
    GaussianModel,
    InvalidConfigError,
    InvalidInputError,
    ModelError,
    NumericalError,
    SquaredEuclideanModel,
    Termination,
    affinity_blocks,
    effective_sample_size,
    fit,
    gaussian_error,
    objective,
    shannon_entropy,
    w_step,
)
from eos.core import SIMPLEX_ATOL, check_weights

from conftest import grid_min_objective, grid_objective, planted_gaussian_2d, simplex_grid


# ---------------------------------------------------------------------------
# w_step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.0, -3.5, 1e4])
def test_w_step_constant_errors_is_uniform(c):
    w = w_step(np.full(4, c), 1.0)
    assert w == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)


def test_w_step_two_point_example():
    # Independent oracle: dense grid over the 1-simplex at step 1e-4.
    g = np.array([0.0, 1.0])
    grid = simplex_grid(2, 1e-4)
    values = grid_objective(grid, g, 1.0)
    argmin = grid[np.argmin(values)]

    w = w_step(g, 1.0)
    expected = 1.0 / (1.0 + math.exp(-1.0))  # 0.7310585786300049
    assert w[0] == pytest.approx(expected, abs=1e-12)
    assert w[1] == pytest.approx(1.0 - expected, abs=1e-12)
    assert np.abs(w - argmin).max() < 1e-4
    assert objective(g, w, 1.0) <= values.min() + 1e-6


def test_w_step_shift_invariance_example():
    g = np.array([0.3, -2.0, 5.5, 0.0, 1.1])
    base = w_step(g, 0.7)
    for c in (-100.0, -3.2, 41.0, 100.0):
        assert np.abs(w_step(g + c, 0.7) - base).max() <= 1e-12


def test_w_step_large_alpha_dominated_by_entropy():
    w = w_step(np.array([0.0, 5.0, 10.0]), 1e8)
    assert np.abs(w - 1.0 / 3.0).max() < 1e-7


def test_w_step_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        w_step(np.array([0.0, np.nan]), 1.0)
    with pytest.raises(InvalidInputError):
        w_step(np.array([0.0, np.inf]), 1.0)
    with pytest.raises(InvalidConfigError):
        w_step(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(InvalidConfigError):
        w_step(np.array([0.0, 1.0]), -2.0)
    with pytest.raises(InvalidInputError):
        w_step(np.array([]), 1.0)


@settings(deadline=None)
@given(
    st.lists(st.floats(-1e8, 1e8, allow_nan=False), min_size=1, max_size=40),
    st.floats(1e-3, 1e6, allow_nan=False),
)
def test_w_step_simplex_closure_adversarial(g_list, alpha):
    w = w_step(np.asarray(g_list), alpha)
    assert w.shape == (len(g_list),)
    assert np.all(w >= 0.0)
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("alpha", [1.0, 1e298, 1e302])
def test_w_step_simplex_closure_at_scale(alpha):
    g = np.random.default_rng(5).uniform(-1e300, 1e300, size=10**6)
    w = w_step(g, alpha)
    assert np.all(w >= 0.0)
    assert abs(float(w.sum()) - 1.0) <= SIMPLEX_ATOL
    check_weights(w, g.size)


@pytest.mark.parametrize("magnitude", [1.0, 1e100, 1e200, 1e300])
def test_w_step_shift_and_temperature_invariance_at_scale(magnitude):
    rng = np.random.default_rng(8)
    g = rng.uniform(-1.0, 1.0, size=10**6) * magnitude
    spread = float(g.max() - g.min())
    for u in (1e-3, 1.0, 1e3):
        alpha = spread * u
        base = w_step(g, alpha)
        for c in (-0.5 * spread, -0.1 * spread, 0.3 * spread, 0.5 * spread):
            assert np.abs(w_step(g + c, alpha) - base).max() <= 1e-12
        scaled = g / alpha
        if np.all(np.isfinite(scaled)):
            assert np.abs(w_step(scaled, 1.0) - base).max() <= 1e-12


def test_w_step_quotient_beyond_the_float_range_is_weight_zero():
    # g / alpha overflows to -inf in the exponent; the one-hot limit is the
    # answer, and no overflow warning escapes.
    assert np.array_equal(w_step(np.array([0.0, 1e300]), 1e-10), [1.0, 0.0])
    data = Dataset(np.array([[0.0], [1.0], [1e150]]))
    result = fit(data, SquaredEuclideanModel(), EosConfig(alpha=1e-10))
    assert result.termination is Termination.CONVERGED
    assert np.array_equal(result.weights, [0.5, 0.5, 0.0])
    [(_, rows, _)] = affinity_blocks(Dataset(np.array([[0.0], [1.0], [3.0]])), sigma_sq=5e-321)
    assert rows.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@settings(deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=30),
    st.floats(-100, 100, allow_nan=False),
    st.floats(0.5, 10.0, allow_nan=False),
)
def test_w_step_shift_invariance_property(g_list, c, alpha):
    g = np.asarray(g_list)
    assert np.abs(w_step(g + c, alpha) - w_step(g, alpha)).max() <= 1e-12


@settings(deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=30),
    st.floats(0.5, 20.0, allow_nan=False),
)
def test_w_step_temperature_scaling(g_list, alpha):
    g = np.asarray(g_list)
    assert np.abs(w_step(g, alpha) - w_step(g / alpha, 1.0)).max() <= 1e-12


def test_w_step_global_minimality_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = int(rng.integers(2, 4))
        g = rng.normal(0.0, 3.0, size=t)
        alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        value = objective(g, w_step(g, alpha), alpha)
        assert value <= grid_min_objective(g, alpha, 1e-3) + 1e-6


# ---------------------------------------------------------------------------
# objective / entropy
# ---------------------------------------------------------------------------

def test_objective_uniform_two_points():
    assert objective(np.zeros(2), np.array([0.5, 0.5]), 1.0) == pytest.approx(
        -math.log(2.0), abs=1e-12
    )


def test_objective_degenerate_weights_zero_entropy():
    # 0 * log(0) = 0, so only the weighted error remains.
    assert objective(np.ones(3), np.array([1.0, 0.0, 0.0]), 2.0) == pytest.approx(1.0, abs=1e-15)


def test_objective_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        objective(np.zeros(3), np.array([0.5, 0.5]), 1.0)


def test_objective_rejects_off_simplex_weights():
    with pytest.raises(InvalidInputError):
        objective(np.zeros(2), np.array([0.7, 0.7]), 1.0)
    with pytest.raises(InvalidInputError):
        objective(np.zeros(2), np.array([-0.1, 1.1]), 1.0)


def test_entropy_bounds():
    assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(math.log(8), abs=1e-12)
    one_hot = np.zeros(5)
    one_hot[2] = 1.0
    assert shannon_entropy(one_hot) == 0.0
    assert effective_sample_size(np.full(10, 0.1)) == pytest.approx(10.0, rel=1e-12)


def test_entropy_monotone_in_alpha_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = rng.normal(size=int(rng.integers(2, 25)))
        a1, a2 = sorted(rng.uniform(0.05, 50.0, size=2))
        if a1 == a2:
            continue
        assert shannon_entropy(w_step(g, a1)) <= shannon_entropy(w_step(g, a2)) + 1e-12


def test_entropy_strictly_increasing_on_alpha_grid():
    g = np.random.default_rng(17).normal(size=50)
    alphas = np.logspace(-2, 2, 10)
    entropies = [shannon_entropy(w_step(g, a)) for a in alphas]
    assert all(e2 > e1 for e1, e2 in zip(entropies, entropies[1:]))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_identical_points_uniform_weights():
    data = Dataset(np.tile([1.5, -2.0], (30, 1)))
    result = fit(data, GaussianModel(), EosConfig(alpha=0.7))
    assert np.abs(result.weights - 1.0 / 30).max() <= 1e-10
    assert result.theta.mu == pytest.approx([1.5, -2.0], abs=1e-12)
    assert result.termination is Termination.CONVERGED


def test_fit_monotone_descent_random_runs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        t = int(rng.integers(30, 300))
        d = int(rng.integers(1, 8))
        data = Dataset(rng.normal(size=(t, d)) * rng.uniform(0.5, 3.0))
        alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        result = fit(data, GaussianModel(), EosConfig(alpha=alpha))
        traj = result.objective_trajectory
        assert np.all(np.diff(traj) <= 1e-10 * np.abs(traj[:-1]) + 1e-15)
        assert result.termination in (Termination.CONVERGED, Termination.MAX_ITERS_REACHED)


def test_fit_planted_outliers_get_smallest_weights():
    data, planted = planted_gaussian_2d(seed=7)
    result = fit(data, GaussianModel(), EosConfig(alpha=1.0))
    bottom = frozenset(int(i) for i in np.argsort(result.weights)[: len(planted)])
    assert bottom == planted


def test_fit_bit_reproducible_with_uniform_init():
    data, _ = planted_gaussian_2d(seed=3)
    config = EosConfig(alpha=0.8)
    first = fit(data, GaussianModel(), config)
    second = fit(data, GaussianModel(), config)
    assert np.array_equal(first.weights, second.weights)
    assert np.array_equal(first.objective_trajectory, second.objective_trajectory)
    assert first.iterations == second.iterations


def test_fit_starts_from_uniform_weights():
    data, _ = planted_gaussian_2d(seed=3)
    seen = []

    class Recording(GaussianModel):
        def step(self, dataset, weights):
            seen.append(weights.copy())
            return super().step(dataset, weights)

    config = EosConfig()
    assert config.alpha == 1.0
    result = fit(data, Recording(), config)
    n = data.n_instances
    assert seen[0].tobytes() == np.full(n, 1.0 / n).tobytes()
    assert result.weights.tobytes() == fit(data, GaussianModel(), config).weights.tobytes()


def test_fit_respects_iteration_cap():
    data, _ = planted_gaussian_2d(seed=3)
    result = fit(data, GaussianModel(), EosConfig(alpha=1.0, max_iters=1))
    assert result.iterations == 1
    assert result.termination is Termination.MAX_ITERS_REACHED


@pytest.mark.parametrize("make_model", [GaussianModel, lambda: ClassifierLossModel(1e-4)],
                         ids=["gaussian", "classifier"])
def test_fit_result_carries_its_alpha(make_model):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))
    data = Dataset(x, (x[:, 0] + rng.normal(size=40) > 0).astype(int))
    config = EosConfig(alpha=np.float32(0.75))
    result = fit(data, make_model(), config)
    assert result.alpha == config.alpha
    assert type(result.alpha) is float


def test_fit_squared_euclidean_model():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(100, 3)))
    result = fit(data, SquaredEuclideanModel(), EosConfig(alpha=5.0))
    traj = result.objective_trajectory
    assert np.all(np.diff(traj) <= 1e-10 * np.abs(traj[:-1]) + 1e-15)
    assert result.theta.shape == (3,)


@pytest.mark.parametrize(
    "model, scale",
    [(SquaredEuclideanModel(), 1.0), (SquaredEuclideanModel(), 1e100),
     (SquaredEuclideanModel(), 1e150), (GaussianModel(), 1.0)],
    ids=["sq-1", "sq-1e100", "sq-1e150", "gauss-1"],
)
def test_fit_monotone_descent_at_scale(model, scale):
    rng = np.random.default_rng(9)
    data = Dataset(rng.normal(size=(10**6, 2)) * scale)
    # The Gaussian error is scale-free; the squared distances grow as scale^2.
    alpha = 1.0 if isinstance(model, GaussianModel) else 2.0 * scale**2
    result = fit(data, model, EosConfig(alpha=alpha, tol=1e-12 * scale**2))
    traj = result.objective_trajectory
    assert result.termination is Termination.CONVERGED
    assert np.all(np.diff(traj) <= 1e-10 * np.abs(traj[:-1]) + 1e-15)


@pytest.mark.parametrize("model", [GaussianModel(), SquaredEuclideanModel()],
                         ids=["gaussian", "squared-euclidean"])
def test_fit_validates_nothing_inside_its_loop(model, monkeypatch):
    calls = []

    def counting(name, check):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return wrapped

    for module, name in [(eos.core, "check_weights"), (eos.core, "_checked_errors"),
                         (eos.models, "check_weights")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    data, _ = planted_gaussian_2d(seed=3)
    result = fit(data, model, EosConfig(alpha=1.0))
    assert result.iterations > 1
    assert calls == []


def _plain_alternation(data, model, config):
    """The unaccelerated fit, as an oracle: alternate ``step`` with the
    w-step from uniform weights until the objective falls by at most
    ``config.tol``.  Returns the final weights, objective and step calls."""
    w = np.full(data.n_instances, 1.0 / data.n_instances)
    previous = math.inf
    for calls in range(1, config.max_iters + 1):
        _, g = model.step(data, w)
        w = w_step(g, config.alpha)
        value = objective(g, w, config.alpha)
        if previous - value <= config.tol:
            break
        previous = value
    return w, value, calls


class _CountingModel:
    """The Gaussian model, counting its step calls."""

    def __init__(self):
        self.calls = 0

    def step(self, dataset, weights):
        self.calls += 1
        return GaussianModel().step(dataset, weights)


@pytest.mark.parametrize("seed, alpha", [(3, 1.0), (5, 1.0), (7, 3.0), (5, 3.0), (11, 10.0)])
def test_accelerated_fit_beats_plain_alternation(seed, alpha):
    """Where the plain alternation needs 12 to 31 steps, the accelerated fit
    needs fewer and ends no higher (up to the rounding of equal points)."""
    data, _ = planted_gaussian_2d(seed=seed)
    config = EosConfig(alpha=alpha)
    _, plain_value, plain_calls = _plain_alternation(data, GaussianModel(), config)
    model = _CountingModel()
    result = fit(data, model, config)
    assert result.termination is Termination.CONVERGED
    assert result.iterations == model.calls < plain_calls
    g = gaussian_error(data, result.theta)
    assert objective(g, result.weights, alpha) <= plain_value + 1e-15 * abs(plain_value)
    assert len(result.objective_trajectory) <= result.iterations


class _FailingProposalModel:
    """The Gaussian model, except that every proposal's step fails: it
    raises, returns a non-finite error, or returns errors one unit worse.

    A cycle of ``fit`` is two plain steps and one step from the
    extrapolated errors, so the proposals are calls 4, 7, 10, ...
    """

    def __init__(self, failure):
        self.calls = 0
        self.failures = 0
        self.failure = failure

    def step(self, dataset, weights):
        self.calls += 1
        theta, g = GaussianModel().step(dataset, weights)
        if self.calls > 1 and self.calls % 3 == 1:
            self.failures += 1
            if self.failure == "raise":
                raise ModelError("synthetic failure of a proposal")
            if self.failure == "worse":
                g += 1.0
            else:
                g[0] = math.nan
        return theta, g


@pytest.mark.parametrize("failure", ["raise", "non-finite", "worse"])
def test_fit_falls_back_to_plain_steps_when_proposals_fail(failure):
    data, _ = planted_gaussian_2d(seed=3)
    config = EosConfig(alpha=1.0)
    plain_w, _, plain_calls = _plain_alternation(data, GaussianModel(), config)
    model = _FailingProposalModel(failure)
    result = fit(data, model, config)
    assert result.termination is Termination.CONVERGED
    assert model.failures >= 1
    assert result.iterations == model.calls
    # Every proposal was dropped, so the kept points are the plain alternation's.
    traj = result.objective_trajectory
    assert np.all(np.diff(traj) <= 1e-10 * np.abs(traj[:-1]) + 1e-15)
    assert len(traj) == result.iterations - model.failures
    assert len(traj) == plain_calls
    np.testing.assert_allclose(result.weights, plain_w, rtol=1e-9)


class _RecordingModel:
    """Another model's steps, keeping every errors array they return."""

    def __init__(self, inner):
        self.inner = inner
        self.returned = []

    def step(self, dataset, weights):
        theta, g = self.inner.step(dataset, weights)
        self.returned.append(g)
        return theta, g


@pytest.mark.parametrize(
    "alpha, inner, max_iters, calls, last_kept",
    [
        (1.0, GaussianModel, 500, 14, 14),
        (3.0, GaussianModel, 500, 10, 10),
        (1.0, lambda: _FailingProposalModel("worse"), 4, 4, 3),
    ],
    ids=["converged-on-a-plain-step", "converged-on-a-kept-proposal",
         "stopped-after-a-dropped-proposal"],
)
def test_fit_returns_the_errors_of_its_theta(alpha, inner, max_iters, calls, last_kept):
    """``errors`` is the last kept step's own array, equal bit for bit to
    evaluating theta again, and the weights are its w-step, also where a
    dropped proposal made the fit draw them a second time."""
    data, _ = planted_gaussian_2d(seed=3)
    model = _RecordingModel(inner())
    result = fit(data, model, EosConfig(alpha=alpha, max_iters=max_iters))
    assert result.iterations == len(model.returned) == calls
    # Calls 4, 7, 10, ... are the proposals; only the dropped one is off the trajectory.
    assert len(result.objective_trajectory) == calls - (last_kept != calls)
    assert (result.termination is Termination.CONVERGED) == (max_iters > calls)
    assert result.errors is model.returned[last_kept - 1]
    assert result.errors.tobytes() == gaussian_error(data, result.theta).tobytes()
    assert result.weights.tobytes() == w_step(result.errors, alpha).tobytes()


@pytest.mark.parametrize(
    "model", [GaussianModel, lambda: _FailingProposalModel("worse")],
    ids=["proposals-kept", "proposals-dropped"],
)
def test_fit_and_ess_hold_few_instance_vectors(model):
    """At T = 200,000 and D = 2 a fit holds at most the step's input weights,
    g0, g1 and the step's errors with its row blocks at once, and the ESS of
    its weights one log vector."""
    data = Dataset(np.random.default_rng(3).normal(size=(200_000, 2)))
    data.mean_variance  # cached on the dataset, not part of the fit
    vector = 8 * data.n_instances
    tracemalloc.start()
    try:
        result = fit(data, model(), EosConfig(alpha=2.0))
        fit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        effective_sample_size(result.weights)
        ess_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert result.iterations >= 7  # two proposals were stepped from
    assert fit_peak <= 4.75 * vector
    assert ess_peak <= 1.25 * vector


def test_an_overflowing_proposal_is_non_finite_and_silent():
    # ||r|| / ||v|| = 1e9, so s = step_max = 1e8 and 2*(s-1)*r overflows.
    g0 = np.array([0.0, 0.0])
    g1 = np.array([1e300, 0.0])
    g2 = np.array([2e300 - 1e291, 0.0])
    proposal, capped = eos.core._extrapolate(g0, g1, g2, step_max=1e8)
    assert capped
    assert not np.all(np.isfinite(proposal))


def test_a_plain_step_failure_is_not_a_dropped_proposal():
    class FailsOnThirdCall(_FailingProposalModel):
        def step(self, dataset, weights):
            if self.calls == 2:
                raise NumericalError("synthetic failure of a plain step")
            return super().step(dataset, weights)

    data, _ = planted_gaussian_2d(seed=3)
    with pytest.raises(ModelError, match="iteration 3"):
        fit(data, FailsOnThirdCall("raise"), EosConfig(alpha=1.0))


class _NotAPairModel:
    def step(self, dataset, weights):
        return np.zeros(dataset.n_instances)


def test_fit_requires_step_to_return_a_pair():
    data = Dataset(np.zeros((5, 1)))
    with pytest.raises(InvalidInputError, match=r"\(theta, errors\) pair"):
        fit(data, _NotAPairModel(), EosConfig(alpha=1.0))


class _SabotagedModel:
    """Returns a wildly worse center on the second update."""

    def __init__(self):
        self.calls = 0

    def step(self, dataset, weights):
        self.calls += 1
        if self.calls >= 2:
            theta = np.full(dataset.n_features, 1e6)
        else:
            theta = weights @ dataset.instances
        diff = dataset.instances - theta
        return theta, np.einsum("ij,ij->i", diff, diff)


def test_fit_aborts_on_objective_increase():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(50, 2)))
    with pytest.raises(ContractViolationError):
        fit(data, _SabotagedModel(), EosConfig(alpha=1.0))


class _FailingModel:
    def step(self, dataset, weights):
        raise ModelError("synthetic failure")


def test_fit_wraps_model_errors_with_iteration():
    data = Dataset(np.zeros((5, 1)))
    with pytest.raises(ModelError, match="iteration 1"):
        fit(data, _FailingModel(), EosConfig(alpha=1.0))


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        EosConfig(alpha=0.0)
    with pytest.raises(InvalidConfigError):
        EosConfig(alpha=-1.0)
    with pytest.raises(InvalidConfigError):
        EosConfig(alpha=math.nan)
    with pytest.raises(InvalidConfigError):
        EosConfig(alpha=1.0, tol=0.0)
    with pytest.raises(InvalidConfigError):
        EosConfig(alpha=1.0, max_iters=0)
