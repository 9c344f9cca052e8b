from __future__ import annotations

import math

import numpy as np
import pytest

from eos import (
    Dataset,
    EosConfig,
    GaussianModel,
    InvalidInputError,
    SquaredEuclideanModel,
    affinity_blocks,
    fit,
    mahalanobis_chi2_baseline,
    parse_csv_dataset,
    predict_proba,
    train_weighted_classifier,
)


def test_writable_array_is_copied():
    x = np.arange(6.0).reshape(3, 2)
    data = Dataset(x)
    x[0, 0] = 99.0
    assert data.instances[0, 0] == 0.0
    assert not data.instances.flags.writeable


def test_frozen_float_matrix_and_views_are_copied():
    x = np.arange(6.0).reshape(3, 2).copy()
    x.setflags(write=False)
    assert Dataset(x).instances is not x
    view = x[:, :1]
    assert Dataset(view).instances is not view
    ints = np.arange(6).reshape(3, 2).copy()
    ints.setflags(write=False)
    assert Dataset(ints).instances.dtype == np.float64


def test_a_view_taken_before_freezing_cannot_change_a_dataset():
    # A frozen matrix that owns its data can still have a writable view.
    x = np.zeros((4, 2))
    view = x[:]
    x.setflags(write=False)
    data = Dataset(x)
    view[0, 0] = 1e308
    assert data.instances[0, 0] == 0.0
    assert data.mean_variance == 0.0


def test_subset_and_with_labels_hand_over_frozen_arrays():
    data = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]))
    part = data.subset(np.array([2, 0]))
    assert part.instances.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert part.labels.tolist() == [0, 0]
    assert not part.instances.flags.writeable
    relabeled = data.with_labels(np.array([1, 1, 0, 0]))
    assert relabeled.instances is data.instances
    assert relabeled.labels.tolist() == [1, 1, 0, 0]


# The largest |x| a Dataset of D = 3 features accepts: sqrt(float max / (8 D)).
_BOUND = math.sqrt(np.finfo(float).max / 24)


def test_every_path_runs_clean_at_the_largest_accepted_peak():
    # Rows 0 and 1 sit at opposite corners, so their squared distance,
    # 3 * (2 * bound)^2, is the largest the bound allows, and the 2,000
    # squares summed per column overflow unless scaled.  Warnings are errors.
    t = 2000
    rng = np.random.default_rng(31)
    x = rng.standard_normal((t, 3)) * (_BOUND / 8)
    x[0], x[1] = _BOUND, -_BOUND
    data = Dataset(x, (x[:, 0] + _BOUND * rng.standard_normal(t) > 0).astype(int))
    for model, alpha in ((GaussianModel(), 1.0), (SquaredEuclideanModel(), _BOUND**2)):
        result = fit(data, model, EosConfig(alpha=alpha))
        assert np.isfinite(result.errors).all() and np.isfinite(result.objective_trajectory).all()
    [(_, rows, sigma_sq)] = affinity_blocks(data.subset(np.arange(50)), perplexity=5.0)
    assert np.isfinite(rows).all() and np.isfinite(sigma_sq).all()
    for robust in (False, True):
        assert 0 < mahalanobis_chi2_baseline(data, robust=robust).sum() < t
    assert math.isfinite(data.mean_variance)
    # The gradient tolerance follows the features' scale.
    params = train_weighted_classifier(data, np.full(t, 1 / t), grad_tol=1e-12 * _BOUND)
    assert np.isfinite(predict_proba(data, params)).all()


def _one_float_past(x):
    x[7, 1] = -math.nextafter(_BOUND, math.inf)


_PAST_MESSAGE = (
    f"|instances| reaches {math.nextafter(_BOUND, math.inf)!r}, beyond {_BOUND!r}, the largest "
    "magnitude whose squared distances stay finite at D = 3; rescale the features"
)


def _thawed(x):
    # A parent written past the bound after its own check: the Datasets made
    # from it are checked again.
    data = Dataset(x, np.zeros(len(x), dtype=int))
    data.instances.setflags(write=True)
    _one_float_past(data.instances)
    return data


def _parsed(x, path):
    _one_float_past(x)
    lines = [",".join(repr(float(v)) for v in row) for row in x]
    path.write_text("a,b,c\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return parse_csv_dataset(path)


@pytest.mark.parametrize(
    "build",
    [lambda x, _: (_one_float_past(x), Dataset(x)),
     _parsed,
     lambda x, _: _thawed(x).subset(np.arange(50)),
     lambda x, _: _thawed(x).with_labels(np.ones(50, dtype=int))],
    ids=["direct", "parse_csv_dataset", "subset", "with_labels"],
)
def test_one_float_past_the_peak_is_refused_where_a_dataset_is_built(tmp_path, build):
    x = np.random.default_rng(32).standard_normal((50, 3))
    with pytest.raises(InvalidInputError) as refused:
        build(x, tmp_path / "past.csv")
    assert str(refused.value) == _PAST_MESSAGE
