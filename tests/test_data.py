from __future__ import annotations

import numpy as np

from eos import Dataset


def test_writable_array_is_copied():
    x = np.arange(6.0).reshape(3, 2)
    data = Dataset(x)
    x[0, 0] = 99.0
    assert data.instances[0, 0] == 0.0
    assert not data.instances.flags.writeable


def test_frozen_owned_float_matrix_is_adopted_and_views_are_copied():
    x = np.arange(6.0).reshape(3, 2).copy()
    x.setflags(write=False)
    assert Dataset(x).instances is x
    view = x[:, :1]
    assert Dataset(view).instances is not view
    ints = np.arange(6).reshape(3, 2).copy()
    ints.setflags(write=False)
    assert Dataset(ints).instances.dtype == np.float64


def test_subset_and_with_labels_hand_over_frozen_arrays():
    data = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]))
    part = data.subset(np.array([2, 0]))
    assert part.instances.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert part.labels.tolist() == [0, 0]
    assert not part.instances.flags.writeable
    relabeled = data.with_labels(np.array([1, 1, 0, 0]))
    assert relabeled.instances is data.instances
    assert relabeled.labels.tolist() == [1, 1, 0, 0]
