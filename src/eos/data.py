"""Dataset container shared by every module."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidInputError

__all__ = ["Dataset"]

# Row blocks of about 256 KiB (2**15 float64 cells), so that a block and its
# temporaries stay in cache.
_BLOCK_CELLS = 2**15


def _centered_blocks(x: np.ndarray, mu: np.ndarray):
    """Yield (rows, x[rows] - mu) block by block, all in one reused buffer.

    A block has at least D rows, so the D x D work of a moments pass is
    spread over at most T / D blocks however wide x is.
    """
    t, d = x.shape
    size = min(t, max(d, _BLOCK_CELLS // d))
    buffer = np.empty((size, d))
    for start in range(0, t, size):
        rows = slice(start, min(start + size, t))
        yield rows, np.subtract(x[rows], mu, out=buffer[: rows.stop - start])


@dataclass(frozen=True)
class Dataset:
    """A fixed batch of T instances, one D-dimensional row per instance.

    ``labels``, when present, must be binary (0/1) and aligned with the rows.
    Arrays are copied and frozen so a Dataset can be shared across threads,
    and statistics of the instances can be computed once and cached on it.
    A float64 matrix that is already read-only and owns its data (a fresh
    array its maker froze) is adopted without that copy.
    """

    instances: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        x = self.instances
        if not (
            type(x) is np.ndarray
            and x.dtype == np.float64
            and x.flags.owndata
            and not x.flags.writeable
        ):
            x = np.array(x, dtype=float, copy=True)
        if x.ndim != 2:
            raise InvalidInputError(
                f"instances must be a 2-D matrix, got ndim={x.ndim}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidInputError(f"instances must be at least 1x1, got {x.shape}")
        if not np.all(np.isfinite(x)):
            bad = np.argwhere(~np.isfinite(x))[0]
            raise InvalidInputError(
                f"instances contain a non-finite entry at row {bad[0]}, column {bad[1]}"
            )
        x.setflags(write=False)
        object.__setattr__(self, "instances", x)

        if self.labels is not None:
            y = np.asarray(self.labels)
            if y.ndim != 1 or y.shape[0] != x.shape[0]:
                raise InvalidInputError(
                    f"labels must be a vector of length {x.shape[0]}, got shape {y.shape}"
                )
            values = np.unique(y)
            if not np.all(np.isin(values, (0, 1))):
                raise InvalidInputError(
                    f"labels must be binary 0/1, found values {values.tolist()}"
                )
            y = y.astype(np.int64)
            y.setflags(write=False)
            object.__setattr__(self, "labels", y)

        if self.feature_names is not None:
            names = tuple(str(n) for n in self.feature_names)
            if len(names) != x.shape[1]:
                raise InvalidInputError(
                    f"feature_names has {len(names)} entries for {x.shape[1]} columns"
                )
            object.__setattr__(self, "feature_names", names)

    @property
    def n_instances(self) -> int:
        return self.instances.shape[0]

    @property
    def n_features(self) -> int:
        return self.instances.shape[1]

    @cached_property
    def mean_variance(self) -> float:
        """Mean per-coordinate variance of the instances, computed on first use.

        It is ``instances.var(axis=0).mean()`` summed one row block at a
        time, so no T x D temporary is made; below one block it is that
        expression bit for bit.
        """
        x = self.instances
        squares = np.zeros(x.shape[1])
        for _, centered in _centered_blocks(x, x.mean(axis=0)):
            centered *= centered
            squares += centered.sum(axis=0)
        return float((squares / x.shape[0]).mean())

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row-select a new Dataset (labels follow when present)."""
        idx = np.asarray(indices, dtype=np.intp)
        labels = self.labels[idx] if self.labels is not None else None
        x = self.instances[idx]
        x.setflags(write=False)
        return Dataset(x, labels, self.feature_names)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        """Return a Dataset carrying the given label vector; the frozen
        instance matrix is shared, not copied."""
        return Dataset(self.instances, labels, self.feature_names)
