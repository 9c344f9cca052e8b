"""Dataset container shared by every module."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidInputError

__all__ = ["Dataset"]

# Row blocks of about 256 KiB (2**15 float64 cells), so that a block and its
# temporaries stay in cache.
_BLOCK_CELLS = 2**15
_FLOAT_MAX = float(np.finfo(float).max)


def _check_peak(name: str, peak: float, d: int) -> None:
    """Refuse a largest |entry| ``peak`` past sqrt(float max / (8 d)): within it,
    d squares of up to (2 peak)^2, and their rounded sum, stay finite."""
    bound = math.sqrt(_FLOAT_MAX / (8 * d))
    if peak > bound:
        raise InvalidInputError(f"|{name}| reaches {peak!r}, beyond {bound!r}, the largest "
                                f"magnitude whose squared distances stay finite at D = {d}; "
                                "rescale the features")


def _check_dataset(dataset: object) -> None:
    """Refuse a first argument that is not a ``Dataset``, before any argument is read."""
    if not isinstance(dataset, Dataset):
        raise InvalidInputError(f"expected a Dataset as the first argument, got "
                                f"{type(dataset).__name__}; the Dataset comes first, then the params")


def _check_dim(dataset: Dataset, dim: int) -> None:
    """Refuse model parameters of dimension ``dim`` for ``dataset``'s feature count."""
    if dataset.n_features != dim:
        raise InvalidInputError(f"dataset has {dataset.n_features} features, params expect {dim}")


def _scale_exponent(x: np.ndarray) -> int:
    """The least e >= 0 with |x| < 2**e: scaling by 2**-e is exact and brings x into (-1, 1)."""
    return max(math.frexp(max(float(x.max()), -float(x.min())))[1], 0)


def _centered_blocks(x: np.ndarray, mu: np.ndarray):
    """Yield (rows, x[rows] - mu) block by block, all in one reused buffer.

    A block has at least D rows, so the D x D work of a moments pass is
    spread over at most T / D blocks however wide x is.  Each block is one
    flat subtraction of ``mu`` tiled once per pass: broadcasting ``mu`` over
    the rows runs numpy's inner loop once per row on only D elements, which
    costs more than the arithmetic when D is small.  Past D = 181, where D
    rows outgrow 2**15 cells, the rows are broadcast over instead, and no
    tile as large as a block is made.  The differences are the same floats
    either way.
    """
    t, d = x.shape
    size = min(t, max(d, _BLOCK_CELLS // d))
    buffer = np.empty(size * d)
    tiled = np.tile(mu, size) if d * d <= _BLOCK_CELLS else None
    for start in range(0, t, size):
        rows = slice(start, min(start + size, t))
        centered = buffer[:(rows.stop - start) * d].reshape(-1, d)
        if tiled is None:
            np.subtract(x[rows], mu, out=centered)
        else:
            np.subtract(x[rows].reshape(-1), tiled[:centered.size], out=centered.reshape(-1))
        yield rows, centered


@dataclass(frozen=True)
class Dataset:
    """A fixed batch of T instances, one D-dimensional row per instance.

    ``labels``, when present, must be binary (0/1) and aligned with the rows.
    Arrays are copied and frozen so a Dataset can be shared across threads,
    and statistics of the instances can be computed once and cached on it.
    Only a matrix the package has just made itself (a parse, a row subset,
    the matrix a relabeled Dataset shares) is adopted without that copy.

    Every construction, ``subset`` and ``with_labels`` included, refuses
    instances that are not a 2-D matrix of at least 1x1, hold a non-finite
    entry, or reach past sqrt(float max / (8 D)) in magnitude; that message
    states the bound and says to rescale.  Within it every squared distance
    and weighted second moment is finite, and unweighted sums over T, such
    as ``mean_variance``, are taken on instances scaled by a power of two.
    """

    instances: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self._check_and_freeze(np.array(self.instances, dtype=float, copy=True))

    @classmethod
    def _adopt(cls, x: np.ndarray, labels: np.ndarray | None = None,
               feature_names: tuple[str, ...] | None = None) -> "Dataset":
        """A Dataset of ``x`` without a copy: a float64 matrix the package has
        just made and that no caller holds a writable view of.  Checked as a
        public construction is."""
        data = object.__new__(cls)
        object.__setattr__(data, "labels", labels)
        object.__setattr__(data, "feature_names", feature_names)
        data._check_and_freeze(x)
        return data

    def _check_and_freeze(self, x: np.ndarray) -> None:
        """Check the float64 matrix ``x`` and the other fields, then freeze and set them."""
        if x.ndim != 2:
            raise InvalidInputError(
                f"instances must be a 2-D matrix, got ndim={x.ndim}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidInputError(f"instances must be at least 1x1, got {x.shape}")
        high, low = float(x.max()), float(x.min())
        if not (math.isfinite(high) and math.isfinite(low)):  # NaN and inf carry through both
            bad = np.argwhere(~np.isfinite(x))[0]
            raise InvalidInputError(
                f"instances contain a non-finite entry at row {bad[0]}, column {bad[1]}"
            )
        _check_peak("instances", max(high, -low), x.shape[1])
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
        expression bit for bit.  Scaling the centered values by a power of
        two, exact, keeps the sum of T squares finite.
        """
        x = self.instances
        exponent = _scale_exponent(x)
        squares = np.zeros(x.shape[1])
        for _, centered in _centered_blocks(x, x.mean(axis=0)):
            centered *= math.ldexp(1.0, -exponent)
            centered *= centered
            squares += centered.sum(axis=0)
        return math.ldexp(float((squares / x.shape[0]).mean()), 2 * exponent)

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row-select a new Dataset (labels follow when present)."""
        idx, t = np.asarray(indices), self.n_instances
        if idx.size and not (idx.dtype.kind in "iu" and -t <= idx.min() and idx.max() < t):
            raise InvalidInputError(f"indices must be integers in [-{t}, {t}), got "
                                    f"{idx.dtype} values in [{idx.min()}, {idx.max()}]")
        idx = idx.astype(np.intp, copy=False)
        labels = self.labels[idx] if self.labels is not None else None
        return Dataset._adopt(self.instances[idx], labels, self.feature_names)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        """Return a Dataset carrying the given label vector; the frozen
        instance matrix is shared, not copied."""
        return Dataset._adopt(self.instances, labels, self.feature_names)
