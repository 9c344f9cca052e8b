"""Synthetic data, baseline detectors, metrics, and timing probes."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .anomaly import FlagRule, _check_enough_instances, calibrate_alpha, flag_outliers
from .core import EosConfig, _check_int, _check_real, w_step
from .data import Dataset
from .exceptions import InvalidConfigError, InvalidInputError
from .models import GaussianParams, covariance_floor, mahalanobis_squared, weighted_gaussian_mle

__all__ = [
    "SyntheticSpec",
    "MetricReport",
    "generate",
    "mahalanobis_chi2_baseline",
    "precision",
    "timing_probe_wstep",
    "timing_ratios",
    "run_synth_benchmark",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Standard-normal inliers plus outliers uniform in the scalar box [low, high]^D."""

    T: int = 1000
    D: int = 10
    outlier_fraction: float = 0.05
    outlier_box_low: float = 5.0
    outlier_box_high: float = 9.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("T", "D"):
            object.__setattr__(self, name, _check_int(
                getattr(self, name), lambda n: n >= 1, InvalidConfigError,
                f"{name} must be a positive integer"))
        object.__setattr__(self, "seed", _check_int(
            self.seed, lambda n: n >= 0, InvalidConfigError, "seed must be a non-negative integer"))
        object.__setattr__(self, "outlier_fraction", _check_real(
            self.outlier_fraction, lambda f: 0.0 <= f < 0.5, InvalidConfigError,
            "outlier_fraction must lie in [0, 0.5)"))
        for name in ("outlier_box_low", "outlier_box_high"):
            object.__setattr__(self, name, _check_real(
                getattr(self, name), math.isfinite, InvalidConfigError, f"{name} must be finite"))
        if not self.outlier_box_low < self.outlier_box_high:
            raise InvalidConfigError("outlier box must satisfy low < high")
        if self.n_outliers + self.D + 2 > self.T:
            raise InvalidConfigError(
                f"T={self.T} too small for {self.n_outliers} outliers in D={self.D}"
            )

    @property
    def n_outliers(self) -> int:
        return int(math.floor(self.outlier_fraction * self.T + 1e-9))


def generate(spec: SyntheticSpec) -> tuple[Dataset, frozenset[int]]:
    """Draw T - k standard-normal inlier rows, then k box rows, then the shuffle
    that mixes them; return the dataset and the true outlier indices."""
    rng = np.random.default_rng(spec.seed)
    k = spec.n_outliers
    inliers = rng.standard_normal((spec.T - k, spec.D))
    outliers = rng.uniform(spec.outlier_box_low, spec.outlier_box_high, size=(k, spec.D))
    stacked = np.vstack([inliers, outliers])
    perm = rng.permutation(spec.T)
    truth = frozenset(int(i) for i in np.flatnonzero(perm >= spec.T - k))
    return Dataset(stacked[perm]), truth


@dataclass(frozen=True)
class MetricReport:
    """Per-seed metric values with a normal-approximation 95% interval.

    ``None`` entries mark seeds where the metric was undefined; they are
    excluded from the mean and interval.
    """

    metric_name: str
    per_seed_values: tuple[float | None, ...]
    mean: float
    ci_low: float
    ci_high: float


def _ci95(values: np.ndarray) -> tuple[float, float, float]:
    """Mean and mean +- 1.96 * sample std (n-1 denominator) / sqrt(n)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InvalidInputError(f"need at least two values for an interval, got {v.size}")
    mean = float(v.mean())
    half = 1.96 * float(v.std(ddof=1)) / math.sqrt(v.size)
    return mean, mean - half, mean + half


def _metric_report(name: str, values: list[float | None]) -> MetricReport:
    defined = [v for v in values if v is not None]
    if not defined:
        raise InvalidInputError(f"metric {name!r} has no defined values")
    if len(defined) == 1:
        mean = lo = hi = float(defined[0])
    else:
        mean, lo, hi = _ci95(np.asarray(defined))
    return MetricReport(
        metric_name=name,
        per_seed_values=tuple(values),
        mean=mean,
        ci_low=lo,
        ci_high=hi,
    )


def precision(flags: np.ndarray, truth: frozenset[int]) -> float | None:
    """Correctly flagged outliers over all flagged points; None if no flags."""
    f = np.asarray(flags, dtype=bool)
    n_flagged = int(f.sum())
    if n_flagged == 0:
        return None
    flagged = np.flatnonzero(f)
    hits = sum(1 for i in flagged if int(i) in truth)
    return hits / n_flagged


def mahalanobis_chi2_baseline(
    dataset: Dataset, quantile: float = 0.975, robust: bool = False
) -> np.ndarray:
    """Flag instances whose squared Mahalanobis distance exceeds a chi2 quantile.

    robust=False uses the classical MLE mean/covariance (subject to masking
    under heavy contamination); robust=True uses the coordinatewise median
    and a MAD-rescaled diagonal covariance, each variance raised to at least
    ``covariance_floor(dataset)``.
    """
    quantile = _check_real(quantile, lambda q: 0.0 < q < 1.0, InvalidConfigError,
                           "quantile must lie in (0, 1)")
    _check_enough_instances(dataset)
    n, d = dataset.n_instances, dataset.n_features
    x = dataset.instances
    if robust:
        center = np.median(x, axis=0)
        mad = np.median(np.abs(x - center), axis=0) * 1.4826
        var = mad**2
        params = GaussianParams(center, np.diag(np.maximum(var, covariance_floor(dataset))))
    else:
        params = weighted_gaussian_mle(dataset, np.full(n, 1.0 / n))
    maha = mahalanobis_squared(dataset, params)
    from scipy.special import gammaincinv  # imported on use, so that import eos loads no scipy

    # The chi2(d) quantile, computed as scipy.stats.chi2.ppf computes it.
    return maha > 2.0 * gammaincinv(d / 2.0, quantile)


def timing_probe_wstep(
    t_grid: list[int],
    d_grid: list[int],
    repeats: int = 9,
    *,
    fixed_t: int = 100_000,
    seed: int = 0,
    warmup: int = 3,
) -> list[dict]:
    """Median wall time of the weight update ``w_step(errors, 1.0)`` alone, per grid cell.

    T rows time the update on error vectors of length T.  D rows keep the
    statistics size at ``fixed_t`` and draw the errors as chi-square with D
    degrees of freedom, the law of the squared norm of D-dimensional standard
    normal data, so the dimension can only affect work done outside the
    timed region.  The cells of one axis are timed round-robin, one
    call per cell per round, so a burst of load on the host slows every
    cell of the axis alike instead of one cell's window.  Runs on a single
    thread of execution.
    """
    def positive(n: int, name: str) -> int:
        return _check_int(n, lambda k: k >= 1, InvalidInputError,
                          f"{name} must be a positive integer")

    t_grid = [positive(t, "each t_grid entry") for t in t_grid]
    d_grid = [positive(d, "each d_grid entry") for d in d_grid]
    fixed_t = positive(fixed_t, "fixed_t")
    if not t_grid or not d_grid:
        raise InvalidInputError("t_grid and d_grid must be non-empty")
    repeats = _check_int(repeats, lambda r: r >= 5, InvalidInputError, "repeats must be at least 5")
    seed = _check_int(seed, lambda s: s >= 0, InvalidInputError,
                      "seed must be a non-negative integer")
    warmup = _check_int(warmup, lambda w: w >= 0, InvalidInputError,
                        "warmup must be a non-negative integer")
    rng = np.random.default_rng(seed)

    def time_axis(cells: list[np.ndarray]) -> list[tuple[float, float]]:
        samples = np.empty((repeats, len(cells)))
        for i in range(-warmup, repeats):
            for j, errors in enumerate(cells):
                start = time.perf_counter()
                w_step(errors, 1.0)
                elapsed = time.perf_counter() - start
                if i >= 0:
                    samples[i, j] = elapsed
        q75, q50, q25 = np.percentile(samples, [75, 50, 25], axis=0)
        return [(float(m), float(hi - lo)) for m, hi, lo in zip(q50, q75, q25)]

    t_cells = [rng.standard_normal(t) for t in t_grid]
    rows: list[dict] = []
    for t, (median, iqr) in zip(t_grid, time_axis(t_cells)):
        rows.append({"axis": "T", "T": t, "D": None,
                     "median_s": median, "iqr_s": iqr, "repeats": repeats})
    d_cells = [rng.chisquare(d, fixed_t) for d in d_grid]
    for d, (median, iqr) in zip(d_grid, time_axis(d_cells)):
        rows.append({"axis": "D", "T": fixed_t, "D": d,
                     "median_s": median, "iqr_s": iqr, "repeats": repeats})
    return rows


def timing_ratios(rows: list[dict]) -> dict:
    """Consecutive T-scaling ratios and the D-axis max/min spread."""
    t_rows = sorted((r for r in rows if r["axis"] == "T"), key=lambda r: r["T"])
    d_rows = [r for r in rows if r["axis"] == "D"]
    t_ratios = [
        t_rows[i + 1]["median_s"] / t_rows[i]["median_s"] for i in range(len(t_rows) - 1)
    ]
    d_medians = [r["median_s"] for r in d_rows]
    d_spread = max(d_medians) / min(d_medians) if d_medians else math.nan
    return {"t_ratios": t_ratios, "d_max_over_min": d_spread}


def _synth_seed_row(
    spec: SyntheticSpec, config: EosConfig, ess_target: float, quantile: float
) -> dict:
    data, truth = generate(spec)
    calibration = calibrate_alpha(data, ess_target, config)
    flags = flag_outliers(calibration.fit, FlagRule.TOP_K, len(truth))
    return {
        "seed": spec.seed,
        "alpha": calibration.fit.alpha,
        "ess_fraction": calibration.attained_fraction,
        "precision_eos_topk": precision(flags, truth),
        "precision_chi2_mle": precision(
            mahalanobis_chi2_baseline(data, quantile, robust=False), truth
        ),
        "precision_chi2_robust": precision(
            mahalanobis_chi2_baseline(data, quantile, robust=True), truth
        ),
    }


def run_synth_benchmark(
    spec: SyntheticSpec,
    n_seeds: int,
    *,
    ess_target: float = 0.95,
    quantile: float = 0.975,
    config: EosConfig | None = None,
) -> dict:
    """Planted-outlier precision of the entropic detector vs chi2 baselines.

    Seeds run independently, and rows are returned in seed order.
    """
    n_seeds = _check_int(n_seeds, lambda n: n >= 1, InvalidInputError, "n_seeds must be positive")
    cfg = config if config is not None else EosConfig()
    rows = [_synth_seed_row(replace(spec, seed=spec.seed + i), cfg, ess_target, quantile)
            for i in range(n_seeds)]
    methods = ("precision_eos_topk", "precision_chi2_mle", "precision_chi2_robust")
    reports = {m: _metric_report(m, [r[m] for r in rows]) for m in methods}
    return {"rows": rows, "reports": reports}
