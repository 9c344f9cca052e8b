"""The workloads: inputs made from the seed, and checks that read CLI outputs.

Inputs are drawn here with numpy, never with ``eos.bench.generate``, so a
change to the program cannot change what it is measured on.  Every check
reads ``report.json`` and the CSVs the command wrote, never library objects,
so the benchmark keeps working through API refactors.  A check returns the
workload's quality metrics and a list of problems; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Outliers drawn from a uniform box close to the inliers (standard normal),
# so that top-k precision sits well below 1 and a loss in quality can show.
BOX = (1.0, 3.0)
OUTLIER_FRACTION = 0.05
ESS_TARGET = 0.95
ESS_TOL = 0.01  # calibrate_alpha's default tolerance
PERPLEXITY = 30.0
PERPLEXITY_CHECK = 1e-2  # largest relative perplexity error accepted as correct
SIMPLEX_TOL = 1e-9


@dataclass
class Inputs:
    config: dict
    params: dict
    truth: frozenset = frozenset()
    hashes: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_features(path: Path, x: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(f"x{j}" for j in range(x.shape[1])) + "\n")
        np.savetxt(handle, x, delimiter=",", fmt="%.17g")


def planted(rng: np.random.Generator, t: int, d: int) -> tuple[np.ndarray, frozenset]:
    """Standard-normal inliers with OUTLIER_FRACTION of rows replaced by box outliers."""
    k = int(OUTLIER_FRACTION * t)
    x = rng.standard_normal((t, d))
    idx = rng.choice(t, size=k, replace=False)
    x[idx] = rng.uniform(*BOX, size=(k, d))
    return x, frozenset(int(i) for i in idx)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def prepare_detect(seed: int, work: Path) -> Inputs:
    t, d = 100_000, 10
    x, truth = planted(_rng(seed, 1), t, d)
    path = work / "detect.csv"
    _write_features(path, x)
    config = {
        "command": "detect",
        "input_path": str(path),
        "seed": seed,
        "detect": {
            "rule": "top_k",
            "rule_param": len(truth),
            "calibrate_ess_fraction": ESS_TARGET,
        },
    }
    return Inputs(config, {"T": t, "D": d, "k": len(truth)}, truth, {path.name: sha256_file(path)})


def prepare_synth(seed: int, work: Path) -> Inputs:
    n_seeds = 10
    config = {
        "command": "synth-bench",
        "seed": seed,
        "synth_bench": {
            "t": 1000,
            "d": 10,
            "outlier_fraction": OUTLIER_FRACTION,
            "box_low": BOX[0],
            "box_high": BOX[1],
            "n_seeds": n_seeds,
            "ess_target": ESS_TARGET,
        },
    }
    return Inputs(config, {"n_seeds": n_seeds})


def prepare_mislabel(seed: int, work: Path) -> Inputs:
    flips, n_splits = (0.1, 0.3), 50
    config = {
        "command": "mislabel-bench",
        "seed": seed,
        "mislabel_bench": {
            "flip_proportions": list(flips),
            "n_splits": n_splits,
            "task_size": 400,
            "task_dim": 5,
        },
    }
    return Inputs(config, {"flips": flips, "n_splits": n_splits})


def prepare_affinity(seed: int, work: Path) -> Inputs:
    t, d = 1000, 10
    path = work / "affinity.csv"
    _write_features(path, _rng(seed, 4).standard_normal((t, d)))
    config = {
        "command": "affinity",
        "input_path": str(path),
        "seed": seed,
        "affinity": {"perplexity": PERPLEXITY},
    }
    return Inputs(config, {"T": t}, hashes={path.name: sha256_file(path)})


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

class _Problems(list):
    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return bool(ok)


def _results(out: Path) -> dict:
    with open(out / "report.json", encoding="utf-8") as handle:
        return json.load(handle)["results"]


def _csv_rows(path: Path, header: list[str], problems: _Problems) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    problems.expect(rows[:1] == [header], f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def _numeric_csv(path: Path, header: list[str], problems: _Problems) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n").split(",")
    problems.expect(first == header, f"{path.name}: header {first} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_detect(out: Path, inputs: Inputs) -> tuple[dict, list[str]]:
    p = _Problems()
    t, d, k = inputs.params["T"], inputs.params["D"], inputs.params["k"]
    r = _results(out)
    p.expect(r["T"] == t and r["D"] == d, f"report T, D = {r['T']}, {r['D']}, expected {t}, {d}")
    p.expect(r["rule"] == "top_k" and r["n_flagged"] == k,
             f"report rule {r['rule']!r} flagged {r['n_flagged']}, expected top_k {k}")
    attained = (r.get("calibration") or {}).get("attained_fraction", math.nan)
    p.expect(abs(attained - ESS_TARGET) <= ESS_TOL,
             f"calibrated ESS fraction {attained}, target {ESS_TARGET} +- {ESS_TOL}")
    table = _numeric_csv(out / "weights.csv", ["index", "weight", "flag"], p)
    if not p.expect(table.shape == (t, 3), f"weights.csv shape {table.shape}, expected ({t}, 3)"):
        return {}, p
    index, weight, flag = table.T
    p.expect(np.array_equal(index, np.arange(t)), "weights.csv indices are not 0..T-1")
    p.expect(bool(np.all(np.isfinite(weight)) and np.all(weight >= 0)), "negative or non-finite weight")
    p.expect(abs(float(weight.sum()) - 1.0) <= SIMPLEX_TOL, f"weights sum to {weight.sum()!r}")
    p.expect(bool(np.all((flag == 0) | (flag == 1))), "flags are not 0/1")
    flagged = np.flatnonzero(flag == 1)
    p.expect(flagged.size == k, f"{flagged.size} flags in weights.csv, expected {k}")
    p.expect(flagged.tolist() == list(r["flagged_indices"]), "weights.csv flags differ from report")
    if flagged.size == 0:
        return {}, p
    hits = sum(1 for i in flagged.tolist() if i in inputs.truth)
    return {"precision_topk": hits / flagged.size}, p


def check_synth(out: Path, inputs: Inputs) -> tuple[dict, list[str]]:
    p = _Problems()
    n = inputs.params["n_seeds"]
    seed = inputs.config["seed"]
    rows = _csv_rows(out / "metrics.csv", ["experiment", "seed", "metric", "value"], p)
    metrics = ("precision_eos_topk", "precision_chi2_mle", "precision_chi2_robust", "alpha")
    expected = [["synth-bench", str(seed + i), m] for i in range(n) for m in metrics]
    p.expect([row[:3] for row in rows] == expected, "metrics.csv rows are not seeds x metrics")
    eos = [float(row[3]) for row in rows if row[2] == "precision_eos_topk"]
    p.expect(len(eos) == n and all(0.0 <= v <= 1.0 for v in eos),
             "precision_eos_topk missing or outside [0, 1]")
    alphas = [float(row[3]) for row in rows if row[2] == "alpha"]
    p.expect(all(a > 0 and math.isfinite(a) for a in alphas), "calibrated alpha not positive")
    r = _results(out)
    p.expect(len(r["rows"]) == n, f"report has {len(r['rows'])} seed rows, expected {n}")
    if not eos:
        return {}, p
    mean = sum(eos) / len(eos)
    reported = r["reports"]["precision_eos_topk"]["mean"]
    p.expect(abs(reported - mean) <= 1e-12, f"report mean precision {reported} != CSV mean {mean}")
    return {"precision_topk": mean}, p


def check_mislabel(out: Path, inputs: Inputs) -> tuple[dict, list[str]]:
    p = _Problems()
    flips, n_splits = inputs.params["flips"], inputs.params["n_splits"]
    rows = _csv_rows(out / "metrics.csv", ["experiment", "seed", "metric", "value"], p)
    p.expect(len(rows) == 3 * len(flips) * n_splits,
             f"metrics.csv has {len(rows)} rows, expected {3 * len(flips) * n_splits}")
    per_p = _results(out)["per_p"]
    robust_all, wins_all = [], []
    for flip in flips:
        key = f"{flip:g}"
        values = {(row[1], row[2]): float(row[3]) for row in rows if row[0] == f"mislabel_p={key}"}
        plain = [values.get((str(s), "auc_plain"), math.nan) for s in range(n_splits)]
        robust = [values.get((str(s), "auc_robust"), math.nan) for s in range(n_splits)]
        if not p.expect(all(0.0 <= v <= 1.0 for v in plain + robust),
                        f"p={key}: AUC missing or outside [0, 1]"):
            continue
        wins = [r >= q for r, q in zip(robust, plain)]
        reported = per_p[key]
        p.expect(abs(reported["auc_robust"]["mean"] - sum(robust) / n_splits) <= 1e-12,
                 f"p={key}: report mean robust AUC differs from metrics.csv")
        p.expect(reported["win_fraction"] == sum(wins) / n_splits,
                 f"p={key}: report win fraction differs from metrics.csv")
        robust_all += robust
        wins_all += wins
    if not robust_all:
        return {}, p
    return {
        "auc_robust": sum(robust_all) / len(robust_all),
        "win_fraction": sum(wins_all) / len(wins_all),
    }, p


def check_affinity(out: Path, inputs: Inputs) -> tuple[dict, list[str]]:
    p = _Problems()
    t = inputs.params["T"]
    r = _results(out)
    p.expect(r["T"] == t and r["mode"] == "perplexity",
             f"report T {r['T']} mode {r['mode']!r}, expected {t} perplexity")
    sigma = r["row_sigma_sq"]
    p.expect(len(sigma) == t and all(s > 0 for s in sigma), "row_sigma_sq not T positive values")
    table = _numeric_csv(out / "affinity.csv", ["row_index", "col_index", "value"], p)
    if not p.expect(table.shape == (t * (t - 1), 3),
                    f"affinity.csv shape {table.shape}, expected ({t * (t - 1)}, 3)"):
        return {}, p
    rows = table[:, 0].reshape(t, t - 1)
    cols = table[:, 1].reshape(t, t - 1)
    values = table[:, 2].reshape(t, t - 1)
    others = np.tile(np.arange(t - 1), (t, 1))
    others += others >= np.arange(t)[:, None]
    p.expect(bool(np.all(rows == np.arange(t)[:, None])), "affinity.csv rows not grouped by anchor")
    p.expect(np.array_equal(cols, others), "affinity.csv columns are not every other index")
    p.expect(bool(np.all(values >= 0)), "negative affinity")
    sums = values.sum(axis=1)
    p.expect(float(np.abs(sums - 1.0).max()) <= SIMPLEX_TOL, "an affinity row does not sum to 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(values > 0, values * np.log(values), 0.0)
    perplexity = np.exp(-plogp.sum(axis=1))
    err = float(np.max(np.abs(perplexity - PERPLEXITY)) / PERPLEXITY)
    p.expect(err <= PERPLEXITY_CHECK, f"row perplexity off target by {err:.3g} (relative)")
    return {"perplexity_err": err}, p


# The quality metrics each workload's command produces.
QUALITY = {
    "detect-large": ("precision_topk",),
    "synth-small": ("precision_topk",),
    "mislabel": ("auc_robust", "win_fraction"),
    "affinity-perplexity": ("perplexity_err",),
}
QUALITY_METRICS = tuple(dict.fromkeys(name for names in QUALITY.values() for name in names))

# BENCHMARK.json declares detect-large and affinity-perplexity only: on some
# seeds the program fails the other two (see README.md).  synth-bench stops
# with ContractViolationError when a fit's objective rises by about 1e-10
# relative; mislabel-bench stops with ModelError when
# train_weighted_classifier's line search stalls just above its gradient
# tolerance.  They stay here, unchanged, to reproduce those defects and to
# trace the bench and supervised layers.
WORKLOADS = {
    "detect-large": (prepare_detect, check_detect),
    "synth-small": (prepare_synth, check_synth),
    "mislabel": (prepare_mislabel, check_mislabel),
    "affinity-perplexity": (prepare_affinity, check_affinity),
}


def fingerprint(out: Path) -> tuple[dict[str, str], int]:
    """sha256 of every output file (report.json without created_at) and CSV data rows."""
    digests, rows = {}, 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("created_at", None)
            data = json.dumps(report, sort_keys=True).encode()
        elif path.suffix == ".csv":
            rows += max(data.count(b"\n") - 1, 0)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests, rows
