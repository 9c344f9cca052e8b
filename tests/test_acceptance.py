"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from eos import (
    Dataset,
    EosConfig,
    GaussianModel,
    MislabelExperimentConfig,
    SyntheticSpec,
    Termination,
    fit,
    gaussian_affinity_row,
    mislabel_experiment,
    objective,
    run_synth_benchmark,
    shannon_entropy,
    timing_probe_wstep,
    timing_ratios,
    summarize_mislabel,
    train_weighted_classifier,
    w_step,
    weighted_gaussian_mle,
    gaussian_error,
    GaussianParams,
)
from eos.cli import main as cli_main
from eos.supervised import _two_gaussian_dataset

from conftest import finite_difference_gradient, grid_min_objective


def _report(number: int, description: str, passed: bool, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_closed_form_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        t = int(rng.integers(2, 4))
        g = rng.normal(0.0, 3.0, size=t)
        alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        value = objective(g, w_step(g, alpha), alpha)
        if value > grid_min_objective(g, alpha, 1e-3) + 1e-6:
            ok = False
    elapsed = time.perf_counter() - started
    _report(1, "closed-form weights attain the dense simplex-grid minimum", ok and elapsed < 10, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_2_monotone_descent():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(50):
        t = int(rng.integers(30, 2001))
        d = int(rng.integers(1, 21))
        data = Dataset(rng.normal(size=(t, d)) * rng.uniform(0.5, 2.0))
        alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        result = fit(data, GaussianModel(), EosConfig(alpha=alpha, tol=1e-12))
        trajectory = result.objective_trajectory
        if not np.all(np.diff(trajectory) <= 1e-10 * np.abs(trajectory[:-1]) + 1e-15):
            ok = False
        if result.termination not in (Termination.CONVERGED, Termination.MAX_ITERS_REACHED):
            ok = False
    elapsed = time.perf_counter() - started
    _report(2, "50 random Gaussian fits descend monotonically", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_3_affinity_bandwidth_correspondence():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(20):
        t = int(rng.integers(5, 40))
        d = int(rng.integers(1, 8))
        data = Dataset(rng.normal(size=(t, d)))
        i = int(rng.integers(0, t))
        sigma_sq = float(rng.uniform(0.05, 5.0))
        # The textbook row: p(j | i) = exp(-d_ij / 2 sigma^2) / sum_k exp(-d_ik / 2 sigma^2).
        x = data.instances.tolist()
        distances = np.array([sum((a - b) ** 2 for a, b in zip(x[i], x[j]))
                              for j in range(t) if j != i])
        kernel = np.exp(-distances / (2.0 * sigma_sq))
        textbook = kernel / kernel.sum()
        for row in (gaussian_affinity_row(data, i, sigma_sq), w_step(distances, 2.0 * sigma_sq)):
            if np.abs(row - textbook).max() > 1e-12:
                ok = False
    elapsed = time.perf_counter() - started
    _report(3, "affinity row and w-step at alpha = 2 sigma^2 equal the textbook row",
            ok and elapsed < 5, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_4_synthetic_anomaly_precision():
    started = time.perf_counter()
    outcome = run_synth_benchmark(SyntheticSpec(seed=0), 50, ess_target=0.95, quantile=0.975)
    rows = outcome["rows"]
    eos_values = [r["precision_eos_topk"] for r in rows]
    wins_mle = np.mean(
        [e >= b for e, b in zip(eos_values, (r["precision_chi2_mle"] for r in rows))]
    )
    wins_robust = np.mean(
        [e >= b for e, b in zip(eos_values, (r["precision_chi2_robust"] for r in rows))]
    )
    mean_eos = float(np.mean(eos_values))
    elapsed = time.perf_counter() - started
    ok = wins_mle >= 0.8 and wins_robust >= 0.8 and mean_eos >= 0.9 and elapsed < 120
    _report(
        4,
        f"planted-outlier precision: eos mean {mean_eos:.3f}, win rate vs chi2 "
        f"mle {wins_mle:.2f} / robust {wins_robust:.2f}",
        ok,
        elapsed,
    )
    assert wins_mle >= 0.8
    assert wins_robust >= 0.8
    assert mean_eos >= 0.9
    assert elapsed < 120.0


def test_criterion_5_cost_scaling():
    started = time.perf_counter()
    rows = timing_probe_wstep(
        [100_000, 200_000, 400_000], [2, 20, 200], repeats=40, fixed_t=100_000, warmup=5
    )
    ratios = timing_ratios(rows)
    t_ok = all(1.5 <= r <= 2.5 for r in ratios["t_ratios"])
    d_ok = ratios["d_max_over_min"] <= 1.3
    elapsed = time.perf_counter() - started
    ok = t_ok and d_ok and elapsed < 120
    _report(
        5,
        f"w-step cost: T-doubling ratios {[round(r, 2) for r in ratios['t_ratios']]}, "
        f"D spread {ratios['d_max_over_min']:.2f}",
        ok,
        elapsed,
    )
    assert t_ok, ratios
    assert d_ok, ratios
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def mislabel_runs():
    runs = {}
    for p in (0.0, 0.1, 0.2, 0.3):
        cfg = MislabelExperimentConfig(flip_proportion=p, n_splits=50, seed=606)
        runs[p] = mislabel_experiment(cfg, task_size=400, task_dim=5)
    return runs


def test_criterion_6_mislabeling_robustness(mislabel_runs):
    started = time.perf_counter()
    ok = True
    details = []
    summaries = {p: summarize_mislabel(mislabel_runs[p]) for p in (0.1, 0.2, 0.3)}
    for p, summary in summaries.items():
        wins, improvement = summary["win_fraction"], summary["mean_improvement"]
        details.append(f"p={p}: wins {wins:.2f}, mean improvement {improvement:+.4f}")
        if wins < 0.8 or improvement <= 0.0:
            ok = False
    agreement = max(abs(o.auc_robust - o.auc_plain) for o in mislabel_runs[0.0])
    details.append(f"p=0 max |difference| {agreement:.4f}")
    if agreement > 0.01:
        ok = False
    elapsed = time.perf_counter() - started
    _report(6, "; ".join(details), ok and elapsed < 300, elapsed)
    for summary in summaries.values():
        assert summary["win_fraction"] >= 0.8
        assert summary["mean_improvement"] > 0.0
    assert agreement <= 0.01
    assert elapsed < 300.0


def test_criterion_7_mislabel_suppression(mislabel_runs):
    started = time.perf_counter()
    suppressed = summarize_mislabel(mislabel_runs[0.2])["suppression_fraction"]
    elapsed = time.perf_counter() - started
    ok = suppressed >= 0.95
    _report(7, f"flipped-point weights depressed in {suppressed:.0%} of splits", ok, elapsed)
    assert suppressed >= 0.95


def test_criterion_8_invariant_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True

    # Shift invariance and temperature scaling.
    for _ in range(50):
        g = rng.normal(size=int(rng.integers(2, 40))) * 10
        c = float(rng.uniform(-100, 100))
        alpha = float(rng.uniform(0.5, 10.0))
        if np.abs(w_step(g + c, alpha) - w_step(g, alpha)).max() > 1e-12:
            ok = False
        if np.abs(w_step(g, alpha) - w_step(g / alpha, 1.0)).max() > 1e-12:
            ok = False

    # Entropy strictly increasing in alpha.
    g = rng.normal(size=60)
    entropies = [shannon_entropy(w_step(g, a)) for a in np.logspace(-2, 2, 10)]
    if not all(b > a for a, b in zip(entropies, entropies[1:])):
        ok = False

    # Simplex closure under adversarial magnitudes.
    for _ in range(50):
        g = rng.uniform(-1e8, 1e8, size=int(rng.integers(1, 50)))
        w = w_step(g, float(rng.uniform(1e-3, 1e3)))
        if not (np.all(w >= 0) and abs(float(w.sum()) - 1.0) <= 1e-12):
            ok = False

    # Weighted-MLE perturbation optimality.
    for _ in range(10):
        data = Dataset(rng.normal(size=(40, 3)))
        w = rng.dirichlet(np.ones(40))
        params = weighted_gaussian_mle(data, w)
        base = float(w @ gaussian_error(data, params))
        for _ in range(20):
            sym = rng.normal(scale=1e-3, size=(3, 3))
            sym = 0.5 * (sym + sym.T)
            perturbed = GaussianParams(
                mu=params.mu + rng.normal(scale=1e-3, size=3), sigma=params.sigma + sym
            )
            if float(w @ gaussian_error(data, perturbed)) < base - 1e-12 * abs(base):
                ok = False

    # Finite-difference gradient agreement for the classifier objective.
    data = _two_gaussian_dataset(80, 3, rng)
    weights = rng.dirichlet(np.ones(80))
    l2 = 1e-3
    y = data.labels.astype(float)

    def value(theta: np.ndarray) -> float:
        z = data.instances @ theta[:-1] + theta[-1]
        nll = np.logaddexp(0.0, z) - y * z
        return float(weights @ nll + l2 * (theta[:-1] @ theta[:-1]))

    for _ in range(5):
        theta = rng.normal(scale=0.8, size=4)
        z = data.instances @ theta[:-1] + theta[-1]
        p = 1.0 / (1.0 + np.exp(-z))
        analytic = np.concatenate(
            [
                data.instances.T @ (weights * (p - y)) + 2.0 * l2 * theta[:-1],
                [float(weights @ (p - y))],
            ]
        )
        numeric = finite_difference_gradient(value, theta)
        if np.abs(numeric - analytic).max() > 1e-4 * max(1.0, np.abs(analytic).max()):
            ok = False

    # Trained parameters reach the required gradient norm.
    params = train_weighted_classifier(data, weights, l2)
    theta_star = np.concatenate([params.coefficients, [params.intercept]])
    z = data.instances @ theta_star[:-1] + theta_star[-1]
    p = 1.0 / (1.0 + np.exp(-z))
    grad = np.concatenate(
        [
            data.instances.T @ (weights * (p - y)) + 2.0 * l2 * theta_star[:-1],
            [float(weights @ (p - y))],
        ]
    )
    if float(np.linalg.norm(grad)) > 1e-8:
        ok = False

    elapsed = time.perf_counter() - started
    _report(8, "invariant suite (shift, scaling, entropy, closure, MLE, gradients)", ok and elapsed < 60, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_9_cli_reproducibility(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(909)

    features = rng.standard_normal((80, 3))
    features[:5] += 8.0
    lines = ["a,b,c"] + [",".join(repr(float(v)) for v in row) for row in features]
    (tmp_path / "plain.csv").write_text("\n".join(lines) + "\n")

    labeled = np.hstack(
        [
            np.vstack([rng.normal(-1.2, 1, (40, 2)), rng.normal(1.2, 1, (40, 2))]),
            np.concatenate([np.zeros(40), np.ones(40)])[:, None],
        ]
    )
    lab_lines = ["x0,x1,label"] + [
        f"{float(row[0])!r},{float(row[1])!r},{int(row[2])}" for row in labeled
    ]
    (tmp_path / "labeled.csv").write_text("\n".join(lab_lines) + "\n")

    configs = {
        "detect": {
            "command": "detect",
            "input_path": str(tmp_path / "plain.csv"),
            "seed": 4,
            "eos": {"alpha": 1.0},
            "detect": {"rule": "top_k", "rule_param": 5},
        },
        "affinity": {
            "command": "affinity",
            "input_path": str(tmp_path / "plain.csv"),
            "affinity": {"perplexity": 6.0},
        },
        "robust-train": {
            "command": "robust-train",
            "input_path": str(tmp_path / "labeled.csv"),
            "seed": 4,
            "csv": {"label_column": "label"},
        },
        "synth-bench": {
            "command": "synth-bench",
            "seed": 4,
            "synth_bench": {"t": 200, "d": 4, "n_seeds": 2},
        },
        "mislabel-bench": {
            "command": "mislabel-bench",
            "seed": 4,
            "mislabel_bench": {"flip_proportions": [0.2], "n_splits": 2, "task_size": 120},
        },
    }

    ok = True
    for name, payload in configs.items():
        results = []
        for run_idx in (0, 1):
            out_dir = tmp_path / f"{name}-{run_idx}"
            payload["output_dir"] = str(out_dir)
            cfg_path = tmp_path / f"{name}-{run_idx}.json"
            cfg_path.write_text(json.dumps(payload))
            assert cli_main(["--config", str(cfg_path), "--quiet"]) == 0
            report = json.loads((out_dir / "report.json").read_text())
            report.pop("created_at")
            report["config"].pop("output_dir")
            bulk = {
                f.name: f.read_bytes()
                for f in sorted(out_dir.iterdir())
                if f.suffix == ".csv"
            }
            results.append((report, bulk))
        if results[0] != results[1]:
            ok = False
    elapsed = time.perf_counter() - started
    _report(9, "five deterministic commands rerun byte-identically", ok, elapsed)
    assert ok
