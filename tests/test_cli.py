from __future__ import annotations

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eos.anomaly
import eos.cli
from eos.cli import RunConfig, main
from eos import (
    CalibrationError,
    EosConfig,
    FlagRule,
    InvalidConfigError,
    MislabelExperimentConfig,
    affinity_blocks,
    calibrate_alpha,
    detect,
    mislabel_experiment,
    parse_csv_dataset,
    robust_fit,
    summarize_mislabel,
)


def _write_csv(path, matrix, labels=None):
    d = matrix.shape[1]
    header = ",".join(f"c{i}" for i in range(d)) + (",label" if labels is not None else "")
    lines = [header]
    for i, row in enumerate(matrix):
        cells = ",".join(repr(float(v)) for v in row)
        if labels is not None:
            cells += f",{int(labels[i])}"
        lines.append(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def _strip_volatile(report):
    report = dict(report)
    report.pop("created_at")
    report["config"] = dict(report["config"])
    report["config"].pop("output_dir")
    return report


@pytest.fixture()
def detect_setup(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 3))
    x[:4] += 9.0
    data_path = _write_csv(tmp_path / "data.csv", x)
    config = {
        "command": "detect",
        "input_path": str(data_path),
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
        "eos": {"alpha": 1.0},
        "detect": {"rule": "top_k", "rule_param": 4},
    }
    return tmp_path, _write_config(tmp_path / "cfg.json", config), config


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_round_trip_is_fixpoint():
    raw = {
        "command": "detect",
        "input_path": "x.csv",
        "output_dir": "out",
        "seed": 7,
        "eos": {"alpha": 2.0, "tol": 1e-10, "init_policy": "seeded_dirichlet"},
        "csv": {"label_column": "y", "drop_columns": ["id", "ts"], "label_map": {"a": 0, "b": 1}},
        "detect": {"rule": "top_k", "rule_param": 5},
        "timing": {"t_grid": [1000, 2000]},
    }
    first = RunConfig.from_dict(raw).to_dict()
    second = RunConfig.from_dict(first).to_dict()
    assert first == second
    assert first["eos"]["alpha"] == 2.0
    assert first["eos"]["max_iters"] == 500  # default filled in
    assert first["eos"]["init_policy"] == "seeded_dirichlet"
    assert first["csv"]["drop_columns"] == ["id", "ts"]
    assert first["csv"]["label_map"] == {"a": 0, "b": 1}
    assert first["timing"]["t_grid"] == [1000, 2000]
    assert json.loads(json.dumps(first)) == first


@pytest.mark.parametrize(
    "payload",
    [
        {"command": "detect", "bogus": 1},
        {"command": "detect", "eos": {"alhpa": 1.0}},
        {"command": "detect", "detect": {"rule": "nope"}},
        {"command": "frobnicate"},
        {"command": "detect", "seed": -1},
        {"command": "detect", "eos": {"alpha": "large"}},
        {"command": "detect", "eos": {"max_iters": 5.0}},
        {"command": "detect", "seed": True},
        {"command": "detect", "csv": {"label_map": {"a": True}}},
        {"command": "timing", "timing": {"t_grid": [1, 2.5]}},
        {"command": "detect", "eos": []},
        {"seed": 1},
        # The seed and the eos section are checked for every command.
        {"command": "timing", "seed": 2**64},
        {"command": "mislabel-bench", "seed": 2**64},
        {"command": "affinity", "eos": {"tol": -1}},
        {"command": "synth-bench", "eos": {"max_iters": 0}},
    ],
)
def test_config_rejects_bad_payloads(payload):
    with pytest.raises(InvalidConfigError):
        RunConfig.from_dict(payload)


# ---------------------------------------------------------------------------
# detect command
# ---------------------------------------------------------------------------

def test_detect_end_to_end(detect_setup):
    tmp_path, cfg_path, _ = detect_setup
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    out = tmp_path / "out"
    report = _report(out)
    assert report["schema_version"] == 1
    assert report["command"] == "detect"
    assert report["results"]["flagged_indices"] == [0, 1, 2, 3]
    weights = (out / "weights.csv").read_text().splitlines()
    assert weights[0] == "index,weight,flag"
    assert len(weights) == 61


def test_detect_rerun_is_byte_identical(detect_setup):
    tmp_path, cfg_path, _ = detect_setup
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    assert main(["--config", str(cfg_path), "--quiet", "--output", str(tmp_path / "out2")]) == 0
    first = (tmp_path / "out" / "weights.csv").read_bytes()
    second = (tmp_path / "out2" / "weights.csv").read_bytes()
    assert first == second
    assert _strip_volatile(_report(tmp_path / "out")) == _strip_volatile(_report(tmp_path / "out2"))


def test_detect_reports_unconverged_fit(detect_setup):
    tmp_path, _, config = detect_setup
    cfg_path = _write_config(tmp_path / "capped.json", {**config, "eos": {"max_iters": 1}})
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    results = _report(tmp_path / "out")["results"]
    assert results["termination"] == "max_iters_reached"
    assert results["iterations"] == 1


def test_negative_seed_override_exits_2(detect_setup, capsys):
    _, cfg_path, _ = detect_setup
    assert main(["--config", str(cfg_path), "--quiet", "--seed", "-1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InvalidConfigError"


def test_detect_alpha_override(detect_setup):
    tmp_path, cfg_path, _ = detect_setup
    assert main(["--config", str(cfg_path), "--quiet", "--alpha", "2.5",
                 "--output", str(tmp_path / "out3")]) == 0
    assert _report(tmp_path / "out3")["results"]["alpha_used"] == 2.5


@pytest.mark.parametrize(
    "target, identical",
    [(0.90, False), (1.0, False), (0.5, True)],
    ids=["bisection", "high-endpoint", "saturated-low-endpoint"],
)
def test_calibrated_detect_flags_from_the_calibration_fit(
    detect_setup, monkeypatch, target, identical
):
    tmp_path, _, config = detect_setup
    if identical:
        same = _write_csv(tmp_path / "same.csv", np.tile([0.5, 1.0, 2.0], (20, 1)))
        config = {**config, "input_path": str(same)}
    config = {**config, "detect": {**config["detect"], "calibrate_ess_fraction": target}}
    cfg_path = _write_config(tmp_path / "calibrated.json", config)
    fits = []
    counted = eos.anomaly.fit

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(eos.anomaly, "fit", counting_fit)
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    cli_fits = len(fits)

    data = parse_csv_dataset(config["input_path"])
    eos_cfg = EosConfig(alpha=1.0, seed=config["seed"])
    fits.clear()
    calibration = calibrate_alpha(data, target, eos_cfg)
    assert cli_fits == len(fits) == len(calibration.path)
    assert calibration.saturated is identical

    report = detect(data, replace(eos_cfg, alpha=calibration.alpha), FlagRule.TOP_K, 4)
    expected = ["index,weight,flag"] + [
        f"{i},{float(w)!r},{int(f)}" for i, (w, f) in enumerate(zip(report.weights, report.flags))
    ]
    assert (tmp_path / "out" / "weights.csv").read_text().splitlines() == expected
    results = _report(tmp_path / "out")["results"]
    assert results["flagged_indices"] == np.flatnonzero(report.flags).tolist()
    assert results["calibration"] == {
        "alpha": calibration.alpha,
        "attained_fraction": calibration.attained_fraction,
        "saturated": calibration.saturated,
        "path": [list(step) for step in calibration.path],
        "probe_fits": [[iterations, end.value] for iterations, end in calibration.probe_fits],
        "monotone": calibration.monotone,
    }


def test_calibration_across_an_ess_jump_fails_cleanly(detect_setup, capsys):
    """On this data the fitted ESS fraction jumps from about 0.93 to about 0.98
    between two neighbouring floats near alpha = 5.2556, so no alpha attains
    0.95 within 0.01: the bisection stops there instead of repeating alpha."""
    tmp_path, _, config = detect_setup
    data = parse_csv_dataset(config["input_path"])
    with pytest.raises(CalibrationError, match="jumps from") as info:
        calibrate_alpha(data, 0.95, EosConfig(alpha=1.0, seed=config["seed"]))
    message = str(info.value)
    low, high = (float(word.removeprefix("alpha=")) for word in message.split()
                 if word.startswith("alpha="))
    assert 5.2 < low < high == np.nextafter(low, np.inf) < 5.3

    config = {**config, "detect": {**config["detect"], "calibrate_ess_fraction": 0.95}}
    cfg_path = _write_config(tmp_path / "jump.json", config)
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "CalibrationError", "message": message}


def test_detect_too_few_rows_fails_cleanly(tmp_path, capsys):
    data_path = _write_csv(tmp_path / "tiny.csv", np.zeros((2, 3)))
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {"command": "detect", "input_path": str(data_path), "output_dir": str(tmp_path / "out")},
    )
    rc = main(["--config", str(cfg_path), "--quiet"])
    assert rc == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"]["type"] == "InvalidInputError"


@pytest.mark.parametrize("count", [math.nan, math.inf], ids=["nan", "inf"])
def test_detect_non_finite_top_k_exits_2(detect_setup, capsys, monkeypatch, count):
    tmp_path, _, config = detect_setup
    monkeypatch.setattr(eos.cli, "calibrate_alpha", lambda *args: pytest.fail("calibrated"))
    for detect_section in ({"rule": "top_k", "rule_param": count},
                           {"rule": "top_k", "rule_param": count, "calibrate_ess_fraction": 0.9}):
        config = {**config, "detect": detect_section}
        cfg_path = _write_config(tmp_path / "bad-k.json", config)  # json writes NaN and Infinity
        assert main(["--config", str(cfg_path), "--quiet"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "InvalidConfigError",
                         "message": f"top-k count must be a non-negative integer, got {count!r}"}
        assert not (tmp_path / "out" / "weights.csv").exists()


def test_config_integer_beyond_float_range_exits_2(detect_setup, capsys):
    tmp_path, _, config = detect_setup
    cfg_path = _write_config(tmp_path / "huge-tol.json", {**config, "eos": {"tol": 10**400}})
    assert main(["--config", str(cfg_path), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "InvalidConfigError",
                     "message": f"eos.tol must be a number in the float range, got {10**400!r}"}


@pytest.mark.parametrize("calibrate", [None, 0.9], ids=["fixed-alpha", "calibrated"])
@pytest.mark.parametrize(
    "key, change, message",
    [("eos", {"tol": -1}, "tol must be positive, got -1.0"),
     ("seed", 2**64, f"seed must be an unsigned 64-bit integer, got {2**64}"),
     ("detect", {"rule_param": -1}, "top-k count must be a non-negative integer, got -1.0")],
    ids=["eos-tol", "seed", "detect-rule-param"],
)
def test_bad_detect_config_exits_2_before_the_input_is_read(
    detect_setup, capsys, monkeypatch, calibrate, key, change, message
):
    tmp_path, _, config = detect_setup
    monkeypatch.setattr(eos.cli, "parse_csv_dataset", lambda *args, **kwargs: pytest.fail("read"))
    config = {**config, "detect": {**config["detect"], "calibrate_ess_fraction": calibrate}}
    config[key] = {**config[key], **change} if isinstance(change, dict) else change
    cfg_path = _write_config(tmp_path / "bad.json", config)
    assert main(["--config", str(cfg_path), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "InvalidConfigError", "message": message}


@pytest.mark.parametrize(
    "command, section, message",
    [("mislabel-bench", {"task_size": -1}, "task_size must be a positive integer, got -1"),
     ("mislabel-bench", {"task_dim": 0}, "task_dim must be a positive integer, got 0"),
     ("timing", {"fixed_t": -1}, "fixed_t must be a positive integer, got -1"),
     ("timing", {"t_grid": [-1]}, "each t_grid entry must be a positive integer, got -1"),
     ("timing", {"d_grid": [2, -1]}, "each d_grid entry must be a positive integer, got -1")],
    ids=["task-size", "task-dim", "fixed-t", "t-grid", "d-grid"],
)
def test_bad_experiment_size_returns_a_code(tmp_path, capsys, command, section, message):
    key = command.replace("-", "_")
    cfg_path = _write_config(tmp_path / "cfg.json", {
        "command": command, "output_dir": str(tmp_path / "out"), key: section})
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "InvalidInputError", "message": message}


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "cfg.json", {"command": "detect", "junk": True})
    assert main(["--config", str(cfg_path), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"]["type"] == "InvalidConfigError"


@pytest.mark.parametrize(
    "name, content",
    [("nope.json", None),
     ("a-directory", "mkdir"),
     ("latin-1.json", '{"command": "d\u00e9tect"}'.encode("latin-1")),
     ("long-int.json", b'{"command": "detect", "seed": 1' + b"0" * 4300 + b"}")],
    ids=["missing", "directory", "not-utf-8", "int-past-digit-limit"],
)
def test_missing_config_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content == "mkdir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(["--config", str(path), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def test_synth_bench_report_structure(tmp_path):
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {
            "command": "synth-bench",
            "output_dir": str(tmp_path / "out"),
            "seed": 5,
            "synth_bench": {"t": 200, "d": 4, "n_seeds": 3},
        },
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    report = _report(tmp_path / "out")
    reports = report["results"]["reports"]
    for method in ("precision_eos_topk", "precision_chi2_mle", "precision_chi2_robust"):
        assert len(reports[method]["per_seed_values"]) == 3
        assert reports[method]["ci_low"] <= reports[method]["mean"] <= reports[method]["ci_high"]
    metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "experiment,seed,metric,value"
    assert len(metrics) == 1 + 3 * 4


def test_mislabel_bench_per_p_reports(tmp_path):
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {
            "command": "mislabel-bench",
            "output_dir": str(tmp_path / "out"),
            "seed": 1,
            "mislabel_bench": {
                "flip_proportions": [0.0, 0.2],
                "n_splits": 3,
                "task_size": 120,
                "task_dim": 3,
            },
        },
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    per_p = _report(tmp_path / "out")["results"]["per_p"]
    assert set(per_p) == {"0", "0.2"}
    for key, p in (("0", 0.0), ("0.2", 0.2)):
        cfg = MislabelExperimentConfig(flip_proportion=p, n_splits=3, seed=1)
        outcomes = mislabel_experiment(cfg, task_size=120, task_dim=3)
        expected = {**summarize_mislabel(outcomes), "outcomes": outcomes}
        assert per_p[key] == json.loads(json.dumps(eos.cli._jsonify(expected)))
        assert len(per_p[key]["auc_plain"]["per_seed_values"]) == 3
    assert per_p["0.2"]["suppression_fraction"] is not None
    assert per_p["0"]["suppression_fraction"] is None


def _mislabel_config(tmp_path, flip_proportions):
    return _write_config(
        tmp_path / "cfg.json",
        {
            "command": "mislabel-bench",
            "output_dir": str(tmp_path / "out"),
            "mislabel_bench": {"flip_proportions": flip_proportions, "n_splits": 2,
                               "task_size": 60, "task_dim": 2},
        },
    )


def _count_mislabel_experiments(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].flip_proportion)
        return mislabel_experiment(*args, **kwargs)

    monkeypatch.setattr(eos.cli, "mislabel_experiment", counting)
    return calls


def test_mislabel_bench_rejects_invalid_proportion_before_any_split(tmp_path, monkeypatch, capsys):
    calls = _count_mislabel_experiments(monkeypatch)
    assert main(["--config", str(_mislabel_config(tmp_path, [0.1, 0.7])), "--quiet"]) == 2
    assert calls == []
    assert "0.7" in capsys.readouterr().err


def test_mislabel_bench_rejects_colliding_report_keys(tmp_path, monkeypatch, capsys):
    calls = _count_mislabel_experiments(monkeypatch)
    cfg_path = _mislabel_config(tmp_path, [0.1, 0.1000001])
    assert main(["--config", str(cfg_path), "--quiet"]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "0.1" in err and "0.1000001" in err


def test_mislabel_bench_on_csv_input(tmp_path):
    rng = np.random.default_rng(2)
    x = np.vstack([rng.normal(-1.2, 1, (60, 3)), rng.normal(1.2, 1, (60, 3))])
    y = np.concatenate([np.zeros(60, dtype=int), np.ones(60, dtype=int)])
    data_path = _write_csv(tmp_path / "labeled.csv", x, y)
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {
            "command": "mislabel-bench",
            "input_path": str(data_path),
            "output_dir": str(tmp_path / "out"),
            "csv": {"label_column": "label"},
            "mislabel_bench": {"flip_proportions": [0.1], "n_splits": 2},
        },
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    assert _report(tmp_path / "out")["results"]["source"] == "csv"


def test_affinity_rows_stochastic(tmp_path):
    rng = np.random.default_rng(3)
    data_path = _write_csv(tmp_path / "data.csv", rng.standard_normal((12, 2)))
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {
            "command": "affinity",
            "input_path": str(data_path),
            "output_dir": str(tmp_path / "out"),
            "affinity": {"perplexity": 4.0},
        },
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    lines = (tmp_path / "out" / "affinity.csv").read_text().splitlines()[1:]
    assert len(lines) == 12 * 11
    sums = np.zeros(12)
    for line in lines:
        i, j, value = line.split(",")
        assert int(i) != int(j)
        sums[int(i)] += float(value)
    assert np.abs(sums - 1.0).max() <= 1e-9


def _robust_train_config(tmp_path, **sections):
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(-1.5, 1, (40, 2)), rng.normal(1.5, 1, (40, 2))])
    y = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
    data_path = _write_csv(tmp_path / "labeled.csv", x, y)
    return _write_config(
        tmp_path / "cfg.json",
        {
            "command": "robust-train",
            "input_path": str(data_path),
            "output_dir": str(tmp_path / "out"),
            "csv": {"label_column": "label"},
            **sections,
        },
    )


def test_robust_train_report(tmp_path):
    cfg_path = _robust_train_config(tmp_path)
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    results = _report(tmp_path / "out")["results"]
    assert len(results["coefficients"]) == 2
    assert results["training_auc"] > 0.9
    assert (tmp_path / "out" / "weights.csv").exists()


def test_robust_train_alpha_selection_honours_eos_max_iters(tmp_path, capsys):
    # Without robust_train.alpha, every grid fit runs with eos.tol and
    # eos.max_iters; capped at one iteration none converges.
    cfg_path = _robust_train_config(tmp_path, eos={"max_iters": 1})
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "NonConvergenceError"


def test_label_map_value_other_than_zero_or_one_exits_2(tmp_path, capsys):
    cfg_path = _robust_train_config(
        tmp_path, csv={"label_column": "label", "label_map": {"0": 0, "1": 5}}
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InvalidConfigError"
    assert "label map value for '1' must be 0 or 1, got 5" in error["message"]


def test_timing_command(tmp_path):
    cfg_path = _write_config(
        tmp_path / "cfg.json",
        {
            "command": "timing",
            "output_dir": str(tmp_path / "out"),
            "timing": {"t_grid": [2000, 4000], "d_grid": [2, 4], "repeats": 5, "fixed_t": 2000},
        },
    )
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    results = _report(tmp_path / "out")["results"]
    assert len(results["rows"]) == 4
    assert len(results["ratios"]["t_ratios"]) == 1
    lines = (tmp_path / "out" / "timing.csv").read_text().splitlines()
    assert lines[0] == "axis,T,D,median_s,iqr_s,repeats"


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports eos from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy_stats():
    # scipy.special alone is more than half of a bare CLI start and detect and affinity
    # never call it; multiprocessing and concurrent.futures are imported only by a CSV
    # write that starts workers.
    code = ("import sys, eos, eos.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'multiprocessing', 'concurrent.futures') "
            "or m.startswith('scipy.')))")
    assert _run_fresh(code) == "[]"


def test_scipy_names_imported_on_first_call_match_their_oracles():
    # The first call of each function that imports a scipy name on use, in a process
    # that has not loaded scipy, gives the oracle's result; the oracles load scipy after.
    code = """
import sys
import numpy as np
from eos import ClassifierParams, Dataset, decision_function, mahalanobis_squared
from eos import mahalanobis_chi2_baseline, predict_proba, weighted_gaussian_mle
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
rng = np.random.default_rng(3)
x = rng.standard_normal((2000, 4)) * 8.0
params = ClassifierParams(np.array([1.5, -2.0, 0.25, 3.0]), 0.5, 1e-4)
proba = predict_proba(params, x)
data = Dataset(rng.standard_normal((400, 3)))
flags = mahalanobis_chi2_baseline(data, 0.975)
from scipy.special import expit
from scipy.stats import chi2
maha = mahalanobis_squared(data, weighted_gaussian_mle(data, np.full(400, 1 / 400)))
print(np.array_equal(proba, expit(decision_function(params, x))),
      np.array_equal(flags, maha > chi2.ppf(0.975, 3)), int(flags.sum()))
"""
    proba_ok, flags_ok, n_flagged = _run_fresh(code).split()
    assert (proba_ok, flags_ok) == ("True", "True")
    assert int(n_flagged) > 0


def test_cli_imports_no_private_eos_names():
    # The CLI is a layer over the library's public surface.
    source = Path(__file__).resolve().parents[1] / "src" / "eos" / "cli.py"
    private = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("eos")):
            module = node.module or ""
            for name in module.split(".") + [alias.name for alias in node.names]:
                if name.startswith("_") and not name.endswith("__"):
                    private.append(f"{module}:{name}")
    assert private == [], f"cli.py imports private eos names: {private}"


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def _oracle_csv(header, rows):
    """CSV text from csv.writer, with floats as repr and None as an empty cell."""
    def cell(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[cell(v) for v in row] for row in rows])
    return buffer.getvalue().encode("utf-8")


def _affinity_config(tmp_path, section):
    data_path = _write_csv(tmp_path / "data.csv", np.random.default_rng(5).standard_normal((15, 3)))
    return data_path, _write_config(
        tmp_path / "cfg.json",
        {
            "command": "affinity",
            "input_path": str(data_path),
            "output_dir": str(tmp_path / "out"),
            "affinity": section,
        },
    )


@pytest.mark.parametrize(
    "section", [{"perplexity": 5.0}, {"alpha": 0.8}, {"sigma_sq": 0.4}],
    ids=["perplexity", "alpha", "sigma_sq"],
)
def test_affinity_csv_matches_csv_writer(tmp_path, section):
    data_path, cfg_path = _affinity_config(tmp_path, section)
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    blocks = affinity_blocks(parse_csv_dataset(data_path), **section)
    expected = _oracle_csv(
        ["row_index", "col_index", "value"],
        [[i, j, float(v)] for anchors, values, _ in blocks for i, row in zip(anchors, values)
         for j, v in zip([j for j in range(row.size + 1) if j != i], row)],
    )
    assert (tmp_path / "out" / "affinity.csv").read_bytes() == expected


def test_detect_csv_matches_csv_writer(detect_setup):
    tmp_path, cfg_path, config = detect_setup
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    report = detect(
        parse_csv_dataset(config["input_path"]), EosConfig(alpha=1.0, seed=3), FlagRule.TOP_K, 4
    )
    expected = _oracle_csv(
        ["index", "weight", "flag"],
        [[i, float(w), int(f)] for i, (w, f) in enumerate(zip(report.weights, report.flags))],
    )
    assert (tmp_path / "out" / "weights.csv").read_bytes() == expected


def test_robust_train_csv_matches_csv_writer(tmp_path):
    cfg_path = _robust_train_config(tmp_path, robust_train={"alpha": 1.0})
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    data = parse_csv_dataset(tmp_path / "labeled.csv", label_column="label")
    result = robust_fit(data, EosConfig(alpha=1.0), 1e-4)
    expected = _oracle_csv(["index", "weight"], [[i, float(w)] for i, w in enumerate(result.weights)])
    assert (tmp_path / "out" / "weights.csv").read_bytes() == expected


def test_failed_csv_write_leaves_no_partial_file(tmp_path, monkeypatch):
    _, cfg_path = _affinity_config(tmp_path, {"perplexity": 5.0})
    out = tmp_path / "out"
    real = eos.cli.affinity_blocks
    open_during_failure = []

    def failing_blocks(*args, **kwargs):
        blocks = real(*args, **kwargs)

        def partway():
            yield next(blocks)
            open_during_failure.extend(p.name for p in out.glob("affinity.csv*.tmp"))
            raise OSError("disk full")

        return partway()

    monkeypatch.setattr(eos.cli, "affinity_blocks", failing_blocks)
    with pytest.raises(OSError, match="disk full"):
        main(["--config", str(cfg_path), "--quiet"])
    assert open_during_failure, "the failure should strike while the file is being written"
    assert sorted(p.name for p in out.iterdir()) == []


def test_late_calibration_error_on_the_pooled_path_leaves_nothing(tmp_path, monkeypatch, capsys):
    import multiprocessing

    # 450 anchors reach the pool's cut-off.  Anchors 447 to 449 coincide, so
    # each has two neighbors at distance 0 and cannot reach perplexity 1.5;
    # the error names the first of them, after earlier blocks were written.
    # They lie far from the rest, so no other anchor has them as nearest.
    x = np.random.default_rng(8).standard_normal((450, 3))
    x[447:] = 100.0
    data_path = _write_csv(tmp_path / "data.csv", x)
    cfg_path = _write_config(tmp_path / "cfg.json", {
        "command": "affinity", "input_path": str(data_path), "output_dir": str(tmp_path / "out"),
        "affinity": {"perplexity": 1.5},
    })
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = _spy_on_pool(monkeypatch)
    assert main(["--config", str(cfg_path), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "CalibrationError"
    assert error["message"].startswith("anchor 447: target perplexity 1.5 below")
    assert pooled == [4]
    assert list((tmp_path / "out").iterdir()) == []
    assert multiprocessing.active_children() == []


def _spy_on_pool(monkeypatch):
    """Record each pooled write: ``_in_order`` runs only on the pool path."""
    calls = []
    real = eos.cli._in_order

    def spy(pool, blocks, window):
        calls.append(window)
        return real(pool, blocks, window)

    monkeypatch.setattr(eos.cli, "_in_order", spy)
    return calls


def _weight_data(t):
    rng = np.random.default_rng(t)
    return rng.dirichlet(np.ones(t)), rng.random(t) < 0.1


@pytest.mark.parametrize("t", [1, 4096, 4097, 10_001])
def test_weights_csv_identical_at_any_worker_count(tmp_path, monkeypatch, t):
    weights, flags = _weight_data(t)
    pooled = _spy_on_pool(monkeypatch)
    written = []
    for processes in (1, 2, 3):
        path = tmp_path / f"weights-{processes}.csv"
        blocks = eos.cli._weight_blocks("%d,%r,%d\n", weights, flags)
        eos.cli._write_csv(path, ["index", "weight", "flag"], blocks, processes=processes)
        written.append(path.read_bytes())
    assert pooled == [4, 6]
    expected = _oracle_csv(["index", "weight", "flag"],
                           [[i, float(w), int(f)] for i, (w, f) in enumerate(zip(weights, flags))])
    assert written == [expected] * 3


def test_affinity_csv_identical_at_any_worker_count(tmp_path, monkeypatch):
    data_path, _ = _affinity_config(tmp_path, {})
    data = parse_csv_dataset(data_path)
    blocks = list(affinity_blocks(data, perplexity=5.0))

    def csv_blocks(sigma_sq):
        return eos.cli._affinity_blocks(affinity_blocks(data, perplexity=5.0), 15, sigma_sq)

    # Four anchors per block: 15 anchors make three full blocks and one of three.
    monkeypatch.setattr(eos.cli, "_BLOCK_FLOATS", 4 * 14)
    sigma_sq = []
    assert [len(cells) for _, cells in csv_blocks(sigma_sq)] == [56, 56, 56, 42]
    assert sigma_sq == [s for _, _, block_sigma_sq in blocks for s in block_sigma_sq.tolist()]
    pooled = _spy_on_pool(monkeypatch)
    written = []
    for processes in (1, 2, 3):
        path = tmp_path / f"affinity-{processes}.csv"
        eos.cli._write_csv(path, ["row_index", "col_index", "value"],
                           csv_blocks([]), processes=processes)
        written.append(path.read_bytes())
    assert pooled == [4, 6]
    expected = _oracle_csv(
        ["row_index", "col_index", "value"],
        [[i, j, float(v)] for anchors, values, _ in blocks for i, row in zip(anchors, values)
         for j, v in zip([j for j in range(15) if j != i], row)],
    )
    assert written == [expected] * 3


def _failing_blocks(tmp_path, last):
    """Three weights.csv blocks, then ``last``: a block, or an exception to raise."""
    weights, flags = _weight_data(3 * 4096)
    yield from eos.cli._weight_blocks("%d,%r,%d\n", weights, flags)
    assert list(tmp_path.glob("*.tmp")), "the failure should strike while the file is being written"
    if isinstance(last, Exception):
        raise last
    yield last


@pytest.mark.parametrize(
    "last, error, match",
    [(OSError("disk full"), OSError, "disk full"),
     (("%r,%r\n", (0.5,)), TypeError, "not enough arguments for format string")],
    ids=["rows-raise", "worker-raises"],
)
def test_failed_pooled_write_leaves_no_file_and_no_process(tmp_path, monkeypatch, last, error,
                                                          match):
    import multiprocessing

    pooled = _spy_on_pool(monkeypatch)
    with pytest.raises(error, match=match):
        eos.cli._write_csv(tmp_path / "weights.csv", ["index", "weight", "flag"],
                           _failing_blocks(tmp_path, last), processes=2)
    assert pooled == [4]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_writer_formats_in_process_without_fork_or_a_second_cpu(tmp_path, monkeypatch):
    import multiprocessing

    weights, flags = _weight_data(100)
    pooled = _spy_on_pool(monkeypatch)
    # The fewest anchors whose affinity.csv reaches the cut-off, and one fewer.
    large = next(t for t in range(2, 10**4) if t * (t - 1) >= eos.cli._POOL_MIN_FLOATS)
    small = large - 1

    def write(processes):
        path = tmp_path / "weights.csv"
        eos.cli._write_csv(path, ["index", "weight", "flag"],
                           eos.cli._weight_blocks("%d,%r,%d\n", weights, flags),
                           processes=processes)
        return path.read_bytes()

    with pytest.raises(TypeError):  # a size passed positionally cannot become a worker count
        eos.cli._write_csv(tmp_path / "no.csv", ["index"], [], 10**9)
    serial = write(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert eos.cli._affinity_processes(large) == 2
    assert eos.cli._affinity_processes(small) == 1
    assert write(eos.cli._affinity_processes(large)) == serial and pooled == [4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert eos.cli._affinity_processes(10**6) == 2  # two workers at most
    assert write(eos.cli._affinity_processes(10**6)) == serial and pooled == [4, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert eos.cli._affinity_processes(10**6) == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert write(2) == serial and pooled == [4, 4]
    assert multiprocessing.active_children() == []


def _policy_config(tmp_path, command):
    if command == "affinity":
        return _affinity_config(tmp_path, {"perplexity": 5.0})[1]
    if command == "robust-train":
        return _robust_train_config(tmp_path, robust_train={"alpha": 1.0})
    if command == "synth-bench":
        return _write_config(tmp_path / "cfg.json", {
            "command": command, "output_dir": str(tmp_path / "out"),
            "synth_bench": {"t": 150, "d": 3, "n_seeds": 2},
        })
    data_path = _write_csv(tmp_path / "data.csv", np.random.default_rng(6).standard_normal((40, 3)))
    return _write_config(tmp_path / "cfg.json", {
        "command": command, "input_path": str(data_path), "output_dir": str(tmp_path / "out"),
    })


@pytest.mark.parametrize(
    "command, pools",
    [("affinity", True), ("detect", False), ("robust-train", False), ("synth-bench", False)],
)
def test_only_affinity_csv_is_formatted_by_workers(tmp_path, monkeypatch, command, pools):
    import multiprocessing

    cfg_path = _policy_config(tmp_path, command)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(eos.cli, "_POOL_MIN_FLOATS", 1)
    pooled = _spy_on_pool(monkeypatch)
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    assert pooled == ([4] if pools else [])
    assert multiprocessing.active_children() == []
