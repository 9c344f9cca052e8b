from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import math
import os
import signal
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
    # never call it; no eos command imports multiprocessing or concurrent.futures.
    code = ("import sys, eos, eos.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'multiprocessing', 'concurrent.futures') "
            "or m.startswith('scipy.')))")
    assert _run_fresh(code) == "[]"


def test_split_affinity_run_loads_no_pool_modules(tmp_path):
    # A whole affinity run that splits its anchors with a forked child, in a
    # fresh interpreter, imports neither pool module; src/eos names neither.
    data_path = _write_csv(tmp_path / "data.csv",
                           np.random.default_rng(2).standard_normal((448, 3)))
    cfg_path = _write_config(tmp_path / "cfg.json", {
        "command": "affinity", "input_path": str(data_path), "output_dir": str(tmp_path / "out"),
        "affinity": {"perplexity": 30.0},
    })
    code = f"""
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
import eos.cli
assert eos.cli._affinity_processes(448) == 2
assert eos.cli.main(["--config", {str(cfg_path)!r}, "--quiet"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    assert _run_fresh(code) == "[]"
    assert (tmp_path / "out" / "affinity.csv").stat().st_size > 0
    for path in (Path(__file__).resolve().parents[1] / "src" / "eos").glob("*.py"):
        source = path.read_text(encoding="utf-8")
        for name in ("multiprocessing", "concurrent.futures", "ProcessPoolExecutor"):
            assert name not in source, f"{path.name} names {name}"


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


def _spy_on_fork(monkeypatch):
    """The pids of the children ``os.fork`` starts, as the parent sees them."""
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _open_fds():
    """This process's open file descriptors, or None where /proc is absent."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@contextlib.contextmanager
def _leaves_nothing(directory):
    """Assert that the block leaves no child process, no file descriptor it
    opened, and no ``.part`` or ``.tmp`` file in ``directory``."""
    fds = _open_fds()
    yield
    assert _no_child_left()
    assert _open_fds() == fds
    assert not [p.name for p in directory.glob("*") if p.suffix in (".part", ".tmp")]


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# The fewest anchors whose affinity.csv reaches the cut-off for a split.
_CUT_OFF_T = 448

_SECTIONS = [{"perplexity": 5.0}, {"alpha": 0.8}, {"sigma_sq": 0.4}]


@pytest.mark.parametrize("section", _SECTIONS, ids=["perplexity", "alpha", "sigma_sq"])
@pytest.mark.parametrize(
    "t, min_floats", [(_CUT_OFF_T, None), (_CUT_OFF_T + 1, None), (15, 1)],
    ids=["cut-off", "odd", "one-block-halves"],
)
def test_affinity_csv_identical_in_one_and_two_parts(tmp_path, monkeypatch, section, t,
                                                     min_floats):
    # An odd T splits into halves of 225 and 224 anchors, the second starting
    # inside a block of the whole; at T = 15, with the cut-off lowered, each
    # half is a single block.
    if min_floats is not None:
        monkeypatch.setattr(eos.cli, "_SPLIT_MIN_FLOATS", min_floats)
    data_path = _write_csv(tmp_path / "data.csv", np.random.default_rng(t).standard_normal((t, 3)))
    cfg_path = _write_config(tmp_path / "cfg.json", {
        "command": "affinity", "input_path": str(data_path), "affinity": section,
    })
    forks = _spy_on_fork(monkeypatch)
    runs = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"out-{cpus}"
        assert main(["--config", str(cfg_path), "--output", str(out), "--quiet"]) == 0
        assert len(forks) == cpus - 1
        assert _no_child_left()
        assert sorted(p.name for p in out.iterdir()) == ["affinity.csv", "report.json"]
        runs.append(((out / "affinity.csv").read_bytes(), _report(out)["results"]["row_sigma_sq"]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == t


def _late_fault_config(tmp_path, *groups):
    """An affinity run at perplexity 1.5 over 450 anchors: anchors 0 to 224
    are the CLI process's, 225 to 449 the child's.  The anchors of each group
    coincide, so each has two neighbors at distance 0 and cannot reach
    perplexity 1.5.  Each group lies far from the rest, so no other anchor
    has them as nearest."""
    x = np.random.default_rng(8).standard_normal((450, 3))
    for group, where in zip(groups, (100.0, -100.0)):
        x[group] = where
    data_path = _write_csv(tmp_path / "data.csv", x)
    return _write_config(tmp_path / "cfg.json", {
        "command": "affinity", "input_path": str(data_path), "output_dir": str(tmp_path / "out"),
        "affinity": {"perplexity": 1.5},
    })


def _failed_run(cfg_path, capsys, *args):
    """The JSON error of a run that exits 1."""
    assert main(["--config", str(cfg_path), "--quiet", *args]) == 1
    return json.loads(capsys.readouterr().err)["error"]


def test_late_calibration_error_in_the_childs_half_leaves_nothing(tmp_path, monkeypatch, capsys):
    # The faulty anchors 447 to 449 are the child's, and the error names the
    # first of them, as one process does, after the first half was written.
    cfg_path = _late_fault_config(tmp_path, slice(447, None))
    _use_cpus(monkeypatch, 1)
    alone = _failed_run(cfg_path, capsys, "--output", str(tmp_path / "alone"))
    _use_cpus(monkeypatch, 2)
    forks = _spy_on_fork(monkeypatch)
    with _leaves_nothing(tmp_path / "out"):
        error = _failed_run(cfg_path, capsys)
    assert error["type"] == "CalibrationError"
    assert error["message"].startswith("anchor 447: target perplexity 1.5 below")
    assert error == alone
    assert len(forks) == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_errors_in_both_halves_name_the_lower_anchor(tmp_path, monkeypatch, capsys):
    cfg_path = _late_fault_config(tmp_path, slice(447, None), slice(10, 13))
    _use_cpus(monkeypatch, 2)
    forks = _spy_on_fork(monkeypatch)
    with _leaves_nothing(tmp_path / "out"):
        error = _failed_run(cfg_path, capsys)
    assert error["type"] == "CalibrationError"
    assert error["message"].startswith("anchor 10: target perplexity 1.5 below")
    assert len(forks) == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_killed_child_has_its_anchors_drawn_in_process(tmp_path, monkeypatch):
    cfg_path = _late_fault_config(tmp_path)
    _use_cpus(monkeypatch, 1)
    alone = tmp_path / "alone"
    assert main(["--config", str(cfg_path), "--output", str(alone), "--quiet"]) == 0
    real = eos.cli.affinity_blocks
    test_pid = os.getpid()

    def killed_in_the_child(dataset, *, anchors, **bandwidth):
        # This process draws the second half too, once the child is gone.
        if anchors.start > 0 and os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(dataset, anchors=anchors, **bandwidth)

    monkeypatch.setattr(eos.cli, "affinity_blocks", killed_in_the_child)
    _use_cpus(monkeypatch, 2)
    forks = _spy_on_fork(monkeypatch)
    out = tmp_path / "out"
    with _leaves_nothing(out):
        assert main(["--config", str(cfg_path), "--quiet"]) == 0
    assert len(forks) == 1
    assert (out / "affinity.csv").read_bytes() == (alone / "affinity.csv").read_bytes()
    assert _report(out)["results"]["row_sigma_sq"] == _report(alone)["results"]["row_sigma_sq"]


_SPLIT_FAULTS = [None, "first-raises", "child-raises", "child-sends-nothing", "child-sends-short",
                 "fork-fails"]


@pytest.mark.parametrize("fault", _SPLIT_FAULTS)
def test_split_write_reports_the_child_and_leaves_no_file_or_process(tmp_path, monkeypatch,
                                                                     fault):
    path = tmp_path / "out.csv"
    test_pid = os.getpid()
    drawn_here = []

    def rows(anchors, sigma_sq):
        in_child = os.getpid() != test_pid
        if not in_child:
            drawn_here.append(anchors)
        for i in anchors:
            yield f"{i}\n"
            if i == 0:
                assert list(tmp_path.glob("out.csv*.part")) and list(tmp_path.glob("out.csv*.tmp"))
            if fault == "first-raises" and i == 1:  # wins over the child's error: its rows come first
                raise OSError("disk full")
            if fault in ("first-raises", "child-raises") and i == 4:
                raise InvalidConfigError(f"bad row {i}")
            if in_child and fault == "child-sends-nothing":
                os._exit(0)
            if not (in_child and fault == "child-sends-short" and i == 4):
                sigma_sq.append(i / 8)

    if fault == "fork-fails":
        def no_fork():
            raise OSError("no fork")
        monkeypatch.setattr(os, "fork", no_fork)
    sigma_sq = []
    with _leaves_nothing(tmp_path):
        if fault is None or fault.startswith("child-sends"):
            eos.cli._write_split(path, ["head"], 5, rows, sigma_sq)
        else:
            error, match = {
                "first-raises": (OSError, "disk full"),
                "child-raises": (InvalidConfigError, "bad row 4"),
                "fork-fails": (OSError, "no fork"),
            }[fault]
            with pytest.raises(error, match=match):
                eos.cli._write_split(path, ["head"], 5, rows, sigma_sq)
    if fault is None or fault.startswith("child-sends"):
        assert path.read_bytes() == b"head\n0\n1\n2\n3\n4\n"
        assert sigma_sq == [0.0, 0.125, 0.25, 0.375, 0.5]
        assert list(tmp_path.iterdir()) == [path]
        # The second half is drawn here only when the child does not send it whole.
        assert drawn_here == [range(3)] + ([range(3, 5)] if fault else [])
    else:
        assert list(tmp_path.iterdir()) == []
        if fault == "child-raises":  # raised here from the child's anchors, as one process does
            assert drawn_here == [range(3), range(3, 5)]


def test_affinity_is_split_only_with_fork_and_a_second_cpu(tmp_path, monkeypatch):
    t = _CUT_OFF_T
    assert t * (t - 1) >= eos.cli._SPLIT_MIN_FLOATS > (t - 1) * (t - 2)
    _use_cpus(monkeypatch, 2)
    assert eos.cli._affinity_processes(t) == 2
    assert eos.cli._affinity_processes(t - 1) == 1
    _use_cpus(monkeypatch, 64)
    assert eos.cli._affinity_processes(10**6) == 2  # one child at most
    data_path = _write_csv(tmp_path / "data.csv", np.random.default_rng(4).standard_normal((t, 3)))
    cfg_path = _write_config(tmp_path / "cfg.json", {
        "command": "affinity", "input_path": str(data_path), "affinity": {"alpha": 0.8},
    })
    forks = _spy_on_fork(monkeypatch)
    written = []
    for cpus, fork, processes in ((2, True, 2), (1, True, 1), (2, False, 1)):
        _use_cpus(monkeypatch, cpus)
        if not fork:  # any fork would now raise AttributeError
            monkeypatch.delattr(os, "fork")
        assert eos.cli._affinity_processes(t) == processes
        out = tmp_path / f"out-{cpus}-{fork}"
        assert main(["--config", str(cfg_path), "--output", str(out), "--quiet"]) == 0
        written.append((out / "affinity.csv").read_bytes())
    assert len(forks) == 1  # the first run's
    assert written[1:] == written[:1] * 2
    assert _no_child_left()


def _weight_data(t):
    rng = np.random.default_rng(t)
    return rng.dirichlet(np.ones(t)), rng.random(t) < 0.1


@pytest.mark.parametrize("t", [1, 4096, 4097, 10_001])
def test_weights_csv_matches_csv_writer_at_block_edges(tmp_path, t):
    weights, flags = _weight_data(t)
    path = tmp_path / "weights.csv"
    eos.cli._write_csv(path, ["index", "weight", "flag"],
                       eos.cli._weight_blocks("%d,%r,%d\n", weights, flags))
    expected = _oracle_csv(["index", "weight", "flag"],
                           [[i, float(w), int(f)] for i, (w, f) in enumerate(zip(weights, flags))])
    assert path.read_bytes() == expected


def test_affinity_csv_blocks_hold_whole_anchors(tmp_path, monkeypatch):
    data_path, _ = _affinity_config(tmp_path, {})
    data = parse_csv_dataset(data_path)
    blocks = list(affinity_blocks(data, perplexity=5.0))
    # Four anchors per block: 15 anchors make three full blocks and one of three.
    monkeypatch.setattr(eos.cli, "_BLOCK_FLOATS", 4 * 14)
    sigma_sq = []
    chunks = list(eos.cli._affinity_blocks(affinity_blocks(data, perplexity=5.0), 15, sigma_sq))
    anchors = [[int(line.split(",")[0]) for line in chunk.splitlines()] for chunk in chunks]
    assert [sorted(set(a)) for a in anchors] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11],
                                                 [12, 13, 14]]
    assert [len(a) for a in anchors] == [4 * 14, 4 * 14, 4 * 14, 3 * 14]  # whole anchors
    assert sigma_sq == [s for _, _, block_sigma_sq in blocks for s in block_sigma_sq.tolist()]
    path = tmp_path / "affinity.csv"
    eos.cli._write_csv(path, ["row_index", "col_index", "value"], chunks)
    expected = _oracle_csv(
        ["row_index", "col_index", "value"],
        [[i, j, float(v)] for anchors, values, _ in blocks for i, row in zip(anchors, values)
         for j, v in zip([j for j in range(15) if j != i], row)],
    )
    assert path.read_bytes() == expected


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
    "command, splits",
    [("affinity", True), ("detect", False), ("robust-train", False), ("synth-bench", False)],
)
def test_only_affinity_csv_is_split_with_a_child(tmp_path, monkeypatch, command, splits):
    cfg_path = _policy_config(tmp_path, command)
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(eos.cli, "_SPLIT_MIN_FLOATS", 1)
    forks = _spy_on_fork(monkeypatch)
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    assert len(forks) == (1 if splits else 0)
    assert _no_child_left()
