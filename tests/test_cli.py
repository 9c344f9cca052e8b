from __future__ import annotations

import ast
import csv
import io
import json
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
    EosConfig,
    FlagRule,
    InvalidConfigError,
    MislabelExperimentConfig,
    affinity_rows,
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
    [(0.95, False), (1.0, False), (0.5, True)],
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


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "cfg.json", {"command": "detect", "junk": True})
    assert main(["--config", str(cfg_path), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"]["type"] == "InvalidConfigError"


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "--quiet"]) == 2
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


@pytest.mark.parametrize(
    "command, section",
    [
        ("synth-bench", {"synth_bench": {"t": 150, "d": 3, "n_seeds": 2}}),
        (
            "mislabel-bench",
            {"mislabel_bench": {"flip_proportions": [0.2], "n_splits": 3, "task_size": 80,
                                "task_dim": 2}},
        ),
    ],
    ids=["synth-bench", "mislabel-bench"],
)
def test_eos_threads_env(tmp_path, monkeypatch, command, section):
    cfg = {"command": command, "output_dir": str(tmp_path / "serial"), "seed": 2, **section}
    cfg_path = _write_config(tmp_path / "cfg.json", cfg)
    monkeypatch.delenv("EOS_THREADS", raising=False)
    assert main(["--config", str(cfg_path), "--quiet"]) == 0
    monkeypatch.setenv("EOS_THREADS", "2")
    assert main(["--config", str(cfg_path), "--quiet", "--output", str(tmp_path / "par")]) == 0
    serial = _report(tmp_path / "serial")["results"]
    parallel = _report(tmp_path / "par")["results"]
    assert serial == parallel
    metrics = "metrics.csv"
    assert (tmp_path / "serial" / metrics).read_bytes() == (tmp_path / "par" / metrics).read_bytes()

    monkeypatch.setenv("EOS_THREADS", "zero")
    assert main(["--config", str(cfg_path), "--quiet", "--output", str(tmp_path / "bad")]) == 2


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats takes most of a second to import and the library needs none of it.
    code = "import sys, eos.cli; print('scipy.stats' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


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
    rows = affinity_rows(parse_csv_dataset(data_path), **section)
    expected = _oracle_csv(
        ["row_index", "col_index", "value"],
        [[row.anchor_index, int(j), float(v)]
         for row in rows for j, v in zip(row.neighbor_indices(), row.values)],
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
    real = eos.cli.affinity_rows
    open_during_failure = []

    def failing_rows(*args, **kwargs):
        rows = real(*args, **kwargs)

        def partway():
            yield from rows[:5]
            open_during_failure.extend(p.name for p in out.glob("affinity.csv*.tmp"))
            raise OSError("disk full")

        return partway()

    monkeypatch.setattr(eos.cli, "affinity_rows", failing_rows)
    with pytest.raises(OSError, match="disk full"):
        main(["--config", str(cfg_path), "--quiet"])
    assert open_during_failure, "the failure should strike while the file is being written"
    assert sorted(p.name for p in out.iterdir()) == []
