"""Tests of the benchmark harness.  Run: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _toy_package(monkeypatch, clock: list[float]):
    """toypkg.core defines outer and inner; toypkg.user binds outer again."""
    core = types.ModuleType("toypkg.core")
    user = types.ModuleType("toypkg.user")

    def inner():
        clock[0] += 2.0

    def outer():
        clock[0] += 1.0
        core.inner()
        core.inner()
        clock[0] += 3.0

    core.inner, core.outer, user.outer = inner, outer, outer
    monkeypatch.setitem(sys.modules, "toypkg.core", core)
    monkeypatch.setitem(sys.modules, "toypkg.user", user)
    return core, user


def test_self_time_subtracts_nested_spans(monkeypatch):
    clock = [0.0]
    core, user = _toy_package(monkeypatch, clock)
    tracer = spans.Tracer(clock=lambda: clock[0])
    targets = (spans.Target("toy", "toypkg.core", "outer"), spans.Target("toy", "toypkg.core", "inner"))
    assert spans.install(tracer, targets, package="toypkg") == []
    assert user.outer is core.outer  # both bindings wrapped
    user.outer()
    assert tracer.total_s["toy.outer"] == 8.0
    assert tracer.self_s["toy.outer"] == 4.0
    assert tracer.self_s["toy.inner"] == 4.0
    assert tracer.calls["toy.inner"] == 2
    assert tracer.nested["toy.outer>toy.inner"] == 2


def test_missing_trace_target_is_absent_and_run_goes_on(monkeypatch):
    clock = [0.0]
    core, user = _toy_package(monkeypatch, clock)
    tracer = spans.Tracer(clock=lambda: clock[0])
    targets = (spans.Target("toy", "toypkg.core", "outer"),
               spans.Target("toy", "toypkg.core", "folded_away"),
               spans.Target("toy", "toypkg.gone", "anything"))
    absent = spans.install(tracer, targets, package="toypkg")
    user.outer()
    assert absent == ["toy.folded_away", "toy.anything"]
    assert tracer.calls == {"toy.outer": 1}


def _forced_failure(tmp_path: Path) -> dict:
    """Two invocations of detect on an input path that does not exist."""
    config = {"command": "detect", "input_path": str(tmp_path / "missing.csv")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    job = {"src": str(ROOT / "src"), "config_path": str(config_path),
           "out_dir": str(tmp_path / "out"), "trace": False}
    inputs = workloads.Inputs(config, {"T": 10, "D": 2, "k": 1})
    judge = run.Judge(inputs, workloads.check_detect)
    reps = []
    for i in range(2):
        rep, _ = run.run_child(job, tmp_path, str(i))
        rep["problems"] = judge(rep, tmp_path / "out")
        reps.append(rep)
    return {"workload": "detect-large", "inputs": inputs, "reps": reps, "judge": judge,
            "imports": {}}


def test_forced_failure_counts_against_success_rate(tmp_path):
    measured = _forced_failure(tmp_path)
    assert [rep["exit_code"] for rep in measured["reps"]] == [2, 2]
    metrics, detail = run.summarize(measured, False, DECLARED["end_to_end"])
    assert (detail["attempted"], detail["failed"]) == (2, 2)
    assert metrics["success_rate"]["value"] == 0.0
    assert metrics["precision_topk"]["value"] == 0.0  # applies, but nothing passed
    assert metrics["perplexity_err"]["value"] == run.NOT_APPLICABLE
    assert any("ParseError" in problem for problem in detail["problems"])


def test_every_declared_layer_metric_is_produced():
    snapshot = spans.Tracer().snapshot()
    traced = [{"trace": snapshot}]
    produced = run.layer_metrics(traced, 0, {})
    produced.update({"trace.run_s": 1.0, "trace.untraced_run_s": 1.0, "trace.overhead_s": 0.0})
    declared = [spec["name"] for spec in DECLARED["per_layer"]]
    assert sorted(set(declared) - set(produced)) == []
    assert len(declared) == len(set(declared))


def _checkout(tmp_path: Path, with_source: bool) -> Path:
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    if with_source:
        shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return checkout


def _bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=170)


def test_printed_result_has_the_declared_shape(tmp_path):
    checkout = _checkout(tmp_path, with_source=True)
    proc = _bench(checkout, "--workload", "synth-small", "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = {spec["name"]: spec["unit"] for spec in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) and v["value"] > 0 for v in result["metrics"].values())
    assert not (checkout / ".perfbench_work").exists() or not any(
        (checkout / ".perfbench_work").iterdir())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    checkout = _checkout(tmp_path, with_source=False)
    proc = _bench(checkout, "--workload", "synth-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
