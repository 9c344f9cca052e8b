"""Benchmark of the eos CLI on the workloads of workloads.py.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The input is made from the seed.  Then, for about S seconds and at least
MIN_REPS times, a fresh child process with one BLAS thread imports
``eos.cli`` and runs the workload's command once through ``eos.cli.main``
and ``eos.cli.run``: a closed loop, one client, one command at a time.
This process checks each invocation's outputs as it ends, and prints a
table, a detail record with the environment, and as the last line one JSON
object with the metrics declared in BENCHMARK.json: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  With
``--trace 1`` every second invocation runs traced.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = {False: 3, True: 4}  # by trace: a traced run needs two of each kind
MAX_REPS = 100
CHILD_TIMEOUT_S = 120
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
IMPORTS = (
    "eos", "eos.affinity", "eos.anomaly", "eos.bench", "eos.cli", "eos.core", "eos.data",
    "eos.dataio", "eos.exceptions", "eos.models", "eos.supervised", "scipy.stats", "scipy.linalg",
)
# A quality metric the workload's command does not produce reads this
# constant, so it never moves there.  One the command should produce reads 0
# when no invocation passed its checks.
NOT_APPLICABLE = 1.0


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("EOS_THREADS", None)
    return env


def run_child(job: dict, work: Path, tag: str, importtime: bool = False) -> tuple[dict, str]:
    """One invocation in a fresh interpreter; returns its record and its stderr."""
    job = dict(job, result=str(work / f"result-{tag}.json"))
    job_path = work / f"job-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "child.py"), str(job_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {tag} did not finish within {CHILD_TIMEOUT_S} s") from None
    result = Path(job["result"])
    if proc.returncode != 0 or not result.exists():
        raise HarnessError(f"child {tag} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text(encoding="utf-8")), proc.stderr


def rep_problems(rep: dict) -> list[str]:
    problems = []
    if rep["exit_code"] != 0:
        problems.append(f"exit code {rep['exit_code']}")
    if rep["crash"]:
        problems.append("crashed: " + rep["crash"].strip().splitlines()[-1])
    for line in rep["stderr"].splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and "error" in payload:
            problems.append(f"error payload {payload['error']}")
    return problems


class Judge:
    """Checks each invocation's outputs; the first that passes is the reference.

    Every later invocation must reproduce the reference byte for byte
    (``report.json`` without ``created_at``).  The outputs are deleted once
    judged.
    """

    def __init__(self, inputs: workloads.Inputs, check) -> None:
        self.inputs, self.check = inputs, check
        self.reference: dict | None = None
        self.quality: dict = {}
        self.rows_written = 0

    def __call__(self, rep: dict, out: Path) -> list[str]:
        problems = rep_problems(rep)
        if not problems and not out.is_dir():
            problems.append("no output directory")
        if not problems:
            digests, rows = workloads.fingerprint(out)
            if self.reference is None:
                try:
                    quality, found = self.check(out, self.inputs)
                except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
                    quality, found = {}, [f"malformed output: {type(exc).__name__}: {exc}"]
                problems += found
                if not found:
                    self.reference, self.quality, self.rows_written = digests, quality, rows
            elif digests != self.reference:
                changed = sorted(k for k in set(digests) | set(self.reference)
                                 if digests.get(k) != self.reference.get(k))
                problems.append(f"outputs differ from the first invocation: {changed}")
        shutil.rmtree(out, ignore_errors=True)
        return problems


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list[dict], rows_written: int, imports: dict[str, float]) -> dict:
    """Per-layer metrics: counts from the first traced invocation, times as medians."""
    first = traced[0]["trace"]
    calls, values, nested = first["calls"], first["values"], first["nested"]

    def self_s(name: str) -> float:
        return median_or_zero([rep["trace"]["self_s"].get(name, 0.0) for rep in traced])

    def ratio(numerator: float, base: float) -> float:
        return numerator / base if base else 0.0

    out: dict[str, float] = {}
    for target in spans.TARGETS:
        out[f"{target.name}.calls"] = calls.get(target.name, 0)
        out[f"{target.name}.self_s"] = self_s(target.name)
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = sum(out[f"{t.name}.self_s"] for t in spans.TARGETS
                                     if t.layer == layer)
    out["core.fit.iterations"] = values.get(">core.fit.iterations", 0)
    out["core.fit.not_converged"] = values.get(">core.fit.not_converged", 0)
    out["anomaly.calibrate_alpha.fits_per_call"] = ratio(
        nested.get("anomaly.calibrate_alpha>core.fit", 0), calls.get("anomaly.calibrate_alpha", 0))
    out["affinity.steps_per_row"] = ratio(
        nested.get("affinity.calibrate_row_alpha>core.w_step", 0),
        calls.get("affinity.calibrate_row_alpha", 0))
    out["supervised.robust_fit.iterations_per_fit"] = ratio(
        values.get("supervised.robust_fit>core.fit.iterations", 0),
        calls.get("supervised.robust_fit", 0))
    parse_s = median_or_zero([rep["trace"]["total_s"].get("dataio.parse_csv_dataset", 0.0)
                              for rep in traced])
    out["dataio.parse_csv_dataset.rows"] = values.get(">dataio.parse_csv_dataset.rows", 0)
    out["dataio.rows_per_s"] = ratio(out["dataio.parse_csv_dataset.rows"], parse_s)
    out["cli.rows_written"] = rows_written
    for module in IMPORTS:
        out[f"import.{module}_s"] = imports.get(module, 0.0)
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    prepare, check = workloads.WORKLOADS[workload]
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = prepare(seed, work)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(inputs.config, sort_keys=True), encoding="utf-8")
        inputs.hashes[config_path.name] = workloads.sha256_file(config_path)
        out = work / "out"
        job = {"src": str(root / "src"), "config_path": str(config_path), "out_dir": str(out)}
        judge = Judge(inputs, check)
        reps: list[dict] = []
        imports: dict[str, float] = {}
        start = time.perf_counter()
        last = 0.0
        while len(reps) < MAX_REPS and (
            len(reps) < MIN_REPS[trace] or time.perf_counter() - start + last <= seconds
        ):
            began = time.perf_counter()
            traced = trace and len(reps) % 2 == 1
            rep, stderr = run_child(dict(job, trace=traced), work, str(len(reps)), traced)
            if traced and not imports:
                imports = spans.parse_importtime(stderr)
            rep["problems"] = judge(rep, out)
            reps.append(rep)
            last = time.perf_counter() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it
    return {"workload": workload, "inputs": inputs, "reps": reps, "judge": judge,
            "imports": imports}


def summarize(m: dict, trace: bool, declared: list[dict]) -> tuple[dict, dict]:
    """The declared metrics (values, units) and a detail record."""
    reps, judge = m["reps"], m["judge"]
    failed = sum(1 for rep in reps if rep["problems"])
    plain = [rep for rep in reps if not rep["traced"]]
    # A failed invocation did a different amount of work; time it only when
    # every invocation failed.
    plain_s = [rep["seconds"] for rep in plain if not rep["problems"]] or [
        rep["seconds"] for rep in plain]
    run_s = statistics.median(plain_s)
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        values = layer_metrics(traced, judge.rows_written, m["imports"])
        traced_s = statistics.median(rep["seconds"] for rep in traced)
        values.update({"trace.run_s": traced_s, "trace.untraced_run_s": run_s,
                       "trace.overhead_s": traced_s - run_s})
    else:
        values = {
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "success_rate": 1.0 - failed / len(reps),
        }
        for name in workloads.QUALITY_METRICS:
            applies = name in workloads.QUALITY[m["workload"]]
            values[name] = judge.quality.get(name, 0.0) if applies else NOT_APPLICABLE
    metrics = {spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
               for spec in declared}
    detail = {
        "attempted": len(reps),
        "failed": failed,
        "problems": [p for rep in reps for p in rep["problems"]][:20],
        "run_s_samples": len(plain_s),
        "run_s_max": max(plain_s),
        "rep_seconds": [round(rep["seconds"], 4) for rep in reps],
        "rep_cpu_seconds": [round(rep["cpu_seconds"], 4) for rep in reps],
        "setup_seconds": [round(rep["setup_s"], 4) for rep in reps],
        "input_sha256": m["inputs"].hashes,
        "environment": reps[0]["environment"],
        "absent_trace_targets": sorted({name for rep in reps for name in rep["absent"]}),
        "undeclared": {k: v for k, v in values.items() if k not in metrics},
        "declared_missing": sorted(s["name"] for s in declared if s["name"] not in values),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eos" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root, which must hold BENCHMARK.json "
              "and the eos source under src/", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)
    try:
        m = measure(args.workload, args.seed, args.seconds, trace, root)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, detail = summarize(m, trace, spec["per_layer" if trace else "end_to_end"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:>16.6g} {entry['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
