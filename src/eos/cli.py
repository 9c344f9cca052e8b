"""Command-line experiment runner with serialized, reproducible reports.

A single JSON config selects one of six commands (detect, affinity,
robust-train, synth-bench, mislabel-bench, timing) and carries one section
per module.  Each section is a frozen dataclass, and one parser reads any
of them from its field annotations and defaults; unknown keys and values of
the wrong type are rejected with the key path.  Each command is a thin
layer over public library functions.  Every run writes ``report.json``
with the full effective config, plus command-specific CSVs; identical
config and seed reproduce identical numeric outputs (wall-clock timings
and timestamps excluded).  affinity streams its rows into ``affinity.csv``
one block of anchors at a time, so no T x (T-1) matrix is held; a row that
fails leaves no ``affinity.csv``.  From 200,000 floats on, where fork exists
and a second CPU is usable, the anchors are split in two halves: this
process computes and writes the first, and one forked child the second,
with the same bytes as one process.  No other output is written by a child,
and no option or environment variable sets the split.

robust-train without ``robust_train.alpha`` selects alpha with
``select_alpha``, whose fits use ``eos.tol`` and ``eos.max_iters`` but
always start from uniform weights: ``eos.init_policy`` and ``seed`` apply
only when ``robust_train.alpha`` is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import pickle
import signal
import sys
import tempfile
import types
import typing
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .affinity import affinity_blocks
from .anomaly import FlagRule, calibrate_alpha, check_flag_rule, detect, flag_outliers
from .bench import SyntheticSpec, run_synth_benchmark, timing_probe_wstep, timing_ratios
from .core import EosConfig, InitPolicy
from .data import Dataset
from .dataio import parse_csv_dataset
from .exceptions import EosError, InvalidConfigError, ParseError
from .supervised import (
    MislabelExperimentConfig,
    auc,
    mislabel_experiment,
    predict_proba,
    robust_fit,
    select_alpha,
    summarize_mislabel,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config sections (strict parsing: unknown keys are errors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EosSection:
    alpha: float = 1.0
    tol: float = EosConfig.tol
    max_iters: int = EosConfig.max_iters
    init_policy: InitPolicy = EosConfig.init_policy

    def build(self, seed: int) -> EosConfig:
        return EosConfig(**dataclasses.asdict(self), seed=seed)


@dataclass(frozen=True)
class CsvSection:
    label_column: str | None = None
    drop_columns: tuple[str, ...] = ()
    label_map: dict[str, int] | None = None


@dataclass(frozen=True)
class DetectSection:
    rule: FlagRule = FlagRule.RELATIVE_THRESHOLD
    rule_param: float = 0.1
    calibrate_ess_fraction: float | None = None


@dataclass(frozen=True)
class AffinitySection:
    sigma_sq: float | None = None
    alpha: float | None = None
    perplexity: float | None = None


@dataclass(frozen=True)
class RobustTrainSection:
    l2_strength: float = MislabelExperimentConfig.l2_strength
    alpha: float | None = None
    alpha_grid: tuple[float, ...] = MislabelExperimentConfig.alpha_grid


@dataclass(frozen=True)
class SynthBenchSection:
    t: int = SyntheticSpec.T
    d: int = SyntheticSpec.D
    outlier_fraction: float = SyntheticSpec.outlier_fraction
    box_low: float = SyntheticSpec.outlier_box_low
    box_high: float = SyntheticSpec.outlier_box_high
    n_seeds: int = 50
    quantile: float = 0.975
    ess_target: float = 0.95


@dataclass(frozen=True)
class MislabelSection:
    flip_proportions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    n_splits: int = MislabelExperimentConfig.n_splits
    train_fraction: float = MislabelExperimentConfig.train_fraction
    alpha_grid: tuple[float, ...] = MislabelExperimentConfig.alpha_grid
    l2_strength: float = MislabelExperimentConfig.l2_strength
    task_size: int = 400
    task_dim: int = 5


@dataclass(frozen=True)
class TimingSection:
    t_grid: tuple[int, ...] = (100_000, 200_000, 400_000)
    d_grid: tuple[int, ...] = (2, 20, 200)
    repeats: int = 9
    fixed_t: int = 100_000


@dataclass(frozen=True)
class RunConfig:
    command: str
    output_dir: str = "eos-output"
    input_path: str | None = None
    seed: int = 0
    eos: EosSection = field(default_factory=EosSection)
    csv: CsvSection = field(default_factory=CsvSection)
    detect: DetectSection = field(default_factory=DetectSection)
    affinity: AffinitySection = field(default_factory=AffinitySection)
    robust_train: RobustTrainSection = field(default_factory=RobustTrainSection)
    synth_bench: SynthBenchSection = field(default_factory=SynthBenchSection)
    mislabel_bench: MislabelSection = field(default_factory=MislabelSection)
    timing: TimingSection = field(default_factory=TimingSection)

    def __post_init__(self) -> None:
        if self.command not in _RUNNERS:
            raise InvalidConfigError(
                f"command must be one of {list(_RUNNERS)}, got {self.command!r}"
            )
        self.eos.build(self.seed)  # checks the seed and eos section, whatever the command

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _parse(cls, data, "")

    def to_dict(self) -> dict:
        return _jsonify(self)


# JSON scalar types by the annotation they fill, with the name used in errors.
_SCALARS = {float: "a number in the float range", int: "an integer", str: "a string"}


def _parse(cls, data, path: str):
    """Build dataclass ``cls`` from a JSON object, field by annotated field.

    Absent keys take the field's default; unknown and missing required keys
    are errors, as is any value whose type does not match the annotation.
    ``path`` is the section's key path, empty at the root.
    """
    section = path or "<root>"
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config section {section!r} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise InvalidConfigError(f"unknown key(s) {unknown} in config section {section!r}")
    prefix = f"{path}." if path else ""
    for name, f in fields.items():
        if name not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise InvalidConfigError(f"{prefix}{name} is required")
    hints = typing.get_type_hints(cls)
    kwargs = {key: _parse_value(hints[key], value, prefix + key) for key, value in data.items()}
    return cls(**kwargs)


def _parse_value(tp, value, path: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # T | None
        return None if value is None else _parse_value(args[0], value, path)
    if origin is tuple:  # tuple[T, ...]
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{path} must be a list, got {value!r}")
        return tuple(_parse_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:  # dict[str, T]; JSON object keys are always strings
        if not isinstance(value, dict):
            raise InvalidConfigError(f"{path} must be an object, got {value!r}")
        return {k: _parse_value(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if dataclasses.is_dataclass(tp):
        return _parse(tp, value, path)
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise InvalidConfigError(
                f"{path} must be one of {[member.value for member in tp]}, got {value!r}"
            ) from None
    accepted = (int, float) if tp is float else tp
    if isinstance(value, accepted) and not isinstance(value, bool):
        try:
            return tp(value)
        except OverflowError:  # a JSON integer beyond the float range
            pass
    raise InvalidConfigError(f"{path} must be {_SCALARS[tp]}, got {value!r}")


def _jsonify(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` into a temp file beside ``path``, then rename it over ``path``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# A block of CSV rows is ``template % cells``: ``%r`` (``repr``, the shortest
# text that reads back as the same float) for a float cell and ``%s`` or ``%d``
# for the rest.  Cells are numbers and fixed identifiers, so none needs quoting.
_Block = tuple[str, tuple]

# Float cells per block: weights.csv rows per block, and affinity.csv's T - 1
# values per anchor times anchors per block (at least one).
_BLOCK_FLOATS = 4096
# From this many float cells on, affinity.csv's anchors are split in two
# contiguous halves: this process computes, formats and writes the first, and
# one forked child the second, into a part file copied in after the first
# half.  The child inherits the data through fork and sends back only its
# sigma_sq list, so no row is pickled.  Whole runs on two cores, perplexity 30,
# D = 10, rounds of alternating order: at T = 448, the fewest anchors at the
# cut-off, the split took a median 0.263 s, one process 0.254 s and the pool
# of two formatting workers the split replaced 0.305 s; at T = 600, 0.291,
# 0.504 and 0.422 s (16 rounds each).  perfbench's affinity-perplexity
# (T = 1000) ran split in a median 0.881 s against 1.073 s pooled at seed 7,
# and 0.865 against 1.040 s at seed 23, faster in 10 of 10 pairs at each.
# weights.csv is written in-process at any size: detect with 100,000 to
# 400,000 rows was faster pooled in only 9 of 22 pairs.
_POOL_MIN_FLOATS = 200_000
# Characters per read when the child's part is copied into affinity.csv.
_COPY_CHARS = 2**20


def _format_block(block: _Block) -> str:
    template, cells = block
    return template % cells


def _affinity_processes(t: int) -> int:
    """Processes that write affinity.csv of ``t`` anchors: 2, this one and one
    forked child, from ``_POOL_MIN_FLOATS`` floats on where fork exists and a
    second CPU is usable, else 1."""
    if t * (t - 1) < _POOL_MIN_FLOATS or not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, 2)


def _csv_text(header: list[str], blocks: Iterable[_Block]) -> Iterator[str]:
    """The header line, then each block formatted as ``template % cells``, drawn lazily."""
    return itertools.chain([",".join(header) + "\n"], map(_format_block, blocks))


def _write_csv(path: Path, header: list[str], blocks: Iterable[_Block]) -> None:
    """Write a CSV atomically from blocks of rows, drawn while the temp file is open."""
    _atomic_write(path, _csv_text(header, blocks))


class WorkerError(EosError, RuntimeError):
    """A forked process ended without reporting its result."""


def _write_with_child(path: Path, chunks: Iterable[str],
                      part: Callable[[typing.TextIO], object]) -> object:
    """Write ``chunks``, then the text ``part(handle)`` writes, into ``path``
    atomically, with ``part`` run at the same time in one forked child; return
    what ``part`` returned.

    The child writes into a temp part file beside ``path`` and sends its
    result, or the exception it raised, pickled through a pipe.  Once
    ``chunks`` are written, the result is read, the child reaped and the part
    copied in.  An error in ``chunks`` wins over the child's, the child's is
    raised here, and a child that ends without a result raises
    ``WorkerError`` naming its exit status.  No child and no part file
    outlives the call.
    """
    fd, part_path = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".part")
    os.close(fd)
    pid, result = 0, None
    try:
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as pipe, os.fdopen(write_end, "wb") as report:
            pid = os.fork()
            if pid == 0:
                _child(part, part_path, report)
            report.close()  # the child holds the only write end, so its exit ends the read

            def text() -> Iterator[str]:
                nonlocal pid, result
                yield from chunks
                payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                pid = 0
                result = _child_result(payload, status, path)
                with open(part_path, encoding="utf-8") as handle:
                    yield from iter(functools.partial(handle.read, _COPY_CHARS), "")

            _atomic_write(path, text())
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.unlink(part_path)
    return result


def _child(part: Callable[[typing.TextIO], object], part_path: str,
           report: typing.BinaryIO) -> typing.NoReturn:
    """The forked child of ``_write_with_child``.  It leaves by ``os._exit`` on
    every path, so it never unwinds into the parent's stack or flushes the
    buffers it inherited; status 0 means the result was sent."""
    status = 1
    try:
        try:
            with open(part_path, "w", encoding="utf-8") as handle:
                result = part(handle)
        except BaseException as exc:  # sent to the parent, which raises it
            result = exc
        report.write(pickle.dumps(result))
        report.flush()
        status = 0
    finally:
        os._exit(status)


def _child_result(payload: bytes, status: int, path: Path) -> object:
    """The result a child of ``_write_with_child`` sent; raise the exception it sent."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        ending = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise WorkerError(f"the process writing part of {path.name} {ending} "
                          "before reporting its result")
    result = pickle.loads(payload)
    if isinstance(result, BaseException):
        raise result
    return result


def _weight_blocks(row: str, *columns: np.ndarray) -> Iterator[_Block]:
    """Blocks of ``_BLOCK_FLOATS`` rows ``index,column...``, each row formatted by ``row``.

    ``row`` is the one-row template: ``"%d,%r,%d\n"`` writes a weight and a
    flag as 0 or 1, ``"%d,%r\n"`` a weight alone.
    """
    width = 1 + len(columns)
    template = row * _BLOCK_FLOATS
    t = columns[0].shape[0]
    for start in range(0, t, _BLOCK_FLOATS):
        stop = min(start + _BLOCK_FLOATS, t)
        cells = [None] * (width * (stop - start))
        cells[0::width] = range(start, stop)
        for k, column in enumerate(columns, 1):
            cells[k::width] = column[start:stop].tolist()
        yield template[:len(row) * (stop - start)], tuple(cells)


def _affinity_blocks(blocks: Iterable[tuple[range, np.ndarray, np.ndarray]], t: int,
                     row_sigma_sq: list[float]) -> Iterator[_Block]:
    """affinity.csv's blocks of whole anchors, rows ``anchor,neighbor,repr(value)``,
    cut from the anchor blocks of ``affinity_blocks``.  Each anchor's sigma_sq
    is appended to ``row_sigma_sq`` as its block is drawn."""
    cells = [f"{j},%r\n" for j in range(t)]

    def anchor_template(i: int) -> str:
        prefix = f"{i},"
        return prefix + prefix.join(cells[:i] + cells[i + 1:])

    size = max(1, _BLOCK_FLOATS // (t - 1))
    for anchors, values, sigma_sq in blocks:
        row_sigma_sq.extend(sigma_sq.tolist())
        for start in range(0, len(anchors), size):
            yield ("".join(map(anchor_template, anchors[start:start + size])),
                   tuple(values[start:start + size].ravel().tolist()))


def _csv_row(*cells) -> _Block:
    """One CSV row as a block; None is written as an empty cell."""
    template = ",".join("" if c is None else "%r" if isinstance(c, float) else "%s" for c in cells)
    return template + "\n", tuple(c for c in cells if c is not None)


def _write_report(out_dir: Path, config: RunConfig, results: dict) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "software_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "command": config.command,
        "config": config.to_dict(),
        "results": _jsonify(results),
    }
    _atomic_write(out_dir / "report.json", [json.dumps(report, indent=2, sort_keys=True) + "\n"])


def _load_input(config: RunConfig, *, require_labels: bool) -> Dataset:
    if config.input_path is None:
        raise InvalidConfigError(f"command {config.command!r} requires input_path")
    data = parse_csv_dataset(
        config.input_path,
        label_column=config.csv.label_column,
        drop_columns=config.csv.drop_columns,
        label_map=config.csv.label_map,
    )
    if require_labels and data.labels is None:
        raise InvalidConfigError(
            f"command {config.command!r} requires a label column (set csv.label_column)"
        )
    return data


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_detect(config: RunConfig, out_dir: Path) -> dict:
    eos_cfg = config.eos.build(config.seed)
    section = config.detect
    check_flag_rule(section.rule, section.rule_param)  # before the input is read
    data = _load_input(config, require_labels=False)
    calibration = None
    if section.calibrate_ess_fraction is None:
        report = detect(data, eos_cfg, section.rule, section.rule_param)
    else:
        calibration = calibrate_alpha(data, section.calibrate_ess_fraction, eos_cfg)
        report = flag_outliers(
            data, calibration.fit, calibration.alpha, section.rule, section.rule_param
        )
    _write_csv(out_dir / "weights.csv", ["index", "weight", "flag"],
               _weight_blocks("%d,%r,%d\n", report.weights, report.flags))
    return {
        "T": data.n_instances,
        "D": data.n_features,
        "alpha_used": report.alpha_used,
        "calibration": None if calibration is None else {
            key: getattr(calibration, key)
            for key in ("alpha", "attained_fraction", "saturated", "path", "probe_fits", "monotone")
        },
        "rule": report.rule.value,
        "rule_param": report.rule_param,
        "n_flagged": report.n_flagged,
        "flagged_indices": np.flatnonzero(report.flags),
        "iterations": report.iterations,
        "termination": report.termination.value,
        "gaussian": report.gaussian,
    }


def _run_affinity(config: RunConfig, out_dir: Path) -> dict:
    data = _load_input(config, require_labels=False)
    section = config.affinity
    t = data.n_instances
    bandwidth = {"sigma_sq": section.sigma_sq, "alpha": section.alpha,
                 "perplexity": section.perplexity}

    def rows(anchors: range, row_sigma_sq: list[float]) -> Iterator[_Block]:
        # affinity_blocks checks its arguments as it is called, not as rows are drawn.
        blocks = affinity_blocks(data, **bandwidth, anchors=anchors)
        return _affinity_blocks(blocks, t, row_sigma_sq)

    path, header = out_dir / "affinity.csv", ["row_index", "col_index", "value"]
    row_sigma_sq: list[float] = []
    if _affinity_processes(t) == 1:
        _write_csv(path, header, rows(range(t), row_sigma_sq))
    else:
        cut = (t + 1) // 2
        first = _csv_text(header, rows(range(cut), row_sigma_sq))  # checked before the fork

        def second(handle: typing.TextIO) -> list[float]:
            second_sigma_sq: list[float] = []
            handle.writelines(map(_format_block, rows(range(cut, t), second_sigma_sq)))
            return second_sigma_sq

        row_sigma_sq += _write_with_child(path, first, second)
    mode = (
        "perplexity" if section.perplexity is not None
        else "alpha" if section.alpha is not None
        else "sigma_sq"
    )
    return {
        "T": data.n_instances,
        "mode": mode,
        "row_sigma_sq": row_sigma_sq,
    }


def _run_robust_train(config: RunConfig, out_dir: Path) -> dict:
    data = _load_input(config, require_labels=True)
    section = config.robust_train
    if section.alpha is not None:
        result = robust_fit(
            data, replace(config.eos.build(config.seed), alpha=section.alpha), section.l2_strength
        )
        alpha = section.alpha
    else:
        _, alpha, result = select_alpha(
            data, data, section.alpha_grid, section.l2_strength,
            tol=config.eos.tol, max_iters=config.eos.max_iters,
        )
    params = result.theta
    training_auc = auc(predict_proba(params, data.instances), data.labels)
    _write_csv(out_dir / "weights.csv", ["index", "weight"],
               _weight_blocks("%d,%r\n", result.weights))
    return {
        "T": data.n_instances,
        "D": data.n_features,
        "alpha_selected": alpha,
        "coefficients": params.coefficients,
        "intercept": params.intercept,
        "l2_strength": params.l2_strength,
        "training_auc": training_auc,
        "iterations": result.iterations,
        "termination": result.termination.value,
    }


def _run_synth_bench(config: RunConfig, out_dir: Path) -> dict:
    section = config.synth_bench
    spec = SyntheticSpec(
        T=section.t,
        D=section.d,
        outlier_fraction=section.outlier_fraction,
        outlier_box_low=section.box_low,
        outlier_box_high=section.box_high,
        seed=config.seed,
    )
    outcome = run_synth_benchmark(
        spec,
        section.n_seeds,
        ess_target=section.ess_target,
        quantile=section.quantile,
        config=config.eos.build(config.seed),
    )
    metrics = ("precision_eos_topk", "precision_chi2_mle", "precision_chi2_robust", "alpha")
    rows = [_csv_row("synth-bench", row["seed"], metric, row[metric])
            for row in outcome["rows"] for metric in metrics]
    _write_csv(out_dir / "metrics.csv", ["experiment", "seed", "metric", "value"], rows)
    return {"spec": spec, "rows": outcome["rows"], "reports": outcome["reports"]}


def _run_mislabel_bench(config: RunConfig, out_dir: Path) -> dict:
    section = config.mislabel_bench
    experiments: dict[str, MislabelExperimentConfig] = {}
    for p in section.flip_proportions:
        key = f"{p:g}"
        if key in experiments:
            raise InvalidConfigError(
                f"mislabel_bench.flip_proportions {experiments[key].flip_proportion!r} and "
                f"{p!r} are both reported as {key!r}; give distinct proportions"
            )
        experiments[key] = MislabelExperimentConfig(
            flip_proportion=p,
            n_splits=section.n_splits,
            train_fraction=section.train_fraction,
            seed=config.seed,
            alpha_grid=section.alpha_grid,
            l2_strength=section.l2_strength,
        )
    data = _load_input(config, require_labels=True) if config.input_path is not None else None

    per_p: dict[str, dict] = {}
    rows: list[_Block] = []
    for key, cfg in experiments.items():
        outcomes = mislabel_experiment(cfg, data, task_size=section.task_size,
                                       task_dim=section.task_dim)
        per_p[key] = {**summarize_mislabel(outcomes), "outcomes": outcomes}
        experiment = f"mislabel_p={key}"
        for split, o in enumerate(outcomes):
            for metric in ("auc_plain", "auc_robust", "alpha_selected"):
                rows.append(_csv_row(experiment, split, metric, getattr(o, metric)))
    _write_csv(out_dir / "metrics.csv", ["experiment", "seed", "metric", "value"], rows)
    return {"per_p": per_p, "source": "csv" if data is not None else "synthetic"}


def _run_timing(config: RunConfig, out_dir: Path) -> dict:
    section = config.timing
    rows = timing_probe_wstep(
        list(section.t_grid),
        list(section.d_grid),
        section.repeats,
        fixed_t=section.fixed_t,
        seed=config.seed,
    )
    _write_csv(out_dir / "timing.csv", ["axis", "T", "D", "median_s", "iqr_s", "repeats"],
               [_csv_row(r["axis"], r["T"], r["D"], r["median_s"], r["iqr_s"], r["repeats"])
                for r in rows])
    return {"rows": rows, "ratios": timing_ratios(rows)}


_RUNNERS = {
    "detect": _run_detect,
    "affinity": _run_affinity,
    "robust-train": _run_robust_train,
    "synth-bench": _run_synth_bench,
    "mislabel-bench": _run_mislabel_bench,
    "timing": _run_timing,
}


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute the configured command, writing report.json and CSVs."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not quiet:
        print(f"eos {config.command}: seed={config.seed} output={out_dir}")
    results = _RUNNERS[config.command](config, out_dir)
    _write_report(out_dir, config, results)
    if not quiet:
        print(f"eos {config.command}: wrote {out_dir / 'report.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eos",
        description="Run entropic-outlier-sparsification experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output", default=None, help="override the output directory")
    parser.add_argument("--alpha", type=float, default=None, help="override the fit alpha")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:  # missing, a directory, or not readable
            raise ParseError(f"config file {args.config} cannot be read: {exc.strerror}") from None
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
            raise ParseError(f"config file {args.config} is not valid JSON: {exc}") from None
        config = RunConfig.from_dict(raw)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.output is not None:
            config = replace(config, output_dir=args.output)
        if args.alpha is not None:
            config = replace(config, eos=replace(config.eos, alpha=args.alpha))
        return run(config, quiet=args.quiet)
    except EosError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 2 if isinstance(exc, (InvalidConfigError, ParseError)) else 1


if __name__ == "__main__":
    sys.exit(main())
