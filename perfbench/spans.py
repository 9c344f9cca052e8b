"""Per-layer spans recorded from outside the program.

Each target is a public function of one ``eos`` module.  ``install`` wraps
the function in every ``eos.*`` namespace that binds it (``w_step`` is bound
separately in ``eos.core``, ``eos.affinity`` and ``eos.bench``), so a call
is traced however the caller looked the name up.  A target that no longer
exists is recorded as absent instead of failing the run.

Spans nest on one stack: the program runs on one thread of execution while
it is traced (``EOS_THREADS`` unset).  A span's self time is its duration
minus the durations of the traced spans directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


def _fit_outcome(result) -> dict:
    out = {}
    if hasattr(result, "iterations"):
        out["iterations"] = int(result.iterations)
    termination = getattr(result, "termination", None)
    if termination is not None:
        out["not_converged"] = int(getattr(termination, "value", termination) != "converged")
    return out


def _dataset_rows(result) -> dict:
    rows = getattr(result, "n_instances", None)
    return {} if rows is None else {"rows": int(rows)}


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    function: str
    outcome: Callable[[object], dict] | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.function}"


# The layers are the modules of src/eos.  Functions beyond those the
# per-layer metrics name (run_synth_benchmark, mislabel_experiment, ...) are
# traced so their time is not counted as self time of the caller's layer.
TARGETS = (
    Target("core", "eos.core", "fit", _fit_outcome),
    Target("core", "eos.core", "w_step"),
    Target("core", "eos.core", "objective"),
    Target("core", "eos.core", "shannon_entropy"),
    Target("models", "eos.models", "weighted_gaussian_mle"),
    Target("models", "eos.models", "covariance_floor"),
    Target("models", "eos.models", "gaussian_error"),
    Target("models", "eos.models", "mahalanobis_squared"),
    Target("anomaly", "eos.anomaly", "calibrate_alpha"),
    Target("anomaly", "eos.anomaly", "detect"),
    Target("affinity", "eos.affinity", "affinity_rows"),
    Target("affinity", "eos.affinity", "calibrate_row_alpha"),
    Target("affinity", "eos.affinity", "generalized_affinity_row"),
    Target("affinity", "eos.affinity", "gaussian_affinity_row"),
    Target("supervised", "eos.supervised", "train_weighted_classifier"),
    Target("supervised", "eos.supervised", "classifier_loss_error"),
    Target("supervised", "eos.supervised", "robust_fit"),
    Target("supervised", "eos.supervised", "auc"),
    Target("supervised", "eos.supervised", "mislabel_experiment"),
    Target("bench", "eos.bench", "generate"),
    Target("bench", "eos.bench", "mahalanobis_chi2_baseline"),
    Target("bench", "eos.bench", "run_synth_benchmark"),
    Target("dataio", "eos.dataio", "parse_csv_dataset", _dataset_rows),
    Target("cli", "eos.cli", "run"),
)

LAYERS = ("core", "models", "anomaly", "affinity", "supervised", "bench", "dataio", "cli")


class Tracer:
    """Aggregates span counts, total and self times, and nesting counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        # "outer>inner" -> calls of inner made while outer was open.
        self.nested: Counter = Counter()
        # "outer>name.key" -> sum of an outcome value over calls made while
        # outer was open; ">name.key" sums over every call.
        self.values: Counter = Counter()
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable, outcome: Callable | None = None) -> Callable:
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_names = {frame[0] for frame in self._stack}
            for outer in open_names:
                self.nested[f"{outer}>{name}"] += 1
            frame = [name, clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                duration = clock() - frame[1]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
            if outcome is not None:
                for key, value in outcome(result).items():
                    for outer in ("", *open_names):
                        self.values[f"{outer}>{name}.{key}"] += value
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "nested": dict(self.nested),
            "values": dict(self.values),
        }


def install(tracer: Tracer, targets=TARGETS, package: str = "eos") -> list[str]:
    """Wrap every binding of every target; return the names of absent targets."""
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    absent: list[str] = []
    for target in targets:
        home = sys.modules.get(target.module)
        fn = getattr(home, target.function, None) if home is not None else None
        if not callable(fn):
            absent.append(target.name)
            continue
        wrapped = tracer.wrap(target.name, fn, target.outcome)
        for namespace in namespaces:
            for attr in [attr for attr, value in vars(namespace).items() if value is fn]:
                setattr(namespace, attr, wrapped)
    return absent


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    seconds = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [part.strip() for part in line[len("import time:"):].split("|")]
        if len(fields) != 3 or not fields[1].isdigit():
            continue
        seconds[fields[2].strip()] = int(fields[1]) / 1e6
    return seconds
