"""One invocation of the eos CLI in a fresh interpreter.

Usage: python3 child.py JOB_JSON

The set-up is importing ``eos.cli`` and parsing the config; it is timed from
the first statement of this file.  The run is one call of ``eos.cli.main``,
which calls ``eos.cli.run``, writing to ``out_dir``.  With ``trace`` set,
the per-layer spans are installed before the call.  This process records
exit code, stderr, times and peak RSS in the ``result`` file; the parent
checks the outputs.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EOS_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    import eos.cli

    with open(job["config_path"], encoding="utf-8") as handle:
        eos.cli.RunConfig.from_dict(json.load(handle))
    result = {"setup_s": time.perf_counter() - START, "environment": environment()}

    tracer, absent = None, []
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        absent = spans.install(tracer)
    argv = ["--config", job["config_path"], "--output", job["out_dir"], "--quiet"]
    stderr = io.StringIO()
    crash = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stderr(stderr):
        try:
            code = eos.cli.main(argv)
        except Exception:  # a crash is one failed invocation, reported to the parent
            code, crash = 1, traceback.format_exc()
    result.update(
        seconds=time.perf_counter() - wall0,
        cpu_seconds=time.process_time() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        exit_code=code,
        stderr=stderr.getvalue()[-4000:],
        crash=crash,
        traced=tracer is not None,
        trace=tracer.snapshot() if tracer is not None else None,
        absent=absent,
    )
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
