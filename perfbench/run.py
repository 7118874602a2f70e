"""Layered benchmark of cybermdp: two workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload enterprise_dqn --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # both workloads

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each layer's entry points and reports per-layer metrics plus
the tracing overhead, and writes every span to ``perfbench/out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it record the
environment and print the metrics as a table.  The package is imported from
``src/`` of the checkout the script sits in; without it, or when the
numpy backend is not the one that runs, the script exits non-zero without
a result.  See README.md in this directory for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("gauntlet_compare", "enterprise_dqn")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Only numpy can run everywhere; a run on any other backend is refused.
REQUESTED_BACKEND = "numpy"

# name, unit; every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
EXIT_ENV = 2
# Fresh processes whose start-up is timed; setup_s is their median.
COLD_STARTS = 9
COLD_START_TIMEOUT_S = 120
# A child of ``--workload all`` gets this long before it is stopped.
CHILD_TIMEOUT_S = 600


class EnvironmentMismatch(RuntimeError):
    """The package that would be measured is not the one asked for."""


def pin_environment() -> None:
    """One BLAS thread and the requested backend, set before numpy loads."""

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["CYBERMDP_BACKEND"] = REQUESTED_BACKEND


def import_package() -> dict:
    """Import cybermdp from this checkout's src/ and describe the run.

    Raises EnvironmentMismatch when src/ is absent, another copy of the
    package would be imported, or the effective backend differs from the
    requested one.
    """

    if not (SRC / "cybermdp" / "__init__.py").is_file():
        raise EnvironmentMismatch(f"no package source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy

    import cybermdp
    import cybermdp._kernels

    where = Path(cybermdp.__file__).resolve().parent
    if where != (SRC / "cybermdp").resolve():
        raise EnvironmentMismatch(f"cybermdp imported from {where}, not {SRC}")
    try:
        blas_dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_dep.get('name')} {blas_dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    env = {
        "backend": getattr(cybermdp._kernels, "BACKEND", "unknown"),
        "backend_requested": REQUESTED_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    if env["backend"] != REQUESTED_BACKEND:
        raise EnvironmentMismatch(
            f"requested backend {REQUESTED_BACKEND!r} but {env['backend']!r} runs"
        )
    return env


@dataclass
class OpLog:
    """Outcome of one timed loop of ops."""

    durations: list[float] = field(default_factory=list)  # successful ops only
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)
    # Per-layer metrics reported as 0 because nothing measured them.
    unmeasured: list[str] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def run_op(workload, i: int, tracer, log: OpLog) -> None:
    """Time op ``i``, then check its output with the tracer paused.

    An op that raises or fails its check counts as failed in ``log``; it
    never ends the run.
    """

    log.attempted += 1
    tracer.op = i
    try:
        with tracer.span("bench.op"):
            t0 = time.perf_counter()
            result = workload.op(i)
            took = time.perf_counter() - t0
        with tracer.pause():
            problem = workload.check(i, result)
    except Exception as exc:  # one failed op must not end the run
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.op = None
    if problem is None:
        log.durations.append(took)
    else:
        log.failed += 1
        log.errors.append(f"op {i}: {problem}")


def closed_loop(step, seconds: float, between=None) -> float:
    """Call ``step(i)`` for i = 0, 1, ... and return the loop's wall time.

    No step starts that the median step so far would carry past
    ``seconds``; at least one step always runs.  ``between(elapsed)``, if
    given, runs after each step; its time is left out of the loop's.
    """

    took: list[float] = []
    aside = 0.0
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - aside

    while not took or elapsed() + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        step(len(took))
        took.append(time.perf_counter() - t0)
        if between is not None:
            t1 = time.perf_counter()
            between(t1 - start - aside)
            aside += time.perf_counter() - t1
    return elapsed()


def _warm_up(cls, seed: int, workdir: Path) -> None:
    """Run every code path once on a tiny process; outcome is not judged."""

    from workloads import TINY

    warm = cls(seed, TINY, workdir)
    try:
        warm.set_up()
        warm.check(0, warm.op(0))
    except Exception as exc:  # a broken program shows up in the timed ops
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def cold_start(name: str, seed: int, scale: str, workdir: str) -> None:
    """Do what a run does before its first op, then print the clock.

    Runs in a fresh interpreter started by ``ColdStarts``: pin the
    environment, import, warm up and set up once.  The last line of output
    is ``CLOCK_MONOTONIC`` at that point, a clock shared by all processes.
    """

    pin_environment()
    import_package()
    import workloads

    cls = workloads.WORKLOADS[name]
    work = Path(workdir) / f"cold-{name}-{os.getpid()}"
    try:
        _warm_up(cls, seed, work / "warm-up")
        cls(seed, getattr(workloads, scale), work).set_up()
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class ColdStarts:
    """Samples of the time from spawning a process to its first op being ready.

    Each of COLD_STARTS fresh interpreters runs ``cold_start``; a sample
    runs from just before the spawn to the clock reading the child prints.
    Called with the timed loop's elapsed time between ops, it takes the
    samples at even points of the loop: the host's speed drifts over tens
    of seconds, and samples spread over the whole run give a median that
    varies less from run to run than samples taken back to back.
    """

    def __init__(self, name: str, seed: int, scale: str, workdir: Path, seconds: float):
        path = [str(BENCH_DIR), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        self.code = f"import run; run.cold_start({name!r}, {seed}, {scale!r}, {str(workdir)!r})"
        self.seconds = seconds
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", self.code], env=self.env, stdout=subprocess.PIPE,
            text=True, timeout=COLD_START_TIMEOUT_S, check=True,
        )
        self.samples.append(float(proc.stdout.split()[-1]) - t0)

    def __call__(self, elapsed: float) -> None:
        due = self.seconds * len(self.samples) / COLD_STARTS
        if len(self.samples) < COLD_STARTS and elapsed >= due:
            self.sample()

    def median(self) -> float:
        """The median over COLD_STARTS samples, taking any still missing."""

        while len(self.samples) < COLD_STARTS:
            self.sample()
        return statistics.median(self.samples)


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "FULL",
    workdir: Path = OUT,
    env: dict | None = None,
) -> tuple[dict, OpLog]:
    """Run one workload at a size named in ``workloads``; return its values.

    Untraced, the values are the END_TO_END metrics, with ``setup_s`` taken
    from fresh processes.  Traced, each op runs untraced and then with the
    hooks installed, for ``seconds`` in all, and the values are the
    per-layer metrics.
    """

    import workloads
    from tracing import Tracer, layer_metrics

    cls = workloads.WORKLOADS[name]
    work = workdir / f"work-{name}-{os.getpid()}"
    tracer = Tracer()
    try:
        _warm_up(cls, seed, work / "warm-up")
        workload = cls(seed, getattr(workloads, scale), work)
        if trace:
            # Set-up is repeated so the per-layer set-up times are means.
            tracer.install()
            for _ in range(workload.scale.setup_reps):
                with tracer.span("bench.setup"):
                    workload.set_up()
            tracer.uninstall()
        else:
            workload.set_up()

        log = OpLog()
        plain = Tracer(hooks=())
        if not trace:
            cold = ColdStarts(name, seed, scale, workdir, seconds)
            log.wall = closed_loop(lambda i: run_op(workload, i, plain, log), seconds, cold)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            op_times = log.durations or [log.wall / log.attempted]
            values = {
                "setup_s": cold.median(),
                "op_p50_s": statistics.median(op_times),
                "ops_per_s": log.ok / log.wall,
                "ok_ratio": log.ok / log.attempted,
                "peak_rss_mb": rss_kib * 1024 / 1e6,
            }
            return values, log

        # Each op runs untraced and then traced, back to back, so a slow
        # spell of the machine falls on both sides of the overhead ratio.
        traced = OpLog()

        def pair(i: int) -> None:
            run_op(workload, i, plain, log)
            tracer.install()
            try:
                run_op(workload, i, tracer, traced)
            finally:
                tracer.uninstall()

        closed_loop(pair, seconds)
        untraced_s = sum(log.durations)
        overhead = sum(traced.durations) / untraced_s if untraced_s else None
        values, unmeasured = layer_metrics(tracer, traced.attempted, workload.extras, overhead)
        tracer.write(
            workdir / f"trace-{name}-seed{seed}.json",
            {"env": env, "workload": name, "seed": seed, "seconds": seconds,
             "metrics": values, "unmeasured": unmeasured},
        )
        log.unmeasured = unmeasured
        log.attempted += traced.attempted
        log.failed += traced.failed
        log.errors += traced.errors
        return values, log
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def result_line(values: dict, units: dict, log: OpLog) -> dict:
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def print_table(title: str, result: dict) -> None:
    print(title)
    for key, metric in result["metrics"].items():
        print(f"  {key:<36} {metric['value']:>14.6g} {metric['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<36} {fail_ratio:>14.6g} ({result['failed']}/{result['attempted']} ops)")


def run_one(args: argparse.Namespace) -> int:
    pin_environment()
    try:
        env = import_package()
    except EnvironmentMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENV
    from tracing import LAYER_METRICS

    values, log = measure(args.workload, args.seed, args.seconds, bool(args.trace), env=env)
    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        units = dict(END_TO_END)
    for line in log.errors[:5]:
        print(f"failed {line}", file=sys.stderr)
    result = result_line(values, units, log)
    print("env " + json.dumps(env, sort_keys=True))
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{args.workload} seed {args.seed}, {mode}:", result)
    if args.trace:
        print("unmeasured (reported as 0) " + json.dumps(log.unmeasured))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one table and one merged result."""

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0, help="op i uses seed + i")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
