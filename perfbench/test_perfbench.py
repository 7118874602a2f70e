"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from cybermdp import cli, mdp  # noqa: E402
from tracing import HOOKS, LAYER_METRICS, Hook, Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _check_result(result: dict, names: list[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(metric["unit"]), (name, metric)
    json.dumps(result)


def test_metrics_match_benchmark_json():
    doc = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_runs_at_tiny_size(workload, tmp_path):
    values, log = run.measure(workload, 3, 0.01, False, scale="TINY", workdir=tmp_path)
    assert log.attempted >= 1 and log.failed == 0, log.errors
    result = run.result_line(values, dict(run.END_TO_END), log)
    _check_result(result, [name for name, _ in run.END_TO_END])
    assert result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_and_unhooks(workload, tmp_path):
    values, log = run.measure(workload, 3, 0.01, True, scale="TINY", workdir=tmp_path)
    assert log.failed == 0, log.errors
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    _check_result(run.result_line(values, units, log), list(units))
    assert all(isinstance(v, float) for v in values.values()), values
    assert values["trace.overhead_ratio"] > 0
    assert (tmp_path / f"trace-{workload}-seed3.json").is_file()
    assert cli.compare_variants.__module__ == "cybermdp.evaluate"
    assert not hasattr(mdp.value_iteration, "__wrapped__")


def test_injected_check_failure_counts_and_does_not_raise(monkeypatch, tmp_path):
    def nan_solver(process, tol=1e-8, max_iters=100_000):
        n = process.num_states
        return mdp.ValueResult(
            values=np.full(n, np.nan),
            policy=np.full(n, -1, dtype=np.int64),
            iterations=1,
            residual=float("nan"),
        )

    monkeypatch.setattr(mdp, "value_iteration", nan_solver)
    values, log = run.measure("enterprise_dqn", 0, 0.01, False, scale="TINY", workdir=tmp_path)
    assert log.attempted >= 1 and log.failed == log.attempted
    assert values["ok_ratio"] == 0.0
    assert "oracle: values are not finite" in log.errors[0]


def test_injected_raise_counts_and_does_not_raise(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "compare_variants", broken)
    values, log = run.measure("gauntlet_compare", 0, 0.01, False, scale="TINY", workdir=tmp_path)
    assert log.attempted >= 1 and log.failed == log.attempted
    assert "RuntimeError: injected" in log.errors[0]


def test_missing_hook_target_reports_zero_and_unmeasured():
    hooks = [h for h in HOOKS if h.span != "network.q_row"]
    hooks.append(Hook("cybermdp.network:QNetwork", "q_row_removed", "network.q_row"))
    tracer = Tracer(hooks)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["cybermdp.network:QNetwork.q_row_removed"]
    values, unmeasured = layer_metrics(tracer, 1, {}, 1.0)
    assert values["network.q_row_s"] == 0 and values["network.q_row_calls"] == 0
    assert {"network.q_row_s", "network.q_row_calls"} <= set(unmeasured)
    assert values["network.td_calls"] == 0


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.BENCH_DIR).glob("*.py"):
        shutil.copy(path, bench / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enterprise_dqn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
