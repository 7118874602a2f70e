"""The benchmark hooks program functions by name (``perfbench/tracing.py``).

A renamed or deleted hook target does not fail a benchmark run: its layer
metrics just read 0.  These tests make such a rename fail the suite instead,
and so does a program that keeps a hooked name but stops calling it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_target_exists():
    name = "perfbench_tracing_under_test"
    try:
        tracing = load(name, PERFBENCH / "tracing.py")
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert tracer.missing == []
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[name]


def test_dqn_hooks_are_reached(monkeypatch, tmp_path):
    # measure imports the workloads and the tracer by their module names.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    name = "perfbench_run_under_test"
    try:
        run = load(name, PERFBENCH / "run.py")
        values, log = run.measure(
            "enterprise_dqn", 3, 0.01, True, scale="TINY", workdir=tmp_path
        )
    finally:
        del sys.modules[name]
    assert log.failed == 0, log.errors
    for metric in ("network.td_calls", "network.sgd_step_s", "network.q_row_calls"):
        assert values[metric] > 0, metric
