"""The benchmark hooks program functions by name (``perfbench/tracing.py``).

A renamed or deleted hook target does not fail a benchmark run: its layer
metrics just read 0.  This test makes such a rename fail the suite instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_perfbench_hook_target_exists():
    name = "perfbench_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[name] = tracing  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert tracer.missing == []
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[name]
