"""In-memory span recorder for the traced benchmark run.

Spans are opened by wrappers that the benchmark installs on module and
class attributes at the sites where the program looks them up, for example
``cybermdp.cli.compare_variants`` (the name ``cmd_compare`` calls) or
``QNetwork.q_row``.  The program's own files are never edited.  A hook whose
target no longer exists is recorded as missing; every metric derived from
its span name then reports 0 and is named as unmeasured, instead of failing
the run.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark op that caused
it (``None`` during set-up) and ``counts`` a small dict of work done
(sweeps, hops, episodes), taken from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

CountFn = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Hook:
    """One wrapper site: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    counts: CountFn | None = None


def _vi_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"sweeps": result.iterations, "slots": args[0].num_action_slots}


def _rollout_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"hops": result.hops, "reached": int(result.reached_terminal)}


def _train_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    return {"episodes": cfg.episodes}


# Each layer is hooked at every import site the benchmark's calls reach, so a
# call made through cli or evaluate is caught as well as a direct one.
HOOKS: tuple[Hook, ...] = (
    Hook("cybermdp.netgen", "generate", "netgen.generate"),
    Hook("cybermdp.graph", "serialize_attack_graph", "graph.serialize"),
    Hook("cybermdp.graph", "parse_attack_graph", "graph.parse"),
    Hook("cybermdp.cli", "parse_attack_graph", "graph.parse"),
    Hook("cybermdp.graph", "validate", "graph.validate"),
    Hook("cybermdp.cli", "validate", "graph.validate"),
    Hook("cybermdp.mdp", "validate", "graph.validate"),
    Hook("cybermdp.mdp", "build_cvss_mdp", "mdp.build"),
    Hook("cybermdp.evaluate", "build_cvss_mdp", "mdp.build"),
    Hook("cybermdp.terrain", "apply_terrain", "terrain.apply"),
    Hook("cybermdp.evaluate", "apply_terrain", "terrain.apply"),
    Hook("cybermdp.mdp", "value_iteration", "mdp.value_iteration", _vi_counts),
    Hook("cybermdp.solver", "train", "solver.train", _train_counts),
    Hook("cybermdp.evaluate", "train", "solver.train", _train_counts),
    Hook("cybermdp.solver", "td_loss_and_gradients", "network.td_loss_and_gradients"),
    Hook("cybermdp.solver", "sgd_step", "network.sgd_step"),
    Hook("cybermdp.network:QNetwork", "q_row", "network.q_row"),
    Hook("cybermdp.evaluate", "rollout_greedy", "evaluate.rollout_greedy", _rollout_counts),
    Hook("cybermdp.cli", "compare_variants", "evaluate.compare_variants"),
    Hook("cybermdp.cli", "main", "cli.compare"),
)


def _resolve_owner(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Tracer:
    """Collects spans in memory; ``install`` wraps the hook targets."""

    def __init__(self, hooks: Sequence[Hook] = HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list[list[Any]] = []
        self.op: int | None = None
        self.paused = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (set-up, op, check)."""

        if self.paused:
            yield
            return
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Let hooked calls through unrecorded, e.g. inside output checks."""

        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._begin(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if hook.counts is not None:
                try:
                    tracer.spans[idx][5] = hook.counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the counts, not the run
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        missing = []
        for hook in self.hooks:
            owner = _resolve_owner(hook.owner)
            # Look in the owner's own namespace so an inherited attribute is
            # restored to inheritance, not shadowed, on uninstall.
            space = vars(owner) if owner is not None else {}
            if hook.attr not in space or not callable(space[hook.attr]):
                missing.append(f"{hook.owner}.{hook.attr}")
                continue
            original = space[hook.attr]
            setattr(owner, hook.attr, self._wrap(original, hook))
            self._installed.append((owner, hook.attr, original))
        self.missing = missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def installed_spans(self) -> set[str]:
        """Span names with at least one hook in place at the last install."""

        missing = set(self.missing)
        return {h.span for h in self.hooks if f"{h.owner}.{h.attr}" not in missing}

    # -- output -------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write every span, times in integer ns from tracer creation."""

        t0 = self._t0
        rows = [
            [name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, op, counts]
            for name, start, end, parent, op, counts in self.spans
        ]
        doc = dict(header)
        doc["missing_hooks"] = self.missing
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op", "counts"]
        doc["spans"] = rows
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name, unit, and the hook span the value is derived from (None for values
# the benchmark measures itself); the order is the report order.
LAYER_METRICS: tuple[tuple[str, str, str | None], ...] = (
    ("netgen.generate_s", "s", "netgen.generate"),
    ("graph.serialize_s", "s", "graph.serialize"),
    ("graph.parse_s", "s", "graph.parse"),
    ("graph.validate_s", "s", "graph.validate"),
    ("mdp.build_s", "s", "mdp.build"),
    ("terrain.apply_s", "s", "terrain.apply"),
    ("mdp.value_iteration_s", "s", "mdp.value_iteration"),
    ("mdp.vi_sweeps", "count", "mdp.value_iteration"),
    ("mdp.vi_ns_per_slot_sweep", "ns", "mdp.value_iteration"),
    ("solver.train_s", "s", "solver.train"),
    ("solver.episodes_per_s", "1/s", "solver.train"),
    ("solver.policy_agreement", "ratio", None),
    ("network.td_loss_and_gradients_s", "s", "network.td_loss_and_gradients"),
    ("network.td_calls", "count", "network.td_loss_and_gradients"),
    ("network.sgd_step_s", "s", "network.sgd_step"),
    ("network.q_row_s", "s", "network.q_row"),
    ("network.q_row_calls", "count", "network.q_row"),
    ("evaluate.rollout_greedy_s", "s", "evaluate.rollout_greedy"),
    ("evaluate.rollout_hops", "count", "evaluate.rollout_greedy"),
    ("evaluate.us_per_hop", "us", "evaluate.rollout_greedy"),
    ("evaluate.reached_ratio", "ratio", "evaluate.rollout_greedy"),
    ("evaluate.compare_variants_s", "s", "evaluate.compare_variants"),
    ("cli.compare_s", "s", "cli.compare"),
    # CLI time outside compare_variants, so it needs both hooks; cli.compare
    # missing leaves no spans and the value is None anyway.
    ("cli.self_s", "s", "evaluate.compare_variants"),
    ("cli.artifact_bytes", "bytes", None),
    ("trace.overhead_ratio", "ratio", None),
)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _mean(values: Sequence[float]) -> float | None:
    return statistics.fmean(values) if values else None


def layer_metrics(
    tracer: Tracer,
    traced_ops: int,
    extras: dict[str, Sequence[float]],
    overhead_ratio: float | None,
) -> tuple[dict[str, float], list[str]]:
    """Reduce the spans to the LAYER_METRICS values and the unmeasured names.

    Times ending in ``_s`` are mean seconds per call of that layer, set-up
    calls included.  Call and hop counts are per traced op.  A metric is
    unmeasured when the workload made no such call or its hook is missing;
    it then reports 0, so every value in the result line is a number, and
    its name is in the returned list.  ``extras`` carries per-op values the
    benchmark measured itself.
    """

    spans = tracer.spans
    live = tracer.installed_spans()
    by_name: dict[str, list[list[Any]]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def calls(name: str) -> list[list[Any]]:
        return by_name.get(name, [])

    def per_call_s(name: str) -> float | None:
        return _mean([s[2] - s[1] for s in calls(name)])

    def total_s(name: str) -> float:
        return sum(s[2] - s[1] for s in calls(name))

    def count(name: str, key: str) -> float:
        return sum((s[5] or {}).get(key, 0) for s in calls(name))

    def per_op(n: float) -> float | None:
        return n / traced_ops if traced_ops else None

    def in_op(name: str) -> list[list[Any]]:
        return [s for s in calls(name) if s[4] is not None]

    vi = calls("mdp.value_iteration")
    vi_work = sum((s[5] or {}).get("sweeps", 0) * (s[5] or {}).get("slots", 0) for s in vi)
    rollouts = calls("evaluate.rollout_greedy")
    hops = count("evaluate.rollout_greedy", "hops")

    # CLI self time: each cli.compare span minus the compare_variants spans
    # nested anywhere below it.
    cli_spans = calls("cli.compare")
    inner = {id(s): 0.0 for s in cli_spans}
    for s in calls("evaluate.compare_variants"):
        parent = s[3]
        while parent >= 0 and spans[parent][0] != "cli.compare":
            parent = spans[parent][3]
        if parent >= 0:
            inner[id(spans[parent])] += s[2] - s[1]
    cli_self = _mean([s[2] - s[1] - inner[id(s)] for s in cli_spans])

    out: dict[str, float | None] = {
        "netgen.generate_s": per_call_s("netgen.generate"),
        "graph.serialize_s": per_call_s("graph.serialize"),
        "graph.parse_s": per_call_s("graph.parse"),
        "graph.validate_s": per_call_s("graph.validate"),
        "mdp.build_s": per_call_s("mdp.build"),
        "terrain.apply_s": per_call_s("terrain.apply"),
        "mdp.value_iteration_s": per_call_s("mdp.value_iteration"),
        "mdp.vi_sweeps": _ratio(count("mdp.value_iteration", "sweeps"), len(vi)),
        "mdp.vi_ns_per_slot_sweep": _ratio(total_s("mdp.value_iteration") * 1e9, vi_work),
        "solver.train_s": per_call_s("solver.train"),
        "solver.episodes_per_s": _ratio(count("solver.train", "episodes"), total_s("solver.train")),
        "solver.policy_agreement": _mean(extras.get("solver.policy_agreement", [])),
        "network.td_loss_and_gradients_s": per_call_s("network.td_loss_and_gradients"),
        "network.td_calls": per_op(len(in_op("network.td_loss_and_gradients"))),
        "network.sgd_step_s": per_call_s("network.sgd_step"),
        "network.q_row_s": per_call_s("network.q_row"),
        "network.q_row_calls": per_op(len(in_op("network.q_row"))),
        "evaluate.rollout_greedy_s": per_call_s("evaluate.rollout_greedy"),
        "evaluate.rollout_hops": per_op(
            sum((s[5] or {}).get("hops", 0) for s in in_op("evaluate.rollout_greedy"))
        ),
        "evaluate.us_per_hop": _ratio(total_s("evaluate.rollout_greedy") * 1e6, hops),
        "evaluate.reached_ratio": _ratio(count("evaluate.rollout_greedy", "reached"), len(rollouts)),
        "evaluate.compare_variants_s": per_call_s("evaluate.compare_variants"),
        "cli.compare_s": per_call_s("cli.compare"),
        "cli.self_s": cli_self,
        "cli.artifact_bytes": _mean(extras.get("cli.artifact_bytes", [])),
        "trace.overhead_ratio": overhead_ratio,
    }
    # A metric whose span lost every hook is unknown, not zero.
    for name, _, span in LAYER_METRICS:
        if span is not None and span not in live:
            out[name] = None
    unmeasured = [name for name, value in out.items() if value is None]
    return {name: 0.0 if value is None else value for name, value in out.items()}, unmeasured
