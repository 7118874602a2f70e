"""Greedy-policy evaluation, path extraction, and variant comparisons.

The reporting layer: play trained policies greedily, turn the step traces
into attack paths suitable for DOT highlighting, and run the matched-seed
comparisons (vanilla vs terrain-adjusted, protocol sweeps) that show what a
terrain adjustment actually changes.  Hops count every action taken,
including failed attempts that stayed put; the distinct-vertex count is
reported separately so path length and retry count cannot be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .graph import PROTOCOL_ORDER, AttackGraph, Protocol
from .mdp import Mdp, build_cvss_mdp
from .solver import TabularQ, TrainConfig, TrainResult, train
from .terrain import TerrainConfig, TerrainMode, apply_terrain

# Fixed tags mixed into the seed so rollout streams are distinct from the
# training streams but still fully determined by one configured seed.
_ROLLOUT_STREAM_TAG = 0x5E11


@dataclass(frozen=True)
class EpisodeTrace:
    """One played episode, as parallel per-step tuples.

    ``states[i]`` is where step i was taken, ``next_states[i]`` where it
    landed (equal to ``states[i]`` for a failed attempt), ``rewards[i]``
    what it paid.  ``hops`` is the number of actions taken, failures
    included.
    """

    states: tuple[str, ...]
    next_states: tuple[str, ...]
    rewards: tuple[float, ...]
    total_reward: float
    reached_terminal: bool

    def __post_init__(self) -> None:
        if not (len(self.states) == len(self.next_states) == len(self.rewards)):
            raise ValueError("trace arrays must have equal length")

    @property
    def hops(self) -> int:
        return len(self.states)

    @property
    def visited(self) -> tuple[str, ...]:
        """States in visit order: start state then every landing."""

        if not self.states:
            return ()
        return (self.states[0], *self.next_states)

    @property
    def distinct_vertices(self) -> int:
        return len(set(self.visited))


@dataclass(frozen=True)
class PathExtraction:
    """Distinct visited vertices in first-visit order.

    ``revisited`` flags a return to an earlier vertex (other than the
    stay-put repetitions, which are collapsed silently); when it is set the
    vertex list may not form a contiguous edge path.
    """

    vertices: tuple[str, ...]
    revisited: bool


def extract_path(trace: EpisodeTrace | Sequence[str]) -> PathExtraction:
    """Collapse a visit sequence into first-visit order."""

    visited: Iterable[str]
    if isinstance(trace, EpisodeTrace):
        visited = trace.visited
    else:
        visited = tuple(trace)
    vertices: list[str] = []
    seen: set[str] = set()
    revisited = False
    previous: str | None = None
    for vid in visited:
        if vid == previous:
            continue  # stay-put repetition
        if vid in seen:
            revisited = True
        else:
            seen.add(vid)
            vertices.append(vid)
        previous = vid
    return PathExtraction(vertices=tuple(vertices), revisited=revisited)


def rollout_greedy(
    mdp: Mdp,
    q: TabularQ,
    rng: np.random.Generator,
    max_steps: int = 2500,
) -> EpisodeTrace:
    """Play one episode greedily under ``q`` (ties to the lowest index).

    One uniform draw per step decides success; the episode ends at the
    terminal state, at ``max_steps``, or in a state with no actions.
    """

    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    out_state = np.empty(max_steps, dtype=np.int64)
    out_next = np.empty(max_steps, dtype=np.int64)
    out_reward = np.empty(max_steps, dtype=np.float64)
    steps, total, reached = _kernels.greedy_rollout_kernel(
        mdp.action_offsets,
        mdp.action_dest,
        mdp.action_success,
        mdp.action_reward,
        q.values,
        mdp.initial_state,
        mdp.terminal_state,
        max_steps,
        rng,
        out_state,
        np.empty(max_steps, dtype=np.int64),  # chosen slots, unused here
        out_reward,
        out_next,
    )
    return EpisodeTrace(
        states=tuple(mdp.states[s] for s in out_state[:steps].tolist()),
        next_states=tuple(mdp.states[s] for s in out_next[:steps].tolist()),
        rewards=tuple(out_reward[:steps].tolist()),
        total_reward=float(total),
        reached_terminal=bool(reached),
    )


def policy_success_path(mdp: Mdp, policy: np.ndarray) -> tuple[str, ...]:
    """Vertex sequence a policy visits when every attempt succeeds.

    Follows each state's chosen action to its destination, starting at the
    initial state, stopping at the terminal state, a revisit (policy
    cycle), or a state without actions.
    """

    path = [mdp.vertex_id(mdp.initial_state)]
    seen = {mdp.initial_state}
    s = mdp.initial_state
    while s != mdp.terminal_state:
        a = int(policy[s])
        if a < 0:
            break
        s = mdp.action_target(s, a)
        path.append(mdp.vertex_id(s))
        if s in seen:
            break
        seen.add(s)
    return tuple(path)


@dataclass(frozen=True)
class VariantMetrics:
    """Rollout summary of one trained variant."""

    name: str
    hops: int
    distinct_vertices: int
    total_reward: float
    reward_per_hop: float
    reached_terminal: bool
    path: tuple[str, ...]
    revisited: bool
    curve: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class MetricsReport:
    """Matched-seed comparison across terrain variants."""

    variants: tuple[VariantMetrics, ...]

    def by_name(self, name: str) -> VariantMetrics:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(f"no variant named {name!r}")

    def summary_rows(self) -> list[list[str]]:
        """CSV-ready rows (header first); floats via repr for stable bytes.

        Hop counting ambiguity (attempts vs landings) is resolved by the
        per-variant detail document, which carries distinct_vertices; the
        summary keeps the four headline columns.
        """

        rows = [["variant", "hops", "total_reward", "reward_per_hop"]]
        for v in self.variants:
            rows.append(
                [v.name, str(v.hops), repr(v.total_reward), repr(v.reward_per_hop)]
            )
        return rows


def _rollout_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _ROLLOUT_STREAM_TAG])))


def evaluate_variant(
    name: str,
    mdp: Mdp,
    train_cfg: TrainConfig,
    result: TrainResult | None = None,
) -> VariantMetrics:
    """Train on one process and report its greedy rollout.

    Passing a precomputed ``result`` (from :func:`cybermdp.solver.train`
    with the same mdp and config) skips the training run; the rollout
    stream still derives from ``train_cfg.seed`` either way.
    """

    if result is None:
        result = train(mdp, train_cfg)
    max_steps = train_cfg.max_steps_per_episode
    trace = rollout_greedy(mdp, result.q, _rollout_rng(train_cfg.seed), max_steps)
    extraction = extract_path(trace)
    hops = trace.hops
    return VariantMetrics(
        name=name,
        hops=hops,
        distinct_vertices=trace.distinct_vertices,
        total_reward=trace.total_reward,
        reward_per_hop=trace.total_reward / hops if hops else 0.0,
        reached_terminal=trace.reached_terminal,
        path=extraction.vertices,
        revisited=extraction.revisited,
        curve=result.curve,
    )


def compare_variants(
    graph: AttackGraph,
    variants: Sequence[TerrainConfig],
    train_cfg: TrainConfig,
    gamma: float = 0.9,
) -> MetricsReport:
    """Train every variant from the same seed and compare greedy rollouts.

    All variants share the training seed, the evaluation streams, and the
    rollout stream, so differences in the report come from the terrain
    adjustment alone.  Variant names come from ``TerrainConfig.label()``
    and must be unique within one comparison.
    """

    labels = [cfg.label() for cfg in variants]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate variant labels in {labels}")
    base = build_cvss_mdp(graph, gamma=gamma)
    rows = []
    for label, cfg in zip(labels, variants):
        adjusted = apply_terrain(base, graph, cfg)
        rows.append(evaluate_variant(label, adjusted, train_cfg))
    return MetricsReport(variants=tuple(rows))


def protocol_sweep(
    graph: AttackGraph,
    mode: TerrainMode,
    strength: float,
    train_cfg: TrainConfig,
    gamma: float = 0.9,
    protocols: Sequence[Protocol] | None = None,
) -> Mapping[Protocol, VariantMetrics]:
    """One restricted terrain variant per protocol, matched seeds throughout."""

    if not isinstance(mode, TerrainMode) or mode is TerrainMode.VANILLA:
        raise ValueError("protocol_sweep needs a terrain mode (reward or state)")
    chosen = tuple(protocols) if protocols is not None else PROTOCOL_ORDER
    variants = [TerrainConfig(mode=mode, strength=strength, restrict=p) for p in chosen]
    report = compare_variants(graph, variants, train_cfg, gamma=gamma)
    return dict(zip(chosen, report.variants))
