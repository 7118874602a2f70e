"""Greedy-policy evaluation, path extraction, and variant comparisons.

The reporting layer: play trained policies greedily, turn the step traces
into attack paths suitable for DOT highlighting, and run the matched-seed
comparisons (vanilla, terrain-adjusted and protocol-restricted variants,
all in one call) that show what a terrain adjustment actually changes.
A comparison is the tuple of its variants' :class:`VariantMetrics`; the
CLI turns it into ``metrics.json`` and ``summary.csv``.
Training happens in :func:`cybermdp.solver.train`; only
:func:`compare_variants` calls it, and everything else here evaluates a
result it is given.
Hops count every action taken, including failed attempts that stayed put;
the distinct-vertex count is reported separately so path length and retry
count cannot be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import AttackGraph
from .mdp import Mdp, build_cvss_mdp
from .solver import TabularQ, TrainConfig, TrainResult, greedy_rollout, train
from .terrain import TerrainConfig, apply_terrain

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
    """Play one episode greedily under ``q`` (see
    :func:`cybermdp.solver.greedy_rollout`) and name its states."""

    states, next_states, rewards, total, reached = greedy_rollout(mdp, q.values, max_steps, rng)
    return EpisodeTrace(
        states=tuple(mdp.states[s] for s in states.tolist()),
        next_states=tuple(mdp.states[s] for s in next_states.tolist()),
        rewards=tuple(rewards.tolist()),
        total_reward=total,
        reached_terminal=reached,
    )


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


def _rollout_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _ROLLOUT_STREAM_TAG])))


def evaluate_variant(
    name: str, mdp: Mdp, train_cfg: TrainConfig, result: TrainResult
) -> VariantMetrics:
    """Report the greedy rollout of ``result``, trained on ``mdp`` under
    ``train_cfg``; the rollout stream derives from ``train_cfg.seed``."""

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
) -> tuple[VariantMetrics, ...]:
    """Train every variant from the same seed and return their greedy
    rollouts' metrics in the order of ``variants``.

    All variants share the training seed, the evaluation streams, and the
    rollout stream, so differences between them come from the terrain
    adjustment alone.  The process is compiled once and every variant is
    a terrain transform of it.  Variant names come from
    ``TerrainConfig.label()`` and must be unique within one comparison.
    """

    labels = [cfg.label() for cfg in variants]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate variant labels in {labels}")
    base = build_cvss_mdp(graph, gamma=gamma)
    rows = []
    for label, cfg in zip(labels, variants):
        adjusted = apply_terrain(base, graph, cfg)
        rows.append(evaluate_variant(label, adjusted, train_cfg, train(adjusted, train_cfg)))
    return tuple(rows)
