"""Greedy-policy evaluation, path extraction, and variant comparisons.

The reporting layer: play trained policies greedily, collapse each played
episode's visited states into an attack path for DOT highlighting, and run
the matched-seed comparisons (vanilla, terrain-adjusted and
protocol-restricted variants, all in one call) that show what a terrain
adjustment actually changes.
A comparison is the tuple of its variants' :class:`VariantMetrics`; the
CLI turns it into ``metrics.json`` and ``summary.csv``.
Training happens in :func:`cybermdp.solver.train`; only
:func:`compare_variants` calls it, and everything else here evaluates a
result it is given.
Hops count every action taken, including failed attempts that stayed put;
the distinct-vertex count (the path's length) is reported separately so
path length and retry count cannot be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """One played episode: the start state, then every step's landing (a
    failed attempt lands where it was taken), or ``()`` if no step was
    taken.  ``hops`` counts the actions taken, failures included."""

    visited: tuple[str, ...]
    total_reward: float
    reached_terminal: bool

    @property
    def hops(self) -> int:
        return max(len(self.visited) - 1, 0)


def extract_path(visited: Sequence[str]) -> tuple[tuple[str, ...], bool]:
    """The distinct vertices of a visit sequence in first-visit order, and
    whether one reappears after another was visited (stay-put repetitions
    collapse silently); if so, the vertices may not form an edge path."""

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
    return tuple(vertices), revisited


def rollout_greedy(
    mdp: Mdp,
    q: TabularQ,
    rng: np.random.Generator,
    max_steps: int = 2500,
) -> EpisodeTrace:
    """Play one episode greedily under ``q`` (see
    :func:`cybermdp.solver.greedy_rollout`) and name its states."""

    landings, total, reached = greedy_rollout(mdp, q.values, max_steps, rng)
    visited = (mdp.initial_state, *landings.tolist()) if landings.size else ()
    return EpisodeTrace(
        visited=tuple(mdp.states[s] for s in visited),
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
    path, revisited = extract_path(trace.visited)
    hops = trace.hops
    return VariantMetrics(
        name=name,
        hops=hops,
        distinct_vertices=len(path),
        total_reward=trace.total_reward,
        reward_per_hop=trace.total_reward / hops if hops else 0.0,
        reached_terminal=trace.reached_terminal,
        path=path,
        revisited=revisited,
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
