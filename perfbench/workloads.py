"""The benchmark's two workloads, each a closed loop of one client.

Every workload builds its inputs in ``set_up`` (called several times, the
last result is kept), runs one op per ``op(i)`` with seed ``seed + i`` and
verifies that op's output in ``check(i, result)``, which returns a problem
description or ``None``.  Calls into the package go through module
attributes (``mdp.value_iteration``, not a name bound at import), so the
tracer's wrappers and a test's injected fault both reach them.

Why each workload exists is written out in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from cybermdp import cli, evaluate, graph, mdp, netgen, solver


@dataclass(frozen=True)
class Scale:
    """Problem sizes; FULL is what the benchmark measures, TINY the warm-up."""

    setup_reps: int
    gauntlet_episodes: int
    topology: netgen.TopologyParams
    rollout_steps: int
    dqn_episodes: int
    dqn_steps: int
    dqn_rollouts: int


FULL = Scale(
    setup_reps=5,
    gauntlet_episodes=12_000,
    topology=netgen.ENTERPRISE_SCALE,
    rollout_steps=2500,
    dqn_episodes=4,
    dqn_steps=500,
    dqn_rollouts=3,
)

TINY = Scale(
    setup_reps=2,
    gauntlet_episodes=60,
    topology=netgen.TopologyParams(
        num_subnets=2, hosts_per_subnet=6, intra_edge_prob=0.3,
        inter_edge_count=2, firewall_prob=0.5, seed=0,
    ),
    rollout_steps=50,
    dqn_episodes=2,
    dqn_steps=20,
    dqn_rollouts=1,
)

TOL = 1e-8
DQN_GAMMA = 0.9
DQN_LEARNING_RATE = 0.01
# compare trains the vanilla, reward and state variants.
COMPARE_VARIANTS = 3
# plant_gauntlet validates these but uses none of their random fields.
GAUNTLET_TOPOLOGY = netgen.TopologyParams(
    num_subnets=1, hosts_per_subnet=2, intra_edge_prob=0.0,
    inter_edge_count=1, firewall_prob=0.0,
)


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def bellman_problem(process: mdp.Mdp, result: mdp.ValueResult, tol: float) -> str | None:
    """Recompute one Bellman backup from the public Mdp arrays.

    The values must be finite, one backup must move them by at most ``tol``
    in sup norm, and the policy must be the lowest-index argmax of
    ``mdp.action_values`` (-1 where a state has no action).  The ``<=``
    tests are written so that NaN fails them.
    """

    values = np.asarray(result.values, dtype=np.float64)
    n = process.num_states
    if values.shape != (n,) or not np.all(np.isfinite(values)):
        return "values are not finite"
    counts = np.diff(process.action_offsets)
    owner = np.repeat(np.arange(n), counts)
    p, r, gamma = process.action_success, process.action_reward, process.gamma
    q = p * (r + gamma * values[process.action_dest]) + (1.0 - p) * (gamma * values[owner])
    backup = np.zeros(n)
    live = counts > 0
    backup[live] = np.maximum.reduceat(q, process.action_offsets[:-1][live])
    change = float(np.max(np.abs(backup - values)))
    if not change <= tol:
        return f"one backup moves the values by {change:.3e} > tol {tol:.1e}"
    for s in range(n):
        expected = int(np.argmax(mdp.action_values(process, values, s))) if counts[s] else -1
        if int(result.policy[s]) != expected:
            return f"policy[{s}] = {int(result.policy[s])}, argmax is {expected}"
    return None


def compile_enterprise(scale: Scale, gamma: float) -> tuple[graph.AttackGraph, mdp.Mdp]:
    """Generate, serialize, parse back, validate and compile the topology."""

    text = graph.serialize_attack_graph(netgen.generate(scale.topology))
    parsed = graph.parse_attack_graph(text)
    problems = graph.validate(parsed)
    if problems:
        raise ValueError("generated graph fails validation: " + "; ".join(problems))
    return parsed, mdp.build_cvss_mdp(parsed, gamma=gamma)


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        # Per-op values measured by the benchmark rather than by a hook.
        self.extras: dict[str, list[float]] = {}

    def set_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, result: Any) -> str | None:
        raise NotImplementedError


class GauntletCompare(Workload):
    """One op: ``cybermdp compare`` in process on the FTP gauntlet."""

    name = "gauntlet_compare"

    def set_up(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.graph_path = self.workdir / "gauntlet.json"
        self.config_path = self.workdir / "config.json"
        self.out = self.workdir / "compare"
        gauntlet = netgen.plant_gauntlet(GAUNTLET_TOPOLOGY, frozenset({graph.Protocol.FTP}))
        self.graph_path.write_text(graph.serialize_attack_graph(gauntlet), encoding="utf-8")
        episodes = self.scale.gauntlet_episodes
        # The acceptance gate's DETOUR_TRAIN settings at gamma 0.999.
        config = {
            "gamma": 0.999,
            "w": -2.0,
            "episodes": episodes,
            "learning_rate": 0.5,
            "learning_rate_decay": 0.7,
            "epsilon_end": 0.2,
            "eval_interval": max(1, episodes // 60),
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")

    def op(self, i: int) -> int:
        argv = [
            "compare", str(self.graph_path), "--out", str(self.out),
            "--config", str(self.config_path), "--seed", str(self.seed + i),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, result: int) -> str | None:
        try:
            if result != 0:
                return f"exit code {result}"
            variants = json.loads((self.out / "metrics.json").read_text(encoding="utf-8"))
            if len(variants) != COMPARE_VARIANTS:
                return f"{len(variants)} variants reported"
            lost = [v["variant"] for v in variants if not v["reached_terminal"]]
            if lost:
                return f"variants never reached the terminal: {lost}"
            manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
            for name, digest in manifest["artifacts"].items():
                if _sha256(self.out / name) != digest:
                    return f"manifest checksum of {name} does not match"
            for name, digest in manifest["inputs"].items():
                if _sha256(Path(name)) != digest:
                    return f"manifest checksum of input {name} does not match"
            size = sum(f.stat().st_size for f in self.out.iterdir())
            self.extras.setdefault("cli.artifact_bytes", []).append(size)
            return None
        finally:
            shutil.rmtree(self.out, ignore_errors=True)


class EnterpriseDqn(Workload):
    """One op: a short DQN run and greedy rollouts of the trained network."""

    name = "enterprise_dqn"

    def set_up(self) -> None:
        self.graph, self.mdp = compile_enterprise(self.scale, DQN_GAMMA)
        self.oracle = mdp.value_iteration(self.mdp, tol=TOL)
        # A wrong oracle fails every op rather than stopping the run.
        self.oracle_problem = bellman_problem(self.mdp, self.oracle, TOL)

    def op(self, i: int) -> Any:
        cfg = solver.TrainConfig(
            episodes=self.scale.dqn_episodes,
            algorithm="dqn",
            max_steps_per_episode=self.scale.dqn_steps,
            eval_interval=self.scale.dqn_episodes,
            learning_rate=DQN_LEARNING_RATE,
            seed=self.seed + i,
        )
        trained = solver.train(self.mdp, cfg)
        rng = np.random.default_rng(self.seed + i)
        traces = [
            evaluate.rollout_greedy(self.mdp, trained.q, rng, self.scale.rollout_steps)
            for _ in range(self.scale.dqn_rollouts)
        ]
        return trained, traces

    def check(self, i: int, result: Any) -> str | None:
        if self.oracle_problem is not None:
            return f"oracle: {self.oracle_problem}"
        trained, traces = result
        if not all(np.isfinite(total) for _, total in trained.curve):
            return "learning curve is not finite"
        if not all(np.isfinite(t.total_reward) for t in traces):
            return "a rollout reward is not finite"
        agree = []
        for s in range(self.mdp.num_states):
            if self.mdp.num_actions(s) == 0:
                continue
            row = np.asarray(trained.q.action_values(s))
            if not np.all(np.isfinite(row)):
                return f"Q values of state {s} are not finite"
            agree.append(int(np.argmax(row)) == int(self.oracle.policy[s]))
        self.extras.setdefault("solver.policy_agreement", []).append(float(np.mean(agree)))
        return None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (GauntletCompare, EnterpriseDqn)
}
