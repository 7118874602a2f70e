"""Compile attack graphs into finite decision processes and solve them.

States are the vertices reachable from the graph's initial vertex, actions
are their outbound edges.  Attempting an edge into ``v`` succeeds with a
probability set by ``v``'s attack complexity (low 0.9, medium 0.6,
high 0.3); on success the agent arrives at ``v`` and collects ``v``'s
arrival reward, on failure it stays put and collects nothing.

Arrival rewards come from the CVSS annotation (base + exploitability / 10)
ramped by relative depth: a deterministic depth-first traversal from the
initial vertex fixes each vertex's discovery depth d(v), and the reward is
scaled by d(v) / d(terminal) so early footholds are worth little and the
approach to the target is worth more, with a floor of 0.01.  Three pins
override the ramp: arriving at the terminal pays exactly 100, arriving back
at the initial vertex pays exactly 0.01, and any action whose destination
cannot reach the terminal at all pays exactly -1.

``value_iteration`` solves the compiled process exactly and is the oracle
the learning agents are measured against; ``slot_values`` is the one
action-value backup it, the policy extraction and ``action_values`` share,
and ``state_values`` the one greedy state value (a state's best slot), which
it and the DQN learner's frozen target share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .graph import (
    AttackGraph,
    Complexity,
    CvssAnnotation,
    Vertex,
    co_reachable_set,
    validate,
)

# Attack-complexity bucket -> success probability of one attempt.
COMPLEXITY_SUCCESS_PROBABILITY: dict[Complexity, float] = {
    Complexity.LOW: 0.9,
    Complexity.MEDIUM: 0.6,
    Complexity.HIGH: 0.3,
}

TERMINAL_REWARD = 100.0
INITIAL_REWARD = 0.01
DEAD_END_REWARD = -1.0
REWARD_FLOOR = 0.01


class ConvergenceError(RuntimeError):
    """Value iteration missed its tolerance, or a learner's action values
    stopped being finite (then ``residual`` is NaN)."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def complexity_to_probability(complexity: Complexity) -> float:
    """Success probability of one exploit attempt for a complexity bucket."""

    try:
        return COMPLEXITY_SUCCESS_PROBABILITY[complexity]
    except KeyError:
        raise ValueError(f"unknown complexity {complexity!r}") from None


def base_reward(vertex: Vertex | CvssAnnotation) -> float:
    """Unscaled worth of capturing a vertex: base + exploitability / 10."""

    cvss = vertex.cvss if isinstance(vertex, Vertex) else vertex
    return cvss.base + cvss.exploitability / 10.0


def dfs_depths(graph: AttackGraph) -> dict[str, int]:
    """Discovery depth of each reachable vertex.

    Depth-first from the initial vertex, neighbors in edge declaration
    order; the depth is the DFS-tree depth at first discovery.  Only
    reachable vertices appear in the result.
    """

    depths = {graph.initial: 0}
    # Each entry is a vertex on the current DFS path and its successors
    # not yet looked at.
    stack = [(graph.initial, iter(graph.successors(graph.initial)))]
    while stack:
        u, successors = stack[-1]
        for w in successors:
            if w not in depths and graph.has_vertex(w):
                depths[w] = depths[u] + 1
                stack.append((w, iter(graph.successors(w))))
                break
        else:
            stack.pop()
    return depths


@dataclass(frozen=True, eq=False)
class Mdp:
    """Flat finite decision process over attack-graph vertices.

    ``states`` holds vertex ids in a fixed, indexable order.  Per-state
    action slots live in parallel arrays segmented by ``action_offsets``:
    slot k of state s (k in [action_offsets[s], action_offsets[s+1])) moves
    to ``action_dest[k]`` with probability ``action_success[k]`` for reward
    ``action_reward[k]``, and stays at s with the remaining probability for
    reward 0.  The terminal state has no slots.

    ``terrain_mode`` records which adjustment (if any) produced this
    process: "vanilla", "reward", or "state"; ``terrain_strength`` and
    ``terrain_restrict`` record the adjustment's parameters.

    ``slot_state[k]``, the state that owns slot k, ``live_states``, the
    states that own slots, and ``live_starts``, their first slots, are
    derived once here.
    """

    states: tuple[str, ...]
    action_offsets: np.ndarray
    action_dest: np.ndarray
    action_success: np.ndarray
    action_reward: np.ndarray
    gamma: float
    initial_state: int
    terminal_state: int
    terrain_mode: str = "vanilla"
    terrain_strength: float = 0.0
    terrain_restrict: str | None = None

    slot_state: np.ndarray = field(init=False, repr=False)
    live_states: np.ndarray = field(init=False, repr=False)
    live_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = tuple(self.states)
        offsets = np.ascontiguousarray(self.action_offsets, dtype=np.int64)
        dest = np.ascontiguousarray(self.action_dest, dtype=np.int64)
        success = np.ascontiguousarray(self.action_success, dtype=np.float64)
        reward = np.ascontiguousarray(self.action_reward, dtype=np.float64)

        n = len(states)
        if n < 2:
            raise ValueError("an Mdp needs at least an initial and a terminal state")
        if len(set(states)) != n:
            raise ValueError("state ids must be unique")
        if offsets.shape != (n + 1,) or offsets[0] != 0 or offsets[-1] != dest.shape[0]:
            raise ValueError("action_offsets must segment the action arrays")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("action_offsets must be non-decreasing")
        if not (dest.shape == success.shape == reward.shape):
            raise ValueError("action arrays must have equal length")
        if dest.size and (dest.min() < 0 or dest.max() >= n):
            raise ValueError("action_dest indexes outside the state set")
        # Written so that NaN fails the range test.
        if not np.all((success >= 0.0) & (success <= 1.0)):
            raise ValueError("success probabilities must lie in [0, 1]")
        if not np.all(np.isfinite(reward)):
            raise ValueError("action rewards must be finite")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0 <= self.initial_state < n or not 0 <= self.terminal_state < n:
            raise ValueError("initial/terminal state index out of range")
        if self.initial_state == self.terminal_state:
            raise ValueError("initial and terminal states must differ")
        if offsets[self.terminal_state] != offsets[self.terminal_state + 1]:
            raise ValueError("the terminal state must have no actions")

        slot_state = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        # reduceat segments must start at the true offsets of states that own
        # slots; clamping every offset instead would fold a trailing
        # actionless state's start back into the previous state's segment.
        live_states = np.flatnonzero(np.diff(offsets))
        live_starts = offsets[live_states]
        for arr in (offsets, dest, success, reward, slot_state, live_states, live_starts):
            arr.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "action_offsets", offsets)
        object.__setattr__(self, "action_dest", dest)
        object.__setattr__(self, "action_success", success)
        object.__setattr__(self, "action_reward", reward)
        object.__setattr__(self, "slot_state", slot_state)
        object.__setattr__(self, "live_states", live_states)
        object.__setattr__(self, "live_starts", live_starts)
        object.__setattr__(self, "gamma", float(self.gamma))

    # -- indexing helpers ---------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_action_slots(self) -> int:
        return int(self.action_dest.shape[0])

    def vertex_id(self, state: int) -> str:
        state_slots(self.action_offsets, state)  # for its bounds check
        return self.states[state]

    def num_actions(self, state: int) -> int:
        slots = state_slots(self.action_offsets, state)
        return slots.stop - slots.start

    # -- serialization --------------------------------------------------------

    def to_document(self) -> dict[str, Any]:
        names = self.states
        actions = [
            {"from": names[s], "to": names[d], "success": p, "reward": r}
            for s, d, p, r in zip(
                self.slot_state.tolist(),
                self.action_dest.tolist(),
                self.action_success.tolist(),
                self.action_reward.tolist(),
            )
        ]
        return {
            "gamma": float(self.gamma),
            "initial": self.states[self.initial_state],
            "terminal": self.states[self.terminal_state],
            "terrain": {
                "mode": self.terrain_mode,
                "strength": float(self.terrain_strength),
                "restrict": self.terrain_restrict,
            },
            "states": list(self.states),
            "actions": actions,
        }


def state_slots(action_offsets: np.ndarray, state: int) -> slice:
    """The slot range of ``state`` in the segmentation ``action_offsets``.

    Raises IndexError for a state outside it, which indexing alone would
    not do for a negative one.
    """

    if not 0 <= state < len(action_offsets) - 1:
        raise IndexError(f"state index {state} outside the state set")
    return slice(int(action_offsets[state]), int(action_offsets[state + 1]))


def serialize_mdp(mdp: Mdp) -> str:
    """Canonical JSON dump of the full process; byte-deterministic."""

    return json.dumps(mdp.to_document(), indent=2) + "\n"


def build_cvss_mdp(graph: AttackGraph, gamma: float = 0.9) -> Mdp:
    """Compile a validated attack graph into the vanilla decision process.

    Raises ValueError if the graph has validation violations (an
    unreachable terminal vertex is one: no depth scale exists then) or if
    gamma is outside (0, 1], which the :class:`Mdp` checks.
    """

    violations = validate(graph)
    if violations:
        raise ValueError(
            "graph fails validation: " + "; ".join(violations)
        )

    can_finish = co_reachable_set(graph, graph.terminal)
    depths = dfs_depths(graph)  # keyed by exactly the reachable vertices
    states = tuple(v.id for v in graph.vertices if v.id in depths)
    index = {sid: i for i, sid in enumerate(states)}
    terminal_depth = depths[graph.terminal]

    def arrival_reward(vid: str) -> float:
        if vid not in can_finish:
            return DEAD_END_REWARD
        if vid == graph.terminal:
            return TERMINAL_REWARD
        if vid == graph.initial:
            return INITIAL_REWARD
        scaled = base_reward(graph.vertex(vid)) * (depths[vid] / terminal_depth)
        return max(scaled, REWARD_FLOOR)

    offsets = [0]
    dest: list[int] = []
    for sid in states:
        if sid != graph.terminal:
            dest.extend(index[wid] for wid in graph.successors(sid))
        offsets.append(len(dest))
    # Each state is scored once as a destination; every slot into it reads
    # those scores, as apply_terrain does.
    success = [complexity_to_probability(graph.vertex(sid).cvss.complexity) for sid in states]
    reward = [arrival_reward(sid) for sid in states]
    action_dest = np.array(dest, dtype=np.int64)

    return Mdp(
        states=states,
        action_offsets=np.array(offsets, dtype=np.int64),
        action_dest=action_dest,
        action_success=np.array(success, dtype=np.float64)[action_dest],
        action_reward=np.array(reward, dtype=np.float64)[action_dest],
        gamma=gamma,
        initial_state=index[graph.initial],
        terminal_state=index[graph.terminal],
    )


@dataclass(frozen=True, eq=False)
class ValueResult:
    """Outcome of value iteration: optimal values, the greedy policy
    (local action index per state, -1 where no action exists), the sweep
    count, and the verified final residual."""

    values: np.ndarray
    policy: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.policy.setflags(write=False)


def slot_values(mdp: Mdp, values: np.ndarray, slots: slice = slice(None)) -> np.ndarray:
    """Action value of every slot (or of the ``slots`` range) under fixed
    state values ``V``.

    Slot k owned by state s scores p[k] * (r[k] + gamma * V[dest[k]]) +
    (1 - p[k]) * gamma * V[s]: success pays the arrival reward and moves on,
    failure stays put for nothing.  Every Bellman backup in the package goes
    through this one expression.
    """

    p = mdp.action_success[slots]
    gamma = mdp.gamma
    return p * (mdp.action_reward[slots] + gamma * values[mdp.action_dest[slots]]) + (
        1.0 - p
    ) * (gamma * values[mdp.slot_state[slots]])


def action_values(mdp: Mdp, values: np.ndarray, state: int) -> np.ndarray:
    """Action values of one state under fixed state values."""

    return slot_values(mdp, values, state_slots(mdp.action_offsets, state))


def state_values(mdp: Mdp, slot_q: np.ndarray) -> np.ndarray:
    """Each state's greedy value under per-slot action values ``slot_q``:
    the max over its slots, 0.0 for a state without any.

    Value iteration's backup and the DQN learner's frozen target both read
    their states' values here.
    """

    best = np.zeros(mdp.num_states, dtype=np.float64)
    if slot_q.size:
        best[mdp.live_states] = np.maximum.reduceat(slot_q, mdp.live_starts)
    return best


def value_iteration(mdp: Mdp, tol: float = 1e-8, max_iters: int = 100_000) -> ValueResult:
    """Solve the process to Bellman optimality within ``tol`` (sup norm).

    Jacobi sweeps from V = 0; states without actions are absorbing at value
    0.  After the sweep loop reports convergence, one extra backup
    recomputes the residual from scratch; the result carries that verified
    number, and the policy is that backup's greedy choice, ties to the
    lowest action index.  Raises :class:`ConvergenceError` when max_iters
    sweeps are not enough (e.g. gamma = 1 on a graph whose cycles carry
    positive reward, where no finite fixed point exists) or when the values
    stop being finite.
    """

    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    n = mdp.num_states

    def backup(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = slot_values(mdp, values)
        return q, state_values(mdp, q)

    values = np.zeros(n, dtype=np.float64)
    residual = np.inf
    iterations = 0
    while iterations < max_iters:
        new = backup(values)[1]
        residual = float(np.max(np.abs(new - values)))
        values = new
        iterations += 1
        if residual <= tol or not np.isfinite(residual):
            break  # a value that overflowed never becomes finite again
    # Written as "not <=" so that a NaN residual fails the test too.
    if not residual <= tol:
        raise ConvergenceError(
            f"value iteration still above tolerance after {iterations} sweeps "
            f"(residual {residual:.3e} > tol {tol:.3e})",
            residual=residual,
        )
    # Independent re-check: one more backup applied to the reported values
    # must also stay within tolerance.
    q, best = backup(values)
    check = float(np.max(np.abs(best - values)))
    if not check <= tol:
        raise ConvergenceError(
            f"post-hoc residual check failed ({check:.3e} > tol {tol:.3e})",
            residual=check,
        )
    policy = np.full(n, -1, dtype=np.int64)
    if q.size:
        # The first slot of each segment that attains the segment's max.
        slot = np.arange(q.size)
        hits = np.where(q == best[mdp.slot_state], slot, q.size)
        starts = mdp.live_starts
        policy[mdp.live_states] = np.minimum.reduceat(hits, starts) - starts
    return ValueResult(values=values, policy=policy, iterations=iterations, residual=check)
