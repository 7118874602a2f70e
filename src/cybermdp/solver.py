"""Reinforcement-learning solvers over compiled decision processes.

Two algorithms, one protocol: episodes start at the initial state, end at
the terminal state or after ``max_steps_per_episode`` steps, and admissible
actions are exactly the state's outbound slots (anything else is never
offered to the agent).  Exploration is epsilon-greedy with a linear decay
over the first chunk of training, greedy ties break to the lowest action
index, and every ``eval_interval`` episodes the current greedy policy plays
one evaluation episode whose total reward is appended to the learning
curve.  All randomness derives from named, purpose-split streams of the one
configured seed, so a run is exactly repeatable.

:func:`train` runs that protocol once for both algorithms; each supplies
only how to play one training episode and how to read out its per-slot
action values.  ``tabular`` keeps one value per action slot and plays its
training episodes in the episode loop of ``_kernels``; ``dqn`` trains the
plain-numpy network from :mod:`cybermdp.network` with uniform experience
replay (a ring buffer, so eviction is oldest-first), a hard-synced target
copy, and vanilla SGD, and raises :class:`~cybermdp.mdp.ConvergenceError`
once its values go non-finite.  Either way the result is a
:class:`TabularQ`: the trained network's values are read out into the same
per-slot layout, so greedy evaluation runs through that same episode loop,
with learning off, for both algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .mdp import ConvergenceError, Mdp
from .network import QNetwork, sgd_step, td_loss_and_gradients

ALGORITHMS = ("tabular", "dqn")


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol knobs shared by both solvers.

    Both learners discount by the process's own ``Mdp.gamma``.
    ``learning_rate_decay`` is a per-state-action polynomial decay exponent
    for the tabular solver (effective alpha = learning_rate / visit_count **
    decay; 0 keeps alpha constant).  The epsilon schedule is linear from
    ``epsilon_start`` down to ``epsilon_end`` over the first
    ``epsilon_decay_episodes`` episodes (default: the first 80% of
    training), flat afterwards.
    """

    episodes: int
    algorithm: str = "tabular"
    max_steps_per_episode: int = 2500
    eval_interval: int = 4
    learning_rate: float = 0.1
    learning_rate_decay: float = 0.0
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int | None = None
    replay_capacity: int = 10_000
    batch_size: int = 32
    target_sync_interval: int = 250
    hidden_layers: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.max_steps_per_episode < 1:
            raise ValueError("max_steps_per_episode must be positive")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be positive")
        # Written as not (...) so that NaN fails each check.
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.algorithm == "tabular" and not self.learning_rate <= 1.0:
            raise ValueError("a tabular learning_rate must not exceed 1")
        if not 0.0 <= self.learning_rate_decay < math.inf:
            raise ValueError("learning_rate_decay must be non-negative and finite")
        for name in ("epsilon_start", "epsilon_end"):
            eps = getattr(self, name)
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")
        if self.epsilon_decay_episodes is not None and self.epsilon_decay_episodes < 1:
            raise ValueError("epsilon_decay_episodes must be positive")
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size must not exceed replay_capacity")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be positive")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer sizes must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))

    def epsilon_at(self, episode: int) -> float:
        """Exploration rate for a 0-based episode index."""

        span = self.epsilon_decay_episodes
        if span is None:
            span = max(1, int(round(0.8 * self.episodes)))
        frac = min(1.0, episode / span)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


@dataclass(frozen=True, eq=False)
class TabularQ:
    """Flat per-slot action values aligned with an Mdp's action arrays."""

    action_offsets: np.ndarray
    values: np.ndarray

    def action_values(self, state: int) -> np.ndarray:
        lo = int(self.action_offsets[state])
        hi = int(self.action_offsets[state + 1])
        return self.values[lo:hi]


class ReplayBuffer:
    """Uniform experience replay over a fixed-size ring (oldest evicted)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._states = np.zeros(capacity, dtype=np.int64)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=np.float64)
        self._next_states = np.zeros(capacity, dtype=np.int64)
        self._done = np.zeros(capacity, dtype=bool)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: int, action: int, reward: float, next_state: int, done: bool) -> None:
        """Store one step; ``done`` holds exactly when the terminal state was
        entered (a failed attempt that stays put is never done)."""

        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._done[i] = done
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample with replacement; arrays (s, a, r, s2, done)."""

        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return (
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
            self._done[idx],
        )


LearningCurve = tuple[tuple[int, float], ...]


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Trained value function plus the evaluation learning curve
    ((episode number, greedy total reward) pairs)."""

    q: TabularQ
    curve: LearningCurve


def _streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Purpose-split generators: (init, train, eval)."""

    root = np.random.SeedSequence(seed)
    children = root.spawn(3)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


# Stand-ins for the array the episode loop leaves untouched in each mode:
# a greedy rollout counts no visits, a training episode records no landings.
_NO_COUNTS = np.empty(0, dtype=np.float64)
_NO_LANDINGS = np.empty(0, dtype=np.int64)


def greedy_rollout(
    mdp: Mdp, q_values: np.ndarray, max_steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, float, bool]:
    """Play one episode greedily under per-slot ``q_values``, ties to the
    lowest index.

    One uniform draw per step decides success; the episode ends at the
    terminal state, at ``max_steps``, or in a state with no actions.
    Returns each step's landing state (where it was taken, for a failed
    attempt), the total reward, and whether the terminal was reached.
    """

    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    # The compiled loop is typed for values it may write (it never does
    # here), which a frozen TabularQ's read-only array is not: copy that one.
    q_values = np.require(q_values, dtype=np.float64, requirements="W")
    if q_values.shape != (mdp.num_action_slots,):
        raise ValueError(
            f"expected {mdp.num_action_slots} per-slot values, got shape {q_values.shape}"
        )
    landings = np.empty(max_steps, dtype=np.int64)
    steps, total, reached = _kernels.episode_kernel(
        mdp.action_offsets,
        mdp.action_dest,
        mdp.action_success,
        mdp.action_reward,
        mdp.gamma,
        mdp.terminal_state,
        mdp.initial_state,
        max_steps,
        q_values,
        _NO_COUNTS,
        0.0,
        0.0,
        0.0,
        False,
        rng,
        landings,
    )
    return landings[:steps], float(total), bool(reached)


def _network_slot_values(mdp: Mdp, net: QNetwork) -> np.ndarray:
    """The network's action values gathered into the Mdp's per-slot layout."""

    local = np.arange(mdp.num_action_slots) - mdp.action_offsets[mdp.slot_state]
    return net.q_table()[mdp.slot_state, local]


def _tabular_learner(mdp: Mdp, cfg: TrainConfig, rng_init, rng_train) -> tuple[Callable, Callable]:
    q = np.zeros(mdp.num_action_slots, dtype=np.float64)
    counts = np.zeros(mdp.num_action_slots, dtype=np.float64)

    def episode(epsilon: float) -> None:
        _kernels.episode_kernel(
            mdp.action_offsets,
            mdp.action_dest,
            mdp.action_success,
            mdp.action_reward,
            mdp.gamma,
            mdp.terminal_state,
            mdp.initial_state,
            cfg.max_steps_per_episode,
            q,
            counts,
            cfg.learning_rate,
            cfg.learning_rate_decay,
            epsilon,
            True,
            rng_train,
            _NO_LANDINGS,
        )

    return episode, lambda episodes_done: q


def _dqn_learner(mdp: Mdp, cfg: TrainConfig, rng_init, rng_train) -> tuple[Callable, Callable]:
    action_counts = np.diff(mdp.action_offsets)
    max_actions = int(action_counts.max()) if action_counts.size else 1
    net = QNetwork(
        num_states=mdp.num_states,
        num_actions=max_actions,
        hidden_sizes=cfg.hidden_layers,
        rng=rng_init,
    )
    target = net.copy()
    replay = ReplayBuffer(cfg.replay_capacity)
    # (num_states, max_actions) admissibility mask, indexed by next state.
    mask = np.arange(max_actions)[None, :] < action_counts[:, None]
    steps_done = 0

    def episode(epsilon: float) -> None:
        nonlocal steps_done
        s = mdp.initial_state
        for _ in range(cfg.max_steps_per_episode):
            n_a = int(action_counts[s])
            if n_a == 0:
                break
            # Epsilon-greedy; the network row is read only to exploit.
            if rng_train.random() < epsilon:
                a = int(rng_train.integers(0, n_a))
            else:
                a = int(np.argmax(net.q_row(s)[:n_a]))
            slot = int(mdp.action_offsets[s]) + a
            if rng_train.random() < mdp.action_success[slot]:
                s2 = int(mdp.action_dest[slot])
                reward = float(mdp.action_reward[slot])
            else:
                s2 = s
                reward = 0.0
            done = s2 == mdp.terminal_state
            replay.push(s, a, reward, s2, done)
            if len(replay) >= cfg.batch_size:
                states, actions, rewards, next_states, dones = replay.sample(
                    cfg.batch_size, rng_train
                )
                _, grads = td_loss_and_gradients(
                    net,
                    target,
                    states,
                    actions,
                    rewards,
                    next_states,
                    dones,
                    mask[next_states],
                    mdp.gamma,
                )
                sgd_step(net, grads, cfg.learning_rate)
            steps_done += 1
            if steps_done % cfg.target_sync_interval == 0:
                target.load_from(net)
            s = s2
            if done:
                break

    def finite_slot_values(episodes_done: int) -> np.ndarray:
        values = _network_slot_values(mdp, net)
        if not np.isfinite(values).all():
            message = f"DQN diverged: non-finite action values after episode {episodes_done}"
            raise ConvergenceError(message, residual=float("nan"))
        return values

    return episode, finite_slot_values


def train(mdp: Mdp, cfg: TrainConfig) -> TrainResult:
    """Train one agent on one process under the shared episode protocol.

    The algorithm supplies ``episode(epsilon)``, which plays and learns from
    one training episode, and ``slot_values(episodes_done)``, its current
    per-slot action values; the schedule, the evaluation cadence, the curve
    and the final read-out are the same for both.
    """

    rng_init, rng_train, rng_eval = _streams(cfg.seed)
    learner = _tabular_learner if cfg.algorithm == "tabular" else _dqn_learner
    episode, slot_values = learner(mdp, cfg, rng_init, rng_train)
    curve: list[tuple[int, float]] = []
    for e in range(cfg.episodes):
        episode(cfg.epsilon_at(e))
        if (e + 1) % cfg.eval_interval == 0:
            _, total, _ = greedy_rollout(
                mdp, slot_values(e + 1), cfg.max_steps_per_episode, rng_eval
            )
            curve.append((e + 1, total))
    q = slot_values(cfg.episodes)
    q.setflags(write=False)
    return TrainResult(
        q=TabularQ(action_offsets=mdp.action_offsets, values=q), curve=tuple(curve)
    )
