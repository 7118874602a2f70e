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
only how to play a run of training episodes, one per exploration rate,
and how to read out its per-slot action values.  ``tabular`` keeps one
value per action slot and plays each evaluation interval's episodes in one
call of the episode loop of ``_kernels``; ``dqn`` plays them one by one,
training the plain-numpy network from :mod:`cybermdp.network` with uniform
experience replay (a ring buffer, so eviction is oldest-first), a target
frozen at each hard sync as the network's greedy state values (one value
per state, read with :func:`~cybermdp.mdp.state_values`, a gather per
step) and row-sparse vanilla SGD (only the first-layer rows of the batch's
states change); it raises :class:`~cybermdp.mdp.ConvergenceError` once its
values go non-finite.  Either way the result is a
:class:`TabularQ`: the trained network's values are read out into the same
per-slot layout, and :func:`rollout_greedy` plays either one's greedy
episode through that same episode loop, with learning off, as an
:class:`EpisodeTrace` of named states.  Training curves and
:mod:`cybermdp.evaluate` both use its body.

The loop runs over what ``_kernels`` prepares for the backend: the
process through ``loop_process``, the values and exploration rates
through ``loop_view``, and a tabular training run's draws through
``loop_draws``; this module makes no backend choice of its own.  Every
greedy rollout draws from its Generator itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .mdp import ConvergenceError, Mdp, state_slots, state_values
from .network import QNetwork, sgd_step, td_loss_and_gradients

ALGORITHMS = ("tabular", "dqn")
# The TrainConfig fields that count or seed; each hidden layer's size is
# checked with them.
_INTEGER_FIELDS = (
    "episodes", "max_steps_per_episode", "eval_interval", "epsilon_decay_episodes",
    "replay_capacity", "batch_size", "target_sync_interval", "seed",
)


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
        integers = {name: getattr(self, name) for name in _INTEGER_FIELDS}
        if self.epsilon_decay_episodes is None:
            del integers["epsilon_decay_episodes"]
        integers.update((f"hidden_layers[{i}]", h) for i, h in enumerate(self.hidden_layers))
        # A float passes the range checks below and then plays a rounded-up
        # count or fails inside numpy; a bool is no count.
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        # Not a field, so equality and repr ignore it and replace() redoes it.
        span = self.epsilon_decay_episodes
        if span is None:
            span = max(1, int(round(0.8 * self.episodes)))
        object.__setattr__(self, "_epsilon_span", span)

    def epsilon_at(self, episode: int | np.ndarray) -> float | np.ndarray:
        """Exploration rate for a 0-based episode index, or the array of
        rates for an integer array of them."""

        frac = np.minimum(1.0, episode / self._epsilon_span)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


@dataclass(frozen=True, eq=False)
class TabularQ:
    """Flat per-slot action values aligned with an Mdp's action arrays."""

    action_offsets: np.ndarray
    values: np.ndarray

    def action_values(self, state: int) -> np.ndarray:
        return self.values[state_slots(self.action_offsets, state)]


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


# At most this many training episodes per learner call, so that a chunk's
# epsilons stay small whatever the evaluation interval.
_MAX_CHUNK = 4096


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


def rollout_greedy(
    mdp: Mdp, q: TabularQ, rng: np.random.Generator, max_steps: int = 2500
) -> EpisodeTrace:
    """Play one episode greedily under ``q``, ties to the lowest index.

    One uniform draw per step decides success; the episode ends at the
    terminal state, at ``max_steps``, or in a state with no actions, and
    ``rng`` is left where those draws leave it.  Raises ValueError when
    ``max_steps`` landings do not fit in memory.
    """

    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    q_values = np.asarray(q.values, dtype=np.float64)
    if q_values.shape != (mdp.num_action_slots,):
        raise ValueError(
            f"expected {mdp.num_action_slots} per-slot values, got shape {q_values.shape}"
        )
    landings, total, reached = _greedy_player(mdp, rng, max_steps)(q_values)
    visited = (mdp.initial_state, *landings.tolist()) if len(landings) else ()
    # Through a list: tuple() over a generator grows by reallocation.
    return EpisodeTrace(tuple([mdp.states[s] for s in visited]), total, reached)


def _greedy_player(
    mdp: Mdp, rng: np.random.Generator, max_steps: int
) -> Callable[[np.ndarray], tuple[np.ndarray, float, bool]]:
    """The body of :func:`rollout_greedy` over inputs prepared once.

    ``play(q_values)`` plays one greedy episode under per-slot values and
    returns ``(landings, total_reward, reached_terminal)``; the landings
    are a view that the next call overwrites.  Every call reads
    the same views of the process and draws on from ``rng``.
    """

    try:
        landings = np.empty(max_steps, dtype=np.int64)
    except MemoryError:
        raise ValueError(
            f"max_steps {max_steps} is too large: no memory to record that many landings"
        ) from None
    process = _kernels.loop_process(mdp)

    def play(q_values: np.ndarray) -> tuple[np.ndarray, float, bool]:
        steps, total, reached = _kernels.episode_kernel(
            *process,
            max_steps,
            _kernels.loop_view(q_values),
            _kernels._NO_COUNTS,
            0.0,
            0.0,
            _kernels._ONE_EPISODE,
            False,
            rng,
            landings,
        )
        return landings[:steps], float(total), bool(reached)

    return play


def _network_slot_values(mdp: Mdp, net: QNetwork) -> np.ndarray:
    """The network's action values gathered into the Mdp's per-slot layout."""

    local = np.arange(mdp.num_action_slots) - mdp.action_offsets[mdp.slot_state]
    return net.q_table()[mdp.slot_state, local]


def _tabular_learner(mdp: Mdp, cfg: TrainConfig, rng_init, rng_train) -> tuple[Callable, Callable]:
    n = mdp.num_action_slots
    process = _kernels.loop_process(mdp)
    q, counts = _kernels.loop_view(np.zeros(n)), _kernels.loop_view(np.zeros(n))
    # One replay spans the run: nothing else draws from rng_train.
    draws = _kernels.loop_draws(rng_train)

    def play(epsilons: np.ndarray) -> None:
        _kernels.episode_kernel(
            *process,
            cfg.max_steps_per_episode,
            q,
            counts,
            cfg.learning_rate,
            cfg.learning_rate_decay,
            _kernels.loop_view(epsilons),
            True,
            draws,
            _kernels._NO_LANDINGS,
        )

    def slot_values(episodes_done: int) -> np.ndarray:
        return np.array(q, dtype=np.float64)

    return play, slot_values


def _dqn_learner(mdp: Mdp, cfg: TrainConfig, rng_init, rng_train) -> tuple[Callable, Callable]:
    action_counts = np.diff(mdp.action_offsets)
    max_actions = int(action_counts.max())
    net = QNetwork(
        num_states=mdp.num_states,
        num_actions=max_actions,
        hidden_sizes=cfg.hidden_layers,
        rng=rng_init,
    )
    # Frozen between hard syncs, the target is kept as each state's greedy
    # value, so each step's bootstrap is a gather.
    target = state_values(mdp, _network_slot_values(mdp, net))
    replay = ReplayBuffer(cfg.replay_capacity)
    # Read per step, so as lists: a list item is cheaper to read than an
    # array's, and holds the same value.
    counts, offsets, success, dest, reward_of = (
        a.tolist()
        for a in (action_counts, mdp.action_offsets, mdp.action_success,
                  mdp.action_dest, mdp.action_reward)
    )
    steps_done = 0

    def play(epsilons: np.ndarray) -> None:
        nonlocal steps_done, target
        # Bound once per call, not per step.  The network calls are looked
        # up here, by name, so a wrapper installed on them between calls
        # (a benchmark hook, a test's counter) sees every call.
        q_row = net.q_row
        td_step, sgd = td_loss_and_gradients, sgd_step
        random, integers = rng_train.random, rng_train.integers
        push, sample = replay.push, replay.sample
        batch_size, learning_rate, sync = (
            cfg.batch_size, cfg.learning_rate, cfg.target_sync_interval
        )
        max_steps, gamma = cfg.max_steps_per_episode, mdp.gamma
        initial, terminal = mdp.initial_state, mdp.terminal_state
        for epsilon in epsilons.tolist():
            s = initial
            for _ in range(max_steps):
                n_a = counts[s]
                if n_a == 0:
                    break
                # Epsilon-greedy; the network row is read only to exploit.
                if random() < epsilon:
                    a = int(integers(0, n_a))
                else:
                    a = int(q_row(s)[:n_a].argmax())
                slot = offsets[s] + a
                if random() < success[slot]:
                    s2 = dest[slot]
                    reward = reward_of[slot]
                else:
                    s2 = s
                    reward = 0.0
                done = s2 == terminal
                push(s, a, reward, s2, done)
                if len(replay) >= batch_size:
                    _, grads = td_step(net, target, *sample(batch_size, rng_train), gamma)
                    sgd(net, grads, learning_rate)
                steps_done += 1
                if steps_done % sync == 0:
                    target = state_values(mdp, _network_slot_values(mdp, net))
                s = s2
                if done:
                    break

    def finite_slot_values(episodes_done: int) -> np.ndarray:
        values = _network_slot_values(mdp, net)
        if not np.isfinite(values).all():
            message = f"DQN diverged: non-finite action values after episode {episodes_done}"
            raise ConvergenceError(message, residual=float("nan"))
        return values

    return play, finite_slot_values


def train(mdp: Mdp, cfg: TrainConfig) -> TrainResult:
    """Train one agent on one process under the shared episode protocol.

    The algorithm supplies ``play(epsilons)``, which plays and learns from
    one training episode per given exploration rate, in order, and
    ``slot_values(episodes_done)``, its current per-slot action values; the
    schedule, the evaluation cadence, the curve and the final read-out are
    the same for both.  Training runs in chunks that end at each
    evaluation (or after ``_MAX_CHUNK`` episodes), with the chunk's rates
    from ``cfg.epsilon_at``.  Every evaluation is a greedy rollout over
    the same prepared inputs and draws on from the private evaluation
    stream.
    """

    rng_init, rng_train, rng_eval = _streams(cfg.seed)
    learner = _tabular_learner if cfg.algorithm == "tabular" else _dqn_learner
    play, slot_values = learner(mdp, cfg, rng_init, rng_train)
    play_greedy = _greedy_player(mdp, rng_eval, cfg.max_steps_per_episode)
    curve: list[tuple[int, float]] = []
    played = 0
    while played < cfg.episodes:
        next_eval = (played // cfg.eval_interval + 1) * cfg.eval_interval
        stop = min(next_eval, cfg.episodes, played + _MAX_CHUNK)
        play(cfg.epsilon_at(np.arange(played, stop)))
        played = stop
        if played == next_eval:
            _, total, _ = play_greedy(slot_values(played))
            curve.append((played, total))
    q = slot_values(cfg.episodes)
    q.setflags(write=False)
    return TrainResult(
        q=TabularQ(action_offsets=mdp.action_offsets, values=q), curve=tuple(curve)
    )
