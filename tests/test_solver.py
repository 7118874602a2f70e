"""Solver tests: config validation, update math, replay, training runs."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import DESK_PARAMS, make_mdp
from cybermdp.graph import Protocol
from cybermdp.mdp import ConvergenceError, build_cvss_mdp, value_iteration
from cybermdp.netgen import ENTERPRISE_SCALE, TopologyParams, generate, plant_gauntlet
from cybermdp import solver
from cybermdp._kernels import _episode_loop
from cybermdp.network import QNetwork
from cybermdp.solver import (
    ALGORITHMS,
    ReplayBuffer,
    TabularQ,
    TrainConfig,
    _network_slot_values,
    train,
)


def config_with(**overrides) -> TrainConfig:
    base = dict(episodes=100, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"episodes": 0},
            {"algorithm": "sarsa"},
            {"max_steps_per_episode": 0},
            {"eval_interval": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -0.1},
            {"learning_rate_decay": -0.5},
            {"epsilon_start": 1.2},
            {"epsilon_end": -0.1},
            {"epsilon_start": 0.1, "epsilon_end": 0.5},
            {"epsilon_decay_episodes": 0},
            {"replay_capacity": 0},
            {"batch_size": 0},
            {"replay_capacity": 8, "batch_size": 9},
            {"target_sync_interval": 0},
            {"hidden_layers": (0,)},
            {"learning_rate": 3.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf, "algorithm": "dqn"},
            {"learning_rate": math.nan, "algorithm": "dqn"},
            {"learning_rate_decay": math.nan},
            {"learning_rate_decay": math.inf},
            {"seed": -1},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValueError):
            config_with(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("episodes", 2.5),
            ("eval_interval", 1.5),
            ("max_steps_per_episode", 2.5),
            ("epsilon_decay_episodes", 3.0),
            ("replay_capacity", 100.0),
            ("batch_size", 2.5),
            ("target_sync_interval", True),
            ("seed", 1.5),
            ("seed", False),
            ("hidden_layers", (8, 4.0)),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # Let through, episodes=2.5 would play three episodes, and
        # eval_interval=1.5 would write episode numbers 1.5 and 3.0 into the
        # curve.
        name = "hidden_layers[1]" if field == "hidden_layers" else field
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer"):
            config_with(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = config_with(episodes=np.int64(5), seed=np.uint32(3), hidden_layers=(np.int32(4),))
        assert (cfg.episodes, cfg.seed, cfg.hidden_layers) == (5, 3, (4,))

    def test_dqn_learning_rate_may_exceed_one(self):
        # Only a tabular step size is a mixing weight bounded by 1.
        assert config_with(algorithm="dqn", learning_rate=2.0).learning_rate == 2.0

    def test_algorithms_tuple(self):
        assert ALGORITHMS == ("tabular", "dqn")

    def test_epsilon_schedule_boundaries(self):
        cfg = config_with(
            episodes=100, epsilon_start=1.0, epsilon_end=0.1,
            epsilon_decay_episodes=50,
        )
        assert cfg.epsilon_at(0) == 1.0
        assert cfg.epsilon_at(25) == pytest.approx(0.55)
        assert cfg.epsilon_at(50) == pytest.approx(0.1)
        assert cfg.epsilon_at(99) == pytest.approx(0.1)

    def test_epsilon_default_span_is_eighty_percent(self):
        cfg = config_with(episodes=100, epsilon_start=1.0, epsilon_end=0.0)
        assert cfg.epsilon_at(80) == pytest.approx(0.0)
        assert cfg.epsilon_at(40) == pytest.approx(0.5)

    @pytest.mark.parametrize("span", [None, 7])
    def test_epsilon_follows_its_closed_form_after_replace(self, span):
        # The span is worked out once per config; replace() must redo it.
        cfg = config_with(episodes=30, epsilon_start=0.9, epsilon_end=0.1,
                          epsilon_decay_episodes=span)
        for episodes in (30, 101, 1):
            cfg = dataclasses.replace(cfg, episodes=episodes)
            decay = span if span is not None else max(1, int(round(0.8 * episodes)))
            for e in range(episodes + 2):
                assert cfg.epsilon_at(e) == 0.9 + (0.1 - 0.9) * min(1.0, e / decay)
        assert cfg == config_with(episodes=1, epsilon_start=0.9, epsilon_end=0.1,
                                  epsilon_decay_episodes=span)
        assert "_epsilon_span" not in repr(cfg)


def one_update(q, reward, alpha, gamma, terminal):
    """q after the first step of one greedy episode from state 0, whose one
    slot moves to state 1 with certainty and pays ``reward``.  Slot 1 belongs
    to state 1 and holds the bootstrap value; state 2 has no actions."""

    q = np.array(q, dtype=np.float64)
    _episode_loop(
        np.array([0, 1, 2, 2], dtype=np.int64),
        np.array([1, 2], dtype=np.int64),
        np.array([1.0, 1.0]),
        np.array([reward, 0.0]),
        gamma, terminal, 0, 1, q, np.zeros(2), alpha, 0.0, [0.0], True,
        np.random.default_rng(0), np.empty(0, dtype=np.int64),
    )
    return q[0]


class TestQUpdate:
    """The tabular backup q + alpha * (r + gamma * max_next * (1 - done) - q)
    as the episode loop applies it."""

    def test_worked_example(self):
        got = one_update([10.0, 20.0], reward=1.0, alpha=0.5, gamma=0.9, terminal=2)
        assert got == pytest.approx(14.5, abs=1e-12)

    def test_full_step_on_terminal(self):
        assert one_update([3.0, 55.0], 100.0, alpha=1.0, gamma=0.9, terminal=1) == 100.0

    def test_zero_alpha_freezes(self):
        assert one_update([10.0, 20.0], 1.0, alpha=0.0, gamma=0.9, terminal=2) == 10.0

    def test_done_drops_bootstrap(self):
        with_boot = one_update([0.0, 50.0], 1.0, 0.5, 0.9, terminal=2)
        without = one_update([0.0, 50.0], 1.0, 0.5, 0.9, terminal=1)
        assert with_boot == pytest.approx(0.5 * (1.0 + 45.0))
        assert without == pytest.approx(0.5)


class TestValueContainers:
    def test_tabular_q_slices_per_state(self):
        offsets = np.array([0, 2, 3, 3], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0])
        q = TabularQ(action_offsets=offsets, values=values)
        np.testing.assert_array_equal(q.action_values(0), [1.0, 2.0])
        np.testing.assert_array_equal(q.action_values(1), [3.0])
        assert q.action_values(2).size == 0

    def test_dqn_train_returns_slot_aligned_tabular_q(self):
        # State a has two slots, b has one, t none; the network has one
        # output per slot of the widest state and each state keeps its own.
        mdp = make_mdp(
            states=("a", "b", "t"),
            actions=[[(1, 0.9, 1.0), (2, 0.3, 100.0)], [(2, 0.9, 100.0)], []],
            gamma=0.9,
        )
        cfg = config_with(
            episodes=4, algorithm="dqn", hidden_layers=(8,), batch_size=4,
            replay_capacity=50, max_steps_per_episode=20,
        )
        q = train(mdp, cfg).q
        assert isinstance(q, TabularQ)
        assert q.action_offsets is mdp.action_offsets
        assert q.values.shape == (mdp.num_action_slots,)
        assert not q.values.flags.writeable
        assert q.action_values(0).shape == (2,)
        assert q.action_values(1).shape == (1,)
        assert q.action_values(2).size == 0


class TestReplayBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    def test_size_never_exceeds_capacity(self):
        buf = ReplayBuffer(3)
        for i in range(7):
            buf.push(i, 0, float(i), i, False)
            assert len(buf) <= 3
        assert len(buf) == 3

    def test_eviction_is_oldest_first(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.push(i, 0, float(i), i, False)
        rng = np.random.default_rng(0)
        states, *_ = buf.sample(200, rng)
        assert set(states.tolist()) == {2, 3, 4}

    def test_sample_with_replacement(self):
        buf = ReplayBuffer(4)
        buf.push(1, 0, 1.0, 1, False)
        states, actions, rewards, next_states, done = buf.sample(
            10, np.random.default_rng(0)
        )
        assert states.shape == (10,)
        assert np.all(states == 1)
        assert rewards.dtype == np.float64 and done.dtype == bool

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ReplayBuffer(2).sample(1, np.random.default_rng(0))

    def test_round_trips_fields(self):
        buf = ReplayBuffer(2)
        buf.push(3, 1, -1.5, 4, True)
        s, a, r, s2, d = buf.sample(1, np.random.default_rng(0))
        assert (int(s[0]), int(a[0]), float(r[0]), int(s2[0]), bool(d[0])) == (
            3, 1, -1.5, 4, True,
        )


@pytest.fixture(scope="module")
def training_mdp():
    g = generate(TopologyParams(2, 5, 0.2, 2, 0.5, seed=5))
    return build_cvss_mdp(g)


class TestTraining:
    def test_same_seed_reproduces_exactly(self, training_mdp):
        cfg = config_with(episodes=40, learning_rate=0.3)
        a = train(training_mdp, cfg)
        b = train(training_mdp, cfg)
        assert a.curve == b.curve
        np.testing.assert_array_equal(a.q.values, b.q.values)

    def test_different_seeds_differ(self, training_mdp):
        a = train(training_mdp, config_with(episodes=40, seed=0))
        b = train(training_mdp, config_with(episodes=40, seed=1))
        assert not np.array_equal(a.q.values, b.q.values)

    def test_curve_follows_eval_interval(self, training_mdp):
        cfg = config_with(episodes=21, eval_interval=4)
        result = train(training_mdp, cfg)
        assert [ep for ep, _ in result.curve] == [4, 8, 12, 16, 20]

    def test_tabular_greedy_matches_value_iteration(self):
        # Small process, generous training: the learned greedy action must
        # agree with the exact solver wherever the gap is decisive.
        g = generate(TopologyParams(2, 4, 0.2, 1, 0.5, seed=2))
        mdp = build_cvss_mdp(g)
        res = value_iteration(mdp, tol=1e-10)
        cfg = config_with(
            episodes=3000, learning_rate=0.5, learning_rate_decay=0.7,
            epsilon_end=0.2, seed=3,
        )
        learned = train(mdp, cfg).q
        from cybermdp.mdp import action_values

        for s in range(mdp.num_states):
            if s == mdp.terminal_state or mdp.num_actions(s) == 0:
                continue
            q_exact = action_values(mdp, res.values, s)
            best = np.max(q_exact)
            runner_up = np.max(q_exact[q_exact < best]) if np.any(q_exact < best) else best
            if best - runner_up <= 0.01:
                continue
            assert int(np.argmax(learned.action_values(s))) == int(np.argmax(q_exact))

    def test_dqn_runs_and_reproduces(self, training_mdp):
        cfg = config_with(
            episodes=12, algorithm="dqn", hidden_layers=(16,),
            batch_size=16, replay_capacity=500, max_steps_per_episode=60,
        )
        a = train(training_mdp, cfg)
        b = train(training_mdp, cfg)
        assert a.curve == b.curve
        assert len(a.curve) == 12 // cfg.eval_interval
        np.testing.assert_array_equal(a.q.values, b.q.values)

    def test_step_cap_bounds_episode_length(self):
        # Two states, the only action loops back to the start with p = 1,
        # so only the cap can end an episode and training must still finish.
        mdp = make_mdp(
            states=("a", "b", "t"),
            actions=[[(1, 1.0, 0.0)], [(0, 1.0, 0.0), (2, 0.0, 100.0)], []],
            gamma=0.9,
        )
        cfg = config_with(episodes=3, max_steps_per_episode=50, eval_interval=1,
                          epsilon_start=0.0, epsilon_end=0.0)
        result = train(mdp, cfg)
        assert result.curve[-1][1] == 0.0

    def test_dqn_episode_ends_in_an_actionless_state(self, monkeypatch):
        # a's one action always lands on a sink that has no actions and is
        # not the terminal: every episode is one step and one TD update.
        calls = []
        td = solver.td_loss_and_gradients
        monkeypatch.setattr(
            solver, "td_loss_and_gradients", lambda *args: calls.append(1) or td(*args)
        )
        mdp = make_mdp(states=("a", "sink", "t"), actions=[[(1, 1.0, 1.0)], [], []], gamma=0.9)
        cfg = config_with(episodes=5, algorithm="dqn", hidden_layers=(4,), batch_size=1)
        train(mdp, cfg)
        assert len(calls) == 5

    def test_process_gamma_changes_learning(self):
        # The learners take the discount from the process alone.
        g = generate(TopologyParams(2, 5, 0.2, 2, 0.5, seed=5))
        low = train(build_cvss_mdp(g, gamma=0.2), config_with(episodes=60))
        high = train(build_cvss_mdp(g, gamma=0.99), config_with(episodes=60))
        assert not np.array_equal(low.q.values, high.q.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dqn_divergence_raises(self):
        # At learning rate 0.2 this network overflows within 8 episodes;
        # its values must not come back as a normal-looking result.
        mdp = build_cvss_mdp(plant_gauntlet(DESK_PARAMS, {Protocol.FTP}))
        cfg = config_with(
            episodes=8, algorithm="dqn", max_steps_per_episode=60,
            learning_rate=0.2, seed=4,
        )
        with pytest.raises(ConvergenceError, match="after episode 8"):
            train(mdp, cfg)

    @pytest.mark.parametrize("epsilon, row_reads_per_step", [(1.0, 0), (0.0, 1)])
    def test_dqn_reads_network_row_only_to_exploit(
        self, training_mdp, monkeypatch, epsilon, row_reads_per_step
    ):
        calls = {"q_row": 0, "push": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(QNetwork, "q_row", counting("q_row", QNetwork.q_row))
        monkeypatch.setattr(ReplayBuffer, "push", counting("push", ReplayBuffer.push))
        cfg = config_with(
            episodes=3, algorithm="dqn", hidden_layers=(8,), batch_size=4,
            replay_capacity=50, max_steps_per_episode=30,
            epsilon_start=epsilon, epsilon_end=epsilon,
        )
        train(training_mdp, cfg)
        assert calls["push"] > 0  # one push per training step
        assert calls["q_row"] == row_reads_per_step * calls["push"]

    def test_learned_values_are_frozen(self, training_mdp):
        result = train(training_mdp, config_with(episodes=8))
        with pytest.raises(ValueError):
            result.q.values[0] = 1.0


# Batched and per-row forward passes sum in different orders; 1024 ulps of
# the row magnitude is far above that rounding and far below any real gap.
BATCHED_ROW_TOL = 1024 * np.finfo(np.float64).eps


@pytest.mark.parametrize("hidden", [(64, 64), (16,), ()])
def test_network_slot_values_match_q_row(hidden):
    fixtures = (
        build_cvss_mdp(generate(ENTERPRISE_SCALE)),
        build_cvss_mdp(generate(DESK_PARAMS)),
        build_cvss_mdp(plant_gauntlet(DESK_PARAMS, frozenset({Protocol.FTP}))),
    )
    for mdp in fixtures:
        counts = np.diff(mdp.action_offsets)
        for seed in range(3):
            net = QNetwork(
                mdp.num_states, int(counts.max()), hidden,
                rng=np.random.Generator(np.random.PCG64(seed)),
            )
            table = _network_slot_values(mdp, net)
            for s in range(mdp.num_states):
                row = net.q_row(s)[: counts[s]]
                got = table[mdp.action_offsets[s] : mdp.action_offsets[s + 1]]
                atol = BATCHED_ROW_TOL * max(1.0, float(np.max(np.abs(row), initial=0.0)))
                np.testing.assert_allclose(got, row, rtol=0.0, atol=atol)
                if row.size:
                    assert np.argmax(got) == np.argmax(row)
