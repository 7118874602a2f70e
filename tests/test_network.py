"""Value-network tests.

The backprop path is the one piece of hand-derived calculus in the package,
so it gets the classic treatment: analytic gradients checked against central
finite differences on random batches.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import make_mdp
from cybermdp.mdp import build_cvss_mdp, state_values
from cybermdp.netgen import ENTERPRISE_SCALE, generate
from cybermdp.network import QNetwork, _row_sums, sgd_step, td_loss_and_gradients
from cybermdp.solver import _network_slot_values
from oracles import (
    dense_gradients,
    finite_difference_grads,
    masked_max_target,
    one_hot_forward,
    parameters,
    reference_forward,
    reference_sgd_step,
    reference_td_loss_and_gradients,
    relative_gradient_error,
)


def random_batch(rng: np.random.Generator, net: QNetwork, batch: int):
    """Per-state next values frozen from ``net`` under a random
    admissibility mask, and a random batch (s, a, r, s', done)."""

    states = rng.integers(0, net.num_states, size=batch)
    actions = rng.integers(0, net.num_actions, size=batch)
    rewards = rng.normal(0.0, 5.0, size=batch)
    next_states = rng.integers(0, net.num_states, size=batch)
    done = rng.random(batch) < 0.25
    mask = rng.random((batch, net.num_actions)) < 0.7
    # A live transition must offer at least one admissible next action.
    for i in range(batch):
        if not done[i] and not mask[i].any():
            mask[i, int(rng.integers(0, net.num_actions))] = True
    # A state drawn twice keeps its last sample's value.
    next_values = np.zeros(net.num_states)
    next_values[next_states] = masked_max_target(net, next_states, mask)
    return next_values, (states, actions, rewards, next_states, done)


def ragged_mdp():
    """Six states owning 3, 1, 0, 0 (the terminal), 2 and 0 slots: two
    actionless non-terminals, one of them last."""

    slots = [3, 1, 0, 0, 2, 0]
    return make_mdp(
        states=("a", "b", "c", "t", "d", "e"),
        actions=[[(3, 0.5, 1.0)] * k for k in slots],
        gamma=0.9,
        terminal=3,
    )


HIDDEN_SHAPES = ((), (7,), (16, 8))


class TestEncoding:
    """The one-hot input, applied as a lookup of first-layer rows."""

    def test_one_hot_bounds(self):
        net = QNetwork(3, 2)
        for bad in (3, -1, np.array([0, 3]), np.array([-1])):
            with pytest.raises(IndexError):
                net.forward(bad)
        with pytest.raises(IndexError):
            net.q_row(-1)
        with pytest.raises(IndexError):
            net.q_row(net.num_states)

    def test_batch_encoding(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for hidden in HIDDEN_SHAPES:
            net = QNetwork(6, 4, hidden_sizes=hidden, rng=rng)
            batch = np.array([1, 0, 1, 5, 5, 2])
            np.testing.assert_array_equal(
                net.forward(batch), one_hot_forward(net, batch)
            )
            assert net.forward(np.array([], dtype=np.int64)).shape == (0, 4)


class TestQNetwork:
    def test_shapes(self):
        net = QNetwork(5, 3, hidden_sizes=(8, 4))
        assert [w.shape for w in net.weights] == [(5, 8), (8, 4), (4, 3)]
        assert [b.shape for b in net.biases] == [(8,), (4,), (3,)]
        assert net.forward(np.array([0, 4])).shape == (2, 3)
        assert net.forward(4).shape == (3,)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QNetwork(0, 3)
        with pytest.raises(ValueError):
            QNetwork(5, 0)
        with pytest.raises(ValueError):
            QNetwork(5, 3, hidden_sizes=(0,))

    def test_q_row_matches_forward(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for hidden in HIDDEN_SHAPES:
            net = QNetwork(6, 4, hidden_sizes=hidden, rng=rng)
            for s in range(6):
                expected = one_hot_forward(net, s)
                np.testing.assert_array_equal(net.q_row(s), expected)
                np.testing.assert_array_equal(net.forward(np.int64(s)), expected)

    def test_q_table_is_the_batch_of_all_states(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for hidden in HIDDEN_SHAPES:
            net = QNetwork(6, 4, hidden_sizes=hidden, rng=rng)
            table = net.q_table()
            assert table.shape == (6, 4)
            np.testing.assert_array_equal(table, one_hot_forward(net, np.arange(6)))

    def test_deterministic_init_per_rng_seed(self):
        a = QNetwork(5, 3, rng=np.random.Generator(np.random.PCG64(3)))
        b = QNetwork(5, 3, rng=np.random.Generator(np.random.PCG64(3)))
        for wa, wb in zip(parameters(a), parameters(b)):
            np.testing.assert_array_equal(wa, wb)


class TestTdLoss:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(20250817))
        net = QNetwork(6, 3, hidden_sizes=(10, 6), rng=rng)
        next_values, batch = random_batch(rng, net, 8)
        loss, grads = td_loss_and_gradients(net, next_values, *batch, 0.9)
        assert loss > 0.0
        numeric = finite_difference_grads(net, next_values, *batch, 0.9)
        assert relative_gradient_error(dense_gradients(net, grads), numeric) < 1e-4

    def test_gradient_check_without_hidden_layers(self):
        rng = np.random.Generator(np.random.PCG64(5))
        net = QNetwork(4, 2, hidden_sizes=(), rng=rng)
        next_values, batch = random_batch(rng, net, 6)
        _, grads = td_loss_and_gradients(net, next_values, *batch, 0.95)
        numeric = finite_difference_grads(net, next_values, *batch, 0.95)
        assert relative_gradient_error(dense_gradients(net, grads), numeric) < 1e-4

    def test_terminal_transitions_ignore_bootstrap(self):
        net = QNetwork(3, 2, rng=np.random.Generator(np.random.PCG64(9)))
        next_values = np.full(3, 50.0)
        states = np.array([0])
        actions = np.array([1])
        rewards = np.array([100.0])
        next_states = np.array([2])
        loss_done, _ = td_loss_and_gradients(
            net, next_values, states, actions, rewards, next_states,
            np.array([True]), 0.9,
        )
        q = net.q_row(0)[1]
        assert loss_done == pytest.approx((q - 100.0) ** 2, abs=1e-10)

    def test_fully_masked_next_state_bootstraps_zero(self):
        mdp = ragged_mdp()
        net = QNetwork(6, 3, rng=np.random.Generator(np.random.PCG64(9)))
        next_values = state_values(mdp, _network_slot_values(mdp, net))
        # State 2 is a non-terminal without actions: done is not set.
        loss, _ = td_loss_and_gradients(
            net,
            next_values,
            np.array([0]),
            np.array([0]),
            np.array([1.0]),
            np.array([2]),
            np.array([False]),
            0.9,
        )
        q = net.q_row(0)[0]
        assert loss == pytest.approx((q - 1.0) ** 2, abs=1e-10)

    def test_state_values_limit_bootstrap_to_admissible_actions(self):
        mdp = ragged_mdp()
        counts = np.diff(mdp.action_offsets)
        for hidden in HIDDEN_SHAPES:
            net = QNetwork(6, 3, hidden, rng=np.random.Generator(np.random.PCG64(14)))
            # The last action slot outscores every other, but only state 0 owns it.
            net.biases[-1][2] = 1e6
            values = state_values(mdp, _network_slot_values(mdp, net))
            table = net.q_table()
            expected = [table[s, :k].max() if k else 0.0 for s, k in enumerate(counts)]
            assert values.tolist() == expected
            assert values[[2, 3, 5]].tolist() == [0.0, 0.0, 0.0]
            assert values[0] > 1e5 > values[[1, 4]].max()
            mask = np.arange(3) < counts[:, None]
            assert bits(values) == bits(masked_max_target(net, np.arange(6), mask))

    def test_zero_loss_at_fixed_point(self):
        net = QNetwork(2, 1, hidden_sizes=(), rng=np.random.Generator(np.random.PCG64(0)))
        # Force exact consistency: Q(0,0) = r + gamma * Q(1,0).
        net.weights[0][...] = np.array([[5.0], [4.0]])
        net.biases[0][...] = 0.0
        loss, grads = td_loss_and_gradients(
            net,
            net.q_table()[:, 0],
            np.array([0]),
            np.array([0]),
            np.array([5.0 - 0.5 * 4.0]),
            np.array([1]),
            np.array([False]),
            0.5,
        )
        assert loss == pytest.approx(0.0, abs=1e-18)
        for g in dense_gradients(net, grads):
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_empty_batch_rejected(self):
        net = QNetwork(2, 1)
        with pytest.raises(ValueError, match="empty"):
            td_loss_and_gradients(
                net, np.zeros(2),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool), 0.9,
            )

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("actions", [0], ValueError),  # two states, one action
            ("rewards", [1.0, 2.0, 3.0], ValueError),
            ("next_states", [[1, 2]], ValueError),
            ("done", [False], ValueError),
            ("actions", [0, -1], IndexError),  # would score the last column
            ("next_states", [1, -2], IndexError),  # would read state 2's value
            ("actions", [0, 2], IndexError),
            ("next_states", [1, 4], IndexError),
            ("states", [0, -1], IndexError),
        ],
    )
    def test_malformed_batch_rejected(self, field, value, error):
        net = QNetwork(4, 2, hidden_sizes=(3,), rng=np.random.Generator(np.random.PCG64(8)))
        batch = {
            "states": [0, 1], "actions": [1, 0], "rewards": [1.0, 2.0],
            "next_states": [1, 2], "done": [False, True],
        }
        batch[field] = value
        with pytest.raises(error):
            td_loss_and_gradients(net, np.arange(4.0), gamma=0.9, **batch)


class TestSgd:
    def test_step_reduces_loss(self):
        rng = np.random.Generator(np.random.PCG64(77))
        net = QNetwork(5, 3, hidden_sizes=(12,), rng=rng)
        next_values, batch = random_batch(rng, net, 16)
        before, grads = td_loss_and_gradients(net, next_values, *batch, 0.9)
        sgd_step(net, grads, learning_rate=0.01)
        after, _ = td_loss_and_gradients(net, next_values, *batch, 0.9)
        assert after < before

    def test_updates_in_place(self):
        net = QNetwork(3, 2)
        w0 = net.weights[0]
        grads = [np.ones_like(p) for p in parameters(net)]
        grads[0] = (np.arange(net.num_states), grads[0])
        sgd_step(net, grads, learning_rate=0.5)
        assert net.weights[0] is w0

    def test_mismatched_grads_rejected(self):
        net = QNetwork(3, 2)
        with pytest.raises(ValueError, match="match"):
            sgd_step(net, [np.zeros(1)], learning_rate=0.1)


def bits(a: np.ndarray) -> bytes:
    """An array's exact bits, so that 0.0 and -0.0 differ."""

    return np.ascontiguousarray(a).tobytes()


class TestRowSparse:
    """The first weight matrix's gradient kept as the batch's rows alone."""

    def test_row_sums_scatter_to_dense_add_at(self):
        rng = np.random.Generator(np.random.PCG64(16))
        for _ in range(50):
            num_states = int(rng.integers(1, 40))
            # 32 draws over at most 40 states: repeats in almost every batch.
            states = rng.integers(0, num_states, size=32)
            values = rng.normal(size=(32, int(rng.integers(1, 9))))
            rows, sums = _row_sums(states, values)
            np.testing.assert_array_equal(rows, np.unique(states))
            dense = np.zeros((num_states, values.shape[1]))
            np.add.at(dense, states, values)
            scattered = np.zeros_like(dense)
            scattered[rows] = sums
            assert bits(scattered) == bits(dense)

    def test_sparse_step_equals_dense_step(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for hidden in HIDDEN_SHAPES:
            net = QNetwork(40, 4, hidden_sizes=hidden, rng=rng)
            next_values, (_, *rest) = random_batch(rng, net, 32)
            # Ten of the forty states: rows repeat, and most rows stay untouched.
            states = rng.integers(0, 10, size=32)
            _, grads = td_loss_and_gradients(net, next_values, states, *rest, 0.9)
            dense = copy.deepcopy(net)
            for p, g in zip(parameters(dense), dense_gradients(net, grads)):
                p -= 0.01 * g
            sgd_step(net, grads, learning_rate=0.01)
            for mine, theirs in zip(parameters(net), parameters(dense)):
                assert bits(mine) == bits(theirs)


def test_state_values_target_equals_deep_copy():
    mdp = build_cvss_mdp(generate(ENTERPRISE_SCALE))
    counts = np.diff(mdp.action_offsets)
    rng = np.random.Generator(np.random.PCG64(18))
    for hidden in ((64, 64), (16,), ()):
        net = QNetwork(mdp.num_states, int(counts.max()), hidden, rng=rng)
        next_values = state_values(mdp, _network_slot_values(mdp, net))
        for batch in (1, 2, 32, 100):
            states = rng.integers(0, mdp.num_states, size=batch)
            actions = rng.integers(0, net.num_actions, size=batch)
            rewards = rng.normal(0.0, 5.0, size=batch)
            next_states = rng.integers(0, mdp.num_states, size=batch)
            done = rng.random(batch) < 0.25
            mask = np.arange(net.num_actions) < counts[next_states, None]
            # The reference holds one value per sample, so sample i reads entry i.
            reference = masked_max_target(net, next_states, mask)
            loss_s, grads_s = td_loss_and_gradients(
                net, next_values, states, actions, rewards, next_states, done, mdp.gamma
            )
            loss_r, grads_r = td_loss_and_gradients(
                net, reference, states, actions, rewards, np.arange(batch), done, mdp.gamma
            )
            assumption = (
                "the state-value target differs from a deep target copy's masked max: "
                "this BLAS gives a matrix product row that depends on how many rows are "
                f"multiplied (hidden {hidden}, batch {batch})"
            )
            assert bits(np.float64(loss_s)) == bits(np.float64(loss_r)), assumption
            for g_s, g_r in zip(dense_gradients(net, grads_s), dense_gradients(net, grads_r)):
                assert bits(g_s) == bits(g_r), assumption


class TestReferenceStep:
    """The DQN step against its plainer reference in ``oracles``, bit for bit."""

    @pytest.mark.parametrize("hidden", ((), (7,), (16, 8), (64, 64), (8, 8, 8)))
    def test_consecutive_updates_match_the_reference(self, hidden):
        rng = np.random.Generator(np.random.PCG64(23))
        num_states, num_actions = 30, 5
        net = QNetwork(num_states, num_actions, hidden, rng=rng)
        ref = copy.deepcopy(net)

        def params(n):
            return [bits(p) for p in parameters(n)]

        for step in range(1_000):
            # Batches of 1 to 100 drawn from at most 6 states, so rows repeat.
            batch = int(rng.integers(1, 101))
            pool = rng.choice(num_states, size=int(rng.integers(1, 7)), replace=False)
            states = rng.choice(pool, size=batch)
            actions = rng.integers(0, num_actions, size=batch)
            rewards = rng.normal(0.0, 1.0, size=batch)
            rewards[rng.random(batch) < 0.2] = -0.0
            next_states = rng.integers(0, num_states, size=batch)
            done = rng.random(batch) < rng.choice([0.0, 0.3, 1.0])
            next_values = rng.normal(0.0, 1.0, size=num_states)
            next_values[rng.random(num_states) < 0.2] = -0.0
            if step % 50 == 0:
                # Signed zeros in the parameters too, on both twins.
                row = int(rng.choice(pool))
                for n in (net, ref):
                    n.weights[0][row, ::2] = -0.0
                    n.biases[0][::3] = -0.0
            args = (next_values, states, actions, rewards, next_states, done, 0.9)

            before = params(net)
            q_batch = net.forward(states)
            q_one = net.q_row(int(states[0]))
            table = net.q_table()
            assert params(net) == before, "a forward pass wrote into a parameter"
            assert bits(q_batch) == bits(reference_forward(ref, states))
            assert bits(q_one) == bits(reference_forward(ref, int(states[0])))
            assert bits(table) == bits(reference_forward(ref, np.arange(num_states)))

            loss, grads = td_loss_and_gradients(net, *args)
            ref_loss, ref_grads = reference_td_loss_and_gradients(ref, *args)
            assert bits(np.float64(loss)) == bits(np.float64(ref_loss)), step
            (rows, row_grads), *dense = grads
            (ref_rows, ref_row_grads), *ref_dense = ref_grads
            assert rows.tolist() == ref_rows.tolist()
            assert bits(row_grads) == bits(ref_row_grads), step
            assert [bits(g) for g in dense] == [bits(g) for g in ref_dense], step
            sgd_step(net, grads, 0.01)
            reference_sgd_step(ref, ref_grads, 0.01)
            assert params(net) == params(ref), step
