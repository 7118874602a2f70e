"""Value-network tests.

The backprop path is the one piece of hand-derived calculus in the package,
so it gets the classic treatment: analytic gradients checked against central
finite differences on random batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from cybermdp.network import QNetwork, sgd_step, td_loss_and_gradients
from oracles import finite_difference_grads, one_hot_forward, relative_gradient_error


def random_batch(rng: np.random.Generator, net: QNetwork, batch: int):
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
    return states, actions, rewards, next_states, done, mask


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
        for wa, wb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(wa, wb)

    def test_copy_is_independent(self):
        net = QNetwork(4, 2)
        clone = net.copy()
        clone.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != clone.weights[0][0, 0]

    def test_load_from_syncs_in_place(self):
        net = QNetwork(4, 2, rng=np.random.Generator(np.random.PCG64(1)))
        other = QNetwork(4, 2, rng=np.random.Generator(np.random.PCG64(2)))
        views = net.parameters()
        net.load_from(other)
        for view, theirs in zip(views, other.parameters()):
            np.testing.assert_array_equal(view, theirs)


class TestTdLoss:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(20250817))
        net = QNetwork(6, 3, hidden_sizes=(10, 6), rng=rng)
        target = net.copy()
        states, actions, rewards, next_states, done, mask = random_batch(rng, net, 8)
        loss, grads = td_loss_and_gradients(
            net, target, states, actions, rewards, next_states, done, mask, 0.9
        )
        assert loss > 0.0
        numeric = finite_difference_grads(
            net, target, states, actions, rewards, next_states, done, mask, 0.9
        )
        assert relative_gradient_error(grads, numeric) < 1e-4

    def test_gradient_check_without_hidden_layers(self):
        rng = np.random.Generator(np.random.PCG64(5))
        net = QNetwork(4, 2, hidden_sizes=(), rng=rng)
        target = net.copy()
        states, actions, rewards, next_states, done, mask = random_batch(rng, net, 6)
        _, grads = td_loss_and_gradients(
            net, target, states, actions, rewards, next_states, done, mask, 0.95
        )
        numeric = finite_difference_grads(
            net, target, states, actions, rewards, next_states, done, mask, 0.95
        )
        assert relative_gradient_error(grads, numeric) < 1e-4

    def test_terminal_transitions_ignore_bootstrap(self):
        net = QNetwork(3, 2, rng=np.random.Generator(np.random.PCG64(9)))
        target = net.copy()
        states = np.array([0])
        actions = np.array([1])
        rewards = np.array([100.0])
        next_states = np.array([2])
        mask = np.ones((1, 2), dtype=bool)
        loss_done, _ = td_loss_and_gradients(
            net, target, states, actions, rewards, next_states,
            np.array([True]), mask, 0.9,
        )
        q = net.q_row(0)[1]
        assert loss_done == pytest.approx((q - 100.0) ** 2, abs=1e-10)

    def test_fully_masked_next_state_bootstraps_zero(self):
        net = QNetwork(3, 2, rng=np.random.Generator(np.random.PCG64(9)))
        target = net.copy()
        loss, _ = td_loss_and_gradients(
            net,
            target,
            np.array([0]),
            np.array([0]),
            np.array([1.0]),
            np.array([1]),
            np.array([False]),
            np.zeros((1, 2), dtype=bool),
            0.9,
        )
        q = net.q_row(0)[0]
        assert loss == pytest.approx((q - 1.0) ** 2, abs=1e-10)

    def test_mask_limits_bootstrap_argmax(self):
        net = QNetwork(3, 2, rng=np.random.Generator(np.random.PCG64(14)))
        target = net.copy()
        args = (np.array([0]), np.array([0]), np.array([0.0]), np.array([1]),
                np.array([False]))
        only_first = np.array([[True, False]])
        only_second = np.array([[False, True]])
        loss_first, _ = td_loss_and_gradients(net, target, *args, only_first, 0.9)
        loss_second, _ = td_loss_and_gradients(net, target, *args, only_second, 0.9)
        q0 = net.q_row(0)[0]
        next_q = target.q_row(1)
        assert loss_first == pytest.approx((q0 - 0.9 * next_q[0]) ** 2, abs=1e-10)
        assert loss_second == pytest.approx((q0 - 0.9 * next_q[1]) ** 2, abs=1e-10)

    def test_zero_loss_at_fixed_point(self):
        net = QNetwork(2, 1, hidden_sizes=(), rng=np.random.Generator(np.random.PCG64(0)))
        # Force exact consistency: Q(0,0) = r + gamma * Q(1,0).
        net.weights[0][...] = np.array([[5.0], [4.0]])
        net.biases[0][...] = 0.0
        target = net.copy()
        loss, grads = td_loss_and_gradients(
            net,
            target,
            np.array([0]),
            np.array([0]),
            np.array([5.0 - 0.5 * 4.0]),
            np.array([1]),
            np.array([False]),
            np.ones((1, 1), dtype=bool),
            0.5,
        )
        assert loss == pytest.approx(0.0, abs=1e-18)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_empty_batch_rejected(self):
        net = QNetwork(2, 1)
        with pytest.raises(ValueError, match="empty"):
            td_loss_and_gradients(
                net, net.copy(),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool), np.empty((0, 1), dtype=bool), 0.9,
            )


class TestSgd:
    def test_step_reduces_loss(self):
        rng = np.random.Generator(np.random.PCG64(77))
        net = QNetwork(5, 3, hidden_sizes=(12,), rng=rng)
        target = net.copy()
        batch = random_batch(rng, net, 16)
        before, grads = td_loss_and_gradients(net, target, *batch, 0.9)
        sgd_step(net, grads, learning_rate=0.01)
        after, _ = td_loss_and_gradients(net, target, *batch, 0.9)
        assert after < before

    def test_updates_in_place(self):
        net = QNetwork(3, 2)
        w0 = net.weights[0]
        grads = [np.ones_like(p) for p in net.parameters()]
        sgd_step(net, grads, learning_rate=0.5)
        assert net.weights[0] is w0

    def test_mismatched_grads_rejected(self):
        net = QNetwork(3, 2)
        with pytest.raises(ValueError, match="match"):
            sgd_step(net, [np.zeros(1)], learning_rate=0.1)
