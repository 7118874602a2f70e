"""Plain-numpy value network for the deep solver.

One-hot state in, one linear output per action slot out, ReLU hidden
layers, mean-squared one-step TD loss against a frozen target copy, vanilla
SGD.  Gradients are hand-derived and verified against central finite
differences in the tests.
"""

from __future__ import annotations

import numpy as np


def encode_states(states: np.ndarray, num_states: int) -> np.ndarray:
    """One-hot batch matrix, one row per state index."""

    states = np.asarray(states, dtype=np.int64)
    if states.size and (states.min() < 0 or states.max() >= num_states):
        raise IndexError("state index outside the state set")
    x = np.zeros((states.shape[0], num_states), dtype=np.float64)
    x[np.arange(states.shape[0]), states] = 1.0
    return x


class QNetwork:
    """Fully connected ReLU net mapping one-hot states to action values."""

    def __init__(
        self,
        num_states: int,
        num_actions: int,
        hidden_sizes: tuple[int, ...] = (64, 64),
        rng: np.random.Generator | None = None,
    ):
        if num_states < 1 or num_actions < 1:
            raise ValueError("num_states and num_actions must be positive")
        if any(h < 1 for h in hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        self.num_states = num_states
        self.num_actions = num_actions
        self.hidden_sizes = tuple(hidden_sizes)
        sizes = (num_states, *hidden_sizes, num_actions)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He init, suits ReLU
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    # -- inference ----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for a (batch, num_states) input."""

        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping layer inputs for backprop."""

        cache = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = np.maximum(h, 0.0)
            cache.append(h)
        return h, cache

    def q_row(self, state: int) -> np.ndarray:
        """Action values of one state; first layer reduces to a row pick."""

        return self._after_first_layer(self.weights[0][state] + self.biases[0])

    def q_table(self) -> np.ndarray:
        """Action values of every state, one row per state index.

        The one-hot batch of all states is the identity, so the first layer
        reduces to its whole weight matrix.  Rows can differ from
        :meth:`q_row` in the last bits, because a matrix product sums in a
        different order than a vector product.
        """

        return self._after_first_layer(self.weights[0] + self.biases[0])

    def _after_first_layer(self, h: np.ndarray) -> np.ndarray:
        # h is a fresh pre-activation array, so the ReLUs may work in place.
        for w, b in zip(self.weights[1:], self.biases[1:]):
            np.maximum(h, 0.0, out=h)
            h = h @ w + b
        return h

    # -- parameter handling ---------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "QNetwork":
        clone = QNetwork.__new__(QNetwork)
        clone.num_states = self.num_states
        clone.num_actions = self.num_actions
        clone.hidden_sizes = self.hidden_sizes
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def load_from(self, other: "QNetwork") -> None:
        """Hard sync: overwrite parameters with ``other``'s."""

        for mine, theirs in zip(self.weights, other.weights):
            mine[...] = theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine[...] = theirs


def td_loss_and_gradients(
    net: QNetwork,
    target_net: QNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    done: np.ndarray,
    next_action_mask: np.ndarray,
    gamma: float,
) -> tuple[float, list[np.ndarray]]:
    """Mean-squared one-step TD loss and its gradient w.r.t. net parameters.

    Targets are r + gamma * max over admissible next actions of the frozen
    target net (zeroed where done), so no gradient flows through them.
    ``next_action_mask`` is a (batch, num_actions) boolean of admissible
    actions in the next state; rows where done is set may be all False.
    Gradients come back in parameters() order.
    """

    states = np.asarray(states, dtype=np.int64)
    actions = np.asarray(actions, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=np.float64)
    next_states = np.asarray(next_states, dtype=np.int64)
    done = np.asarray(done, dtype=bool)
    batch = states.shape[0]
    if batch == 0:
        raise ValueError("empty batch")

    x = encode_states(states, net.num_states)
    q_all, cache = net.forward_cached(x)
    q_sel = q_all[np.arange(batch), actions]

    x_next = encode_states(next_states, net.num_states)
    q_next = target_net.forward(x_next)
    q_next = np.where(next_action_mask, q_next, -np.inf)
    max_next = np.max(q_next, axis=1)
    max_next = np.where(np.isfinite(max_next), max_next, 0.0)
    targets = rewards + gamma * max_next * (~done)

    diff = q_sel - targets
    loss = float(np.mean(diff * diff))

    # d loss / d q_all: nonzero only at the selected action outputs.
    d_out = np.zeros_like(q_all)
    d_out[np.arange(batch), actions] = 2.0 * diff / batch

    grads_w: list[np.ndarray] = [np.empty(0)] * len(net.weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(net.biases)
    delta = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = cache[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (cache[i] > 0.0)

    grads: list[np.ndarray] = []
    for gw, gb in zip(grads_w, grads_b):
        grads.append(gw)
        grads.append(gb)
    return loss, grads


def sgd_step(net: QNetwork, grads: list[np.ndarray], learning_rate: float) -> None:
    """In-place vanilla SGD update over parameters() order."""

    params = net.parameters()
    if len(params) != len(grads):
        raise ValueError("gradient list does not match parameter list")
    for p, g in zip(params, grads):
        p -= learning_rate * g
