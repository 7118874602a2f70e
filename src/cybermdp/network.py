"""Plain-numpy value network for the deep solver.

One-hot state in, one linear output per action slot out, ReLU hidden
layers, mean-squared one-step TD loss against a frozen target copy, vanilla
SGD.  A one-hot input times the first weight matrix is that matrix's row,
so the input is applied as a row lookup and never built.  Gradients are
hand-derived and verified against central finite differences in the tests.
"""

from __future__ import annotations

import numpy as np


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

    def forward(self, states, layer_inputs: list | None = None) -> np.ndarray:
        """Action values of one state index (a row) or an index array (one
        row per index).

        When ``layer_inputs`` is a list, the input of every layer after the
        first is appended to it, for backprop.
        """

        states = np.asarray(states, dtype=np.int64)
        # Checked here because fancy indexing would wrap a negative index.
        if states.size and not 0 <= states.min() <= states.max() < self.num_states:
            raise IndexError("state index outside the state set")
        # h is a fresh pre-activation array, so the ReLUs may work in place.
        h = self.weights[0][states] + self.biases[0]
        for w, b in zip(self.weights[1:], self.biases[1:]):
            np.maximum(h, 0.0, out=h)
            if layer_inputs is not None:
                layer_inputs.append(h)
            h = h @ w + b
        return h

    def q_row(self, state: int) -> np.ndarray:
        """Action values of one state."""

        return self.forward(state)

    def q_table(self) -> np.ndarray:
        """Action values of every state, one row per state index.

        Rows can differ from :meth:`q_row` in the last bits, because a
        matrix product sums in a different order than a vector product.
        """

        return self.forward(np.arange(self.num_states))

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

    inputs: list[np.ndarray] = []
    q_all = net.forward(states, inputs)
    q_sel = q_all[np.arange(batch), actions]

    q_next = target_net.forward(next_states)
    q_next = np.where(next_action_mask, q_next, -np.inf)
    max_next = np.max(q_next, axis=1)
    max_next = np.where(np.isfinite(max_next), max_next, 0.0)
    targets = rewards + gamma * max_next * (~done)

    diff = q_sel - targets
    loss = float(np.mean(diff * diff))

    # d loss / d q_all: nonzero only at the selected action outputs.
    delta = np.zeros_like(q_all)
    delta[np.arange(batch), actions] = 2.0 * diff / batch

    grads: list[np.ndarray] = []
    for i in range(len(net.weights) - 1, 0, -1):
        grads[:0] = [inputs[i - 1].T @ delta, delta.sum(axis=0)]
        delta = (delta @ net.weights[i].T) * (inputs[i - 1] > 0.0)
    # The first layer saw one-hot rows: each sample's delta lands on the
    # weight row of its state.
    grad_w0 = np.zeros_like(net.weights[0])
    np.add.at(grad_w0, states, delta)
    return loss, [grad_w0, delta.sum(axis=0), *grads]


def sgd_step(net: QNetwork, grads: list[np.ndarray], learning_rate: float) -> None:
    """In-place vanilla SGD update over parameters() order."""

    params = net.parameters()
    if len(params) != len(grads):
        raise ValueError("gradient list does not match parameter list")
    for p, g in zip(params, grads):
        p -= learning_rate * g
