"""Plain-numpy value network for the deep solver.

One-hot state in, one linear output per action slot out, ReLU hidden
layers, mean-squared one-step TD loss against frozen next-state values,
vanilla SGD.  A one-hot input times the first weight matrix is that
matrix's row, so the input is applied as a row lookup and never built.
For the same reason the first weight matrix's gradient is nonzero only on
the batch's states: it is returned, and applied, as those rows alone.  The
loss takes the bootstrap as one value per state, already maximised over
that state's admissible actions; the learner freezes it at each hard sync.
Gradients are hand-derived and verified against central finite differences
in the tests.
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

        # Checked here because indexing would wrap a negative index.  A
        # plain int, one state per step, skips the array conversion.
        if type(states) is int:
            if not 0 <= states < self.num_states:
                raise IndexError("state index outside the state set")
        else:
            states = np.asarray(states, dtype=np.int64)
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


def td_loss_and_gradients(
    net: QNetwork,
    next_values: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    done: np.ndarray,
    gamma: float,
) -> tuple[float, list]:
    """Mean-squared one-step TD loss and its gradient w.r.t. net parameters.

    Targets are r + gamma * next_values[s'] (zeroed where done), where
    ``next_values`` holds one frozen value per state, so no gradient flows
    through them.  Gradients come back in parameters() order, the first
    weight matrix's as ``(rows, row_grads)``: the batch's distinct states,
    ascending, and the gradient of each of those rows (every other row's is
    zero).  Each row sums its samples in batch order from 0.0, as
    ``np.add.at`` into a dense zero matrix would, so scattering it gives
    that matrix bit for bit.
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

    targets = rewards + gamma * next_values[next_states] * (~done)

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
    return loss, [_row_sums(states, delta), delta.sum(axis=0), *grads]


def _row_sums(states: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, sums)``: the distinct ``states``, ascending, and for each
    the sum of its ``values`` rows, added in order from 0.0 exactly as
    ``np.add.at`` into a dense zero matrix adds them."""

    rows = np.unique(states)
    width = values.shape[1]
    # np.add.at over flat indices takes its fast one-dimensional path; it
    # still adds in index order.
    flat = (np.searchsorted(rows, states)[:, None] * width + np.arange(width)).ravel()
    sums = np.zeros(rows.size * width)
    np.add.at(sums, flat, values.ravel())
    return rows, sums.reshape(rows.size, width)


def sgd_step(net: QNetwork, grads: list, learning_rate: float) -> None:
    """In-place vanilla SGD update over parameters() order, with the first
    weight matrix's gradient row-sparse as :func:`td_loss_and_gradients`
    returns it.  Only those rows change: subtracting ``learning_rate * 0.0``
    from any other row would leave it as it is.
    """

    params = net.parameters()
    if len(params) != len(grads):
        raise ValueError("gradient list does not match parameter list")
    (rows, row_grads), *dense = grads
    params[0][rows] -= learning_rate * row_grads
    for p, g in zip(params[1:], dense):
        p -= learning_rate * g
