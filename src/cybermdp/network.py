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
in the tests, and the whole step bit for bit against a plainer reference.
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

        # Bounds are checked here, not left to the row lookup, because
        # indexing would wrap a negative index; past the end the lookup
        # raises IndexError itself.  A plain int, one state per step, skips
        # the array conversion.
        if type(states) is int:
            if not 0 <= states < self.num_states:
                raise IndexError("state index outside the state set")
        else:
            states = np.asarray(states, dtype=np.int64)
            if np.minimum.reduce(states, axis=None, initial=0) < 0:
                raise IndexError("state index outside the state set")
        # An int index returns a view of weights[0], so layer 0's bias add
        # allocates h; every later h is a fresh product, so the ReLUs and
        # bias adds work in place.
        h = self.weights[0][states] + self.biases[0]
        for w, b in zip(self.weights[1:], self.biases[1:]):
            np.maximum(h, 0.0, out=h)
            if layer_inputs is not None:
                layer_inputs.append(h)
            h = h @ w
            h += b
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
    through them.  Gradients come back in the order W0 rows, b0, W1, b1,
    ..., the first weight matrix's as ``(rows, row_grads)``: the batch's
    distinct states, ascending, and the gradient of each of those rows
    (every other row's is zero).  Each row sums its samples in batch order
    from 0.0, as ``np.add.at`` into a dense zero matrix would, so
    scattering it gives that matrix bit for bit.  Batch arrays of unequal shapes raise
    ``ValueError``; a negative or past-the-end index raises ``IndexError``.
    """

    states = np.asarray(states, dtype=np.int64)
    actions = np.asarray(actions, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=np.float64)
    next_states = np.asarray(next_states, dtype=np.int64)
    done = np.asarray(done, dtype=bool)
    shape = states.shape
    if len(shape) != 1 or not (
        actions.shape == rewards.shape == next_states.shape == done.shape == shape
    ):
        raise ValueError("batch arrays must be one-dimensional and of one length")
    batch = shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    # Indexing would wrap a negative index; past the end it raises itself.
    if np.minimum.reduce(actions) < 0 or np.minimum.reduce(next_states) < 0:
        raise IndexError("action or next state index is negative")

    inputs: list[np.ndarray] = []
    q_all = net.forward(states, inputs)
    sel = (np.arange(batch), actions)
    targets = rewards + gamma * next_values[next_states] * (~done)
    diff = q_all[sel] - targets
    # np.mean's own sum and division, without its wrapper.
    loss = float(np.add.reduce(diff * diff)) / batch

    # d loss / d q_all: nonzero only at the selected action outputs.
    delta = np.zeros_like(q_all)
    delta[sel] = 2.0 * diff / batch

    weights = net.weights
    grads: list[np.ndarray] = []
    for i in range(len(weights) - 1, 0, -1):
        x = inputs[i - 1]
        grads[:0] = [x.T @ delta, np.add.reduce(delta, axis=0)]
        delta = delta @ weights[i].T
        delta *= x > 0.0
    # The first layer saw one-hot rows: each sample's delta lands on the
    # weight row of its state.
    return loss, [_row_sums(states, delta), np.add.reduce(delta, axis=0), *grads]


def _row_sums(states: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, sums)``: the distinct ``states``, ascending, and for each
    the sum of its ``values`` rows, added in order from 0.0 exactly as
    ``np.add.at`` into a dense zero matrix adds them.  The distinct states
    are the sorted states that differ from their predecessor, as
    ``np.unique`` finds them, without its wrapper."""

    order = np.sort(states)
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    np.not_equal(order[1:], order[:-1], out=first[1:])
    rows = order[first]
    width = values.shape[1]
    # np.add.at over flat indices takes its fast one-dimensional path; it
    # still adds in index order.
    flat = (np.searchsorted(rows, states)[:, None] * width + np.arange(width)).ravel()
    sums = np.zeros(rows.size * width)
    np.add.at(sums, flat, values.ravel())
    return rows, sums.reshape(rows.size, width)


def sgd_step(net: QNetwork, grads: list, learning_rate: float) -> None:
    """In-place vanilla SGD update over gradients in the order W0 rows, b0,
    W1, b1, ..., with the first weight matrix's gradient row-sparse as
    :func:`td_loss_and_gradients` returns it.  Only those rows change:
    subtracting ``learning_rate * 0.0`` from any other row would leave it
    as it is.
    """

    weights, biases = net.weights, net.biases
    if len(grads) != 2 * len(weights):
        raise ValueError("gradient list does not match parameter list")
    rows, row_grads = grads[0]
    weights[0][rows] -= learning_rate * row_grads
    biases[0] -= learning_rate * grads[1]
    for w, b, g_w, g_b in zip(weights[1:], biases[1:], grads[2::2], grads[3::2]):
        w -= learning_rate * g_w
        b -= learning_rate * g_b
