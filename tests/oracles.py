"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the package's own algorithms: the
transition and reward readers spell out one (state, action) pair's
successor distribution from the flat action arrays, the success-path
reader follows a policy slot by slot, the generator's sizes come from
closed-form counts, the reachability oracle is a dense matrix closure
instead of BFS, the policy oracle solves linear systems and enumerates
policies instead of iterating Bellman backups, the sweep oracle is a scalar loop over states and slots
instead of the vectorized backup, depths come from a literally recursive
DFS, the network oracle multiplies dense one-hot inputs instead of looking
up weight rows, the DQN target oracle masks and maxes a deep copy's forward
pass instead of reading ``state_values``, and the gradient oracle is central
finite differences.
Agreement between these and the production code is evidence, not
circularity.

Two exceptions are earlier forms of the package's own code, kept so that
a test can require the same bits, not only close values.  The reference
DQN step (``reference_forward``, ``reference_td_loss_and_gradients``,
``reference_sgd_step``) is a plainer form of the network's step.
``jacobi_value_iteration`` is the Jacobi value iteration that was the
package's exact solver before policy iteration replaced it, verbatim
apart from its name: the reference the exact solve's policy and values
are checked against, and itself pinned bit for bit by the scalar sweep.
"""

from __future__ import annotations

import copy
import itertools
import sys

import numpy as np

from cybermdp.graph import AttackGraph
from cybermdp.mdp import ConvergenceError, Mdp, ValueResult, slot_values, state_values
from cybermdp.netgen import TopologyParams
from cybermdp.network import QNetwork, td_loss_and_gradients


def closure_reachable(graph: AttackGraph, from_id: str) -> frozenset[str]:
    """Forward-reachable set via boolean adjacency-matrix closure."""

    ids = [v.id for v in graph.vertices]
    index = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    adj = np.zeros((n, n), dtype=bool)
    for a, b in graph.edges:
        if a in index and b in index:
            adj[index[a], index[b]] = True
    reach = np.eye(n, dtype=bool)
    # (I | A)^n covers all paths; squaring converges in log2(n) rounds.
    step = reach | adj
    for _ in range(max(1, n.bit_length())):
        nxt = step @ step
        if (nxt == step).all():
            break
        step = nxt
    row = step[index[from_id]]
    return frozenset(ids[j] for j in range(n) if row[j])


def closure_co_reachable(graph: AttackGraph, to_id: str) -> frozenset[str]:
    """Set of vertices that can reach ``to_id``, via the transposed closure."""

    flipped = AttackGraph(
        vertices=graph.vertices,
        edges=tuple((b, a) for a, b in graph.edges),
        initial=graph.initial,
        terminal=graph.terminal,
    )
    return closure_reachable(flipped, to_id)


def recursive_dfs_depths(graph: AttackGraph) -> dict[str, int]:
    """Discovery depths by plain recursive DFS, declaration-order neighbors."""

    depths: dict[str, int] = {}
    limit = sys.getrecursionlimit()
    if graph.vertex_count + 100 > limit:
        sys.setrecursionlimit(graph.vertex_count + 100)

    def visit(vertex: str, depth: int) -> None:
        depths[vertex] = depth
        for succ in graph.successors(vertex):
            if succ not in depths:
                visit(succ, depth + 1)

    visit(graph.initial, 0)
    return depths


def expected_vertex_count(params: TopologyParams) -> int:
    """Exact vertex count ``generate`` produces for ``params``."""

    s, h = params.num_subnets, params.hosts_per_subnet
    return s * h + (s - 1) * (params.inter_edge_count + 2)


def expected_edge_count(params: TopologyParams) -> float:
    """Expected edge count (the intra-subnet extras are Bernoulli draws)."""

    s, h = params.num_subnets, params.hosts_per_subnet
    chain = s * (h - 1)
    intra = s * (h - 1) * (h - 1) * params.intra_edge_prob if h >= 2 else 0.0
    inter = (s - 1) * 2 * params.inter_edge_count
    decoy = (s - 1) * 3
    return chain + intra + inter + decoy


def action_slot(mdp: Mdp, state: int, action: int) -> int:
    """Flat slot index of local action ``action`` of ``state``."""

    if not 0 <= action < mdp.num_actions(state):
        raise IndexError(f"state {state} has no action {action}")
    return int(mdp.action_offsets[state]) + action


def action_target(mdp: Mdp, state: int, action: int) -> int:
    """Destination state of (state, action) on success."""

    return int(mdp.action_dest[action_slot(mdp, state, action)])


def policy_success_path(mdp: Mdp, policy: np.ndarray) -> tuple[str, ...]:
    """Vertex sequence a policy visits when every attempt succeeds.

    Follows each state's chosen action to its destination, starting at the
    initial state, stopping at the terminal state, a revisit (policy
    cycle), or a state without actions.
    """

    path = [mdp.vertex_id(mdp.initial_state)]
    seen = {mdp.initial_state}
    s = mdp.initial_state
    while s != mdp.terminal_state:
        a = int(policy[s])
        if a < 0:
            break
        s = action_target(mdp, s, a)
        path.append(mdp.vertex_id(s))
        if s in seen:
            break
        seen.add(s)
    return tuple(path)


def success_probability(mdp: Mdp, state: int, action: int) -> float:
    """Success probability of one attempt of (state, action)."""

    return float(mdp.action_success[action_slot(mdp, state, action)])


def transitions(mdp: Mdp, state: int, action: int) -> tuple[tuple[int, float], ...]:
    """Successor distribution of (state, action): destination with the
    success probability, plus the stay-put remainder when nonzero."""

    slot = action_slot(mdp, state, action)
    p = float(mdp.action_success[slot])
    entries = [(int(mdp.action_dest[slot]), p)]
    remainder = 1.0 - p
    if remainder != 0.0:
        entries.append((state, remainder))
    return tuple(entries)


def reward(mdp: Mdp, state: int, action: int, next_state: int) -> float:
    """Reward of landing in next_state after (state, action): the arrival
    reward on success, 0 for the failure stay-put."""

    slot = action_slot(mdp, state, action)
    if next_state == int(mdp.action_dest[slot]):
        return float(mdp.action_reward[slot])
    if next_state == state:
        return 0.0
    raise ValueError(f"state {next_state} is not a successor of ({state}, {action})")


def policy_values(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Exact state values of a fixed deterministic policy by linear solve.

    ``policy[s]`` is a local action index, or -1 for states given no action
    (their value is 0, matching the absorbing convention).  Solves
    (I - gamma * P_pi) v = r_pi.
    """

    n = mdp.num_states
    gamma = mdp.gamma
    a = np.eye(n)
    b = np.zeros(n)
    for s in range(n):
        k = int(policy[s])
        if k < 0 or mdp.num_actions(s) == 0:
            continue  # absorbing row: v[s] = 0
        slot = action_slot(mdp, s, k)
        p = float(mdp.action_success[slot])
        dest = int(mdp.action_dest[slot])
        r = float(mdp.action_reward[slot])
        # v[s] = p*(r + gamma*v[dest]) + (1-p)*gamma*v[s]
        a[s, s] = 1.0 - (1.0 - p) * gamma
        a[s, dest] -= p * gamma
        b[s] = p * r
    return np.linalg.solve(a, b)


def scalar_sweep(mdp: Mdp, v: np.ndarray) -> tuple[np.ndarray, float]:
    """One Jacobi Bellman backup, state by state and slot by slot.

    Returns the backed-up values and the sup-norm change.  The action value
    is evaluated in the same floating-point order as the package's
    vectorized backup, so the two agree bit for bit.
    """

    offsets = mdp.action_offsets
    dest, p, r = mdp.action_dest, mdp.action_success, mdp.action_reward
    gamma = mdp.gamma
    v_new = np.zeros(mdp.num_states)
    residual = 0.0
    for s in range(mdp.num_states):
        lo, hi = offsets[s], offsets[s + 1]
        nv = 0.0 if hi == lo else -np.inf
        for k in range(lo, hi):
            q = p[k] * (r[k] + gamma * v[dest[k]]) + (1.0 - p[k]) * (gamma * v[s])
            if q > nv:
                nv = q
        residual = max(residual, abs(nv - v[s]))
        v_new[s] = nv
    return v_new, residual


def jacobi_value_iteration(mdp: Mdp, tol: float = 1e-8, max_iters: int = 100_000) -> ValueResult:
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


def scalar_value_iteration(
    mdp: Mdp, tol: float, max_iters: int
) -> tuple[np.ndarray, int, float]:
    """Sweeps of :func:`scalar_sweep` from zero until the change is <= tol.

    Returns (values, sweeps, residual of one further sweep), the residual
    being the verified number ``jacobi_value_iteration`` reports.
    """

    v = np.zeros(mdp.num_states)
    it = 0
    while it < max_iters:
        v, residual = scalar_sweep(mdp, v)
        it += 1
        if residual <= tol:
            break
    return v, it, scalar_sweep(mdp, v)[1]


def enumerate_optimal_values(mdp: Mdp) -> np.ndarray:
    """Optimal state values by exhaustive policy enumeration.

    Feasible only for small processes; the caller keeps the product of
    action counts manageable.  The elementwise maximum over all
    deterministic stationary policies is the optimal value function.
    """

    n = mdp.num_states
    choices = []
    for s in range(n):
        count = mdp.num_actions(s)
        choices.append(range(count) if count else (-1,))
    best = np.full(n, -np.inf)
    for assignment in itertools.product(*choices):
        values = policy_values(mdp, np.asarray(assignment))
        best = np.maximum(best, values)
    return best


def parameters(net: QNetwork) -> list[np.ndarray]:
    """The network's parameters in gradient order: W0, b0, W1, b1, ..."""

    return [param for pair in zip(net.weights, net.biases) for param in pair]


def one_hot_forward(net: QNetwork, states) -> np.ndarray:
    """Action values from a dense one-hot input: a vector for one state
    index, a matrix with one row per index for an index array."""

    h = np.eye(net.num_states)[states]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
    return h


def masked_max_target(
    net: QNetwork, next_states: np.ndarray, next_action_mask: np.ndarray
) -> np.ndarray:
    """Each sample's bootstrap from a frozen deep copy of ``net``: its
    forward pass over ``next_states``, inadmissible actions (False in the
    (batch, num_actions) ``next_action_mask``) set to -inf, the row max,
    and a non-finite max set to 0.0."""

    q_next = copy.deepcopy(net).forward(next_states)
    q_next = np.where(next_action_mask, q_next, -np.inf)
    max_next = np.max(q_next, axis=1)
    return np.where(np.isfinite(max_next), max_next, 0.0)


def finite_difference_grads(
    net: QNetwork,
    next_values: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    done: np.ndarray,
    gamma: float,
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient of the TD loss over every parameter."""

    def loss_now() -> float:
        loss, _ = td_loss_and_gradients(
            net, next_values, states, actions, rewards, next_states, done, gamma
        )
        return float(loss)

    grads = []
    for param in parameters(net):
        grad = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = loss_now()
            flat[i] = original - h
            down = loss_now()
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(grad)
    return grads


def dense_gradients(net: QNetwork, grads: list) -> list[np.ndarray]:
    """``td_loss_and_gradients``'s gradients with the first weight matrix's
    row-sparse ``(rows, row_grads)`` scattered into a dense zero matrix."""

    (rows, row_grads), *rest = grads
    grad_w0 = np.zeros_like(net.weights[0])
    grad_w0[rows] = row_grads
    return [grad_w0, *rest]


def relative_gradient_error(
    analytic: list[np.ndarray], numeric: list[np.ndarray]
) -> float:
    """Global relative error between two gradient stacks."""

    a = np.concatenate([g.reshape(-1) for g in analytic])
    b = np.concatenate([g.reshape(-1) for g in numeric])
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


# The reference DQN step: the forward pass, TD loss, row sums and SGD
# update as they read before the step was trimmed of per-call overhead,
# verbatim apart from the names (the loss calls reference_forward).  Each
# uses np.mean, np.unique, np.sum and parameters(net), where the network's
# step uses np.add.reduce, a sort and the weight and bias lists.


def reference_forward(net: QNetwork, states, layer_inputs: list | None = None) -> np.ndarray:
    # Checked here because indexing would wrap a negative index.  A
    # plain int, one state per step, skips the array conversion.
    if type(states) is int:
        if not 0 <= states < net.num_states:
            raise IndexError("state index outside the state set")
    else:
        states = np.asarray(states, dtype=np.int64)
        if states.size and not 0 <= states.min() <= states.max() < net.num_states:
            raise IndexError("state index outside the state set")
    # h is a fresh pre-activation array, so the ReLUs may work in place.
    h = net.weights[0][states] + net.biases[0]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        np.maximum(h, 0.0, out=h)
        if layer_inputs is not None:
            layer_inputs.append(h)
        h = h @ w + b
    return h


def reference_td_loss_and_gradients(
    net: QNetwork,
    next_values: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    done: np.ndarray,
    gamma: float,
) -> tuple[float, list]:
    states = np.asarray(states, dtype=np.int64)
    actions = np.asarray(actions, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=np.float64)
    next_states = np.asarray(next_states, dtype=np.int64)
    done = np.asarray(done, dtype=bool)
    batch = states.shape[0]
    if batch == 0:
        raise ValueError("empty batch")

    inputs: list[np.ndarray] = []
    q_all = reference_forward(net, states, inputs)
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
    return loss, [reference_row_sums(states, delta), delta.sum(axis=0), *grads]


def reference_row_sums(states: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.unique(states)
    width = values.shape[1]
    # np.add.at over flat indices takes its fast one-dimensional path; it
    # still adds in index order.
    flat = (np.searchsorted(rows, states)[:, None] * width + np.arange(width)).ravel()
    sums = np.zeros(rows.size * width)
    np.add.at(sums, flat, values.ravel())
    return rows, sums.reshape(rows.size, width)


def reference_sgd_step(net: QNetwork, grads: list, learning_rate: float) -> None:
    params = parameters(net)
    if len(params) != len(grads):
        raise ValueError("gradient list does not match parameter list")
    (rows, row_grads), *dense = grads
    params[0][rows] -= learning_rate * row_grads
    for p, g in zip(params[1:], dense):
        p -= learning_rate * g
