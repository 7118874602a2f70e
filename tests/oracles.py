"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the package's own algorithms: the
reachability oracle is a dense matrix closure instead of BFS, the policy
oracle solves linear systems and enumerates policies instead of iterating
Bellman backups, the sweep oracle is a scalar loop over states and slots
instead of the vectorized backup, depths come from a literally recursive
DFS, and the gradient oracle is central finite differences.  Agreement between these
and the production code is evidence, not circularity.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from cybermdp.graph import AttackGraph
from cybermdp.mdp import Mdp
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
        slot = mdp.action_slot(s, k)
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


def scalar_value_iteration(
    mdp: Mdp, tol: float, max_iters: int
) -> tuple[np.ndarray, int, float]:
    """Sweeps of :func:`scalar_sweep` from zero until the change is <= tol.

    Returns (values, sweeps, residual of one further sweep), the residual
    being the verified number ``value_iteration`` reports.
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


def finite_difference_grads(
    net: QNetwork,
    target_net: QNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    done: np.ndarray,
    next_action_mask: np.ndarray,
    gamma: float,
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient of the TD loss over every parameter."""

    def loss_now() -> float:
        loss, _ = td_loss_and_gradients(
            net, target_net, states, actions, rewards, next_states, done,
            next_action_mask, gamma,
        )
        return float(loss)

    grads = []
    for param in net.parameters():
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


def relative_gradient_error(
    analytic: list[np.ndarray], numeric: list[np.ndarray]
) -> float:
    """Global relative error between two gradient stacks."""

    a = np.concatenate([g.reshape(-1) for g in analytic])
    b = np.concatenate([g.reshape(-1) for g in numeric])
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom
