"""The two sequential loops, compiled with numba when it is available.

The decision process is stored flat: per-state action slots in one set of
parallel arrays (``offsets`` segments them by state, ``dest``/``p``/``r``
give each slot's destination state, success probability, and success-arrival
reward; failure keeps the agent in place with reward 0).  The loops here
work on those arrays only, so the same functions serve as compilation
targets and as plain Python: the tabular Q-learning episode and the greedy
rollout.  Value iteration and policy extraction are vectorized numpy in
:mod:`cybermdp.mdp` on every backend.

Backend selection happens once at import via the ``CYBERMDP_BACKEND``
environment variable: ``numba`` (default, falls back silently if numba is
not importable) compiles both loops with ``@njit``; ``numpy`` runs them as
plain Python.  Both backends produce bit-identical results for the same
seeds, because numba's Generator methods reproduce numpy's streams exactly;
test_kernels.py compares the compiled dispatchers with their Python twins.
"""

from __future__ import annotations

import os

_requested = os.environ.get("CYBERMDP_BACKEND", "numba").strip().lower()
if _requested not in ("numba", "numpy"):
    raise RuntimeError(
        f"CYBERMDP_BACKEND={_requested!r} not understood; use 'numba' or 'numpy'"
    )

HAS_NUMBA = False
if _requested == "numba":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Tabular Q-learning episode and greedy rollout
# ---------------------------------------------------------------------------


def _q_episode_loop(
    offsets,
    dest,
    p,
    r,
    gamma,
    terminal,
    q,
    counts,
    alpha,
    alpha_decay,
    epsilon,
    max_steps,
    initial,
    gen,
):
    """Run one training episode, updating q and counts in place.

    Draw order per step: one uniform for the explore/exploit coin, one
    integer if exploring, one uniform for the transition.  Returns
    (steps, total_reward, reached_terminal).
    """

    s = initial
    steps = 0
    total = 0.0
    reached = False
    while steps < max_steps:
        lo = offsets[s]
        hi = offsets[s + 1]
        n_a = hi - lo
        if n_a == 0:
            break  # absorbing non-terminal state, nothing to do
        if gen.random() < epsilon:
            a = int(gen.integers(0, n_a))
        else:
            a = 0
            best = q[lo]
            for k in range(1, n_a):
                if q[lo + k] > best:
                    best = q[lo + k]
                    a = k
        slot = lo + a
        if gen.random() < p[slot]:
            s2 = dest[slot]
            rew = r[slot]
        else:
            s2 = s
            rew = 0.0
        done = s2 == terminal
        counts[slot] += 1.0
        if alpha_decay > 0.0:
            a_eff = alpha / counts[slot] ** alpha_decay
        else:
            a_eff = alpha
        max_next = 0.0
        if not done:
            lo2 = offsets[s2]
            hi2 = offsets[s2 + 1]
            if hi2 > lo2:
                max_next = q[lo2]
                for k in range(lo2 + 1, hi2):
                    if q[k] > max_next:
                        max_next = q[k]
        q[slot] = q[slot] + a_eff * (rew + gamma * max_next - q[slot])
        total += rew
        steps += 1
        s = s2
        if done:
            reached = True
            break
    return steps, total, reached


def _greedy_rollout_loop(
    offsets,
    dest,
    p,
    r,
    q,
    initial,
    terminal,
    max_steps,
    gen,
    out_state,
    out_reward,
    out_next,
):
    """Greedy episode under q; fills the out arrays with one row per step.

    One uniform draw per step (the transition).  Returns
    (steps, total_reward, reached_terminal).
    """

    s = initial
    steps = 0
    total = 0.0
    reached = False
    while steps < max_steps:
        lo = offsets[s]
        hi = offsets[s + 1]
        n_a = hi - lo
        if n_a == 0:
            break
        a = 0
        best = q[lo]
        for k in range(1, n_a):
            if q[lo + k] > best:
                best = q[lo + k]
                a = k
        slot = lo + a
        if gen.random() < p[slot]:
            s2 = dest[slot]
            rew = r[slot]
        else:
            s2 = s
            rew = 0.0
        out_state[steps] = s
        out_reward[steps] = rew
        out_next[steps] = s2
        total += rew
        steps += 1
        s = s2
        if s == terminal:
            reached = True
            break
    return steps, total, reached


# ---------------------------------------------------------------------------
# Backend binding
# ---------------------------------------------------------------------------

if BACKEND == "numba":
    q_episode_kernel = njit(cache=True)(_q_episode_loop)
    greedy_rollout_kernel = njit(cache=True)(_greedy_rollout_loop)
else:
    q_episode_kernel = _q_episode_loop
    greedy_rollout_kernel = _greedy_rollout_loop
