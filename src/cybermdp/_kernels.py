"""The one sequential episode loop, compiled with numba when it is available.

The decision process is stored flat: per-state action slots in one set of
parallel arrays (``offsets`` segments them by state, ``dest``/``p``/``r``
give each slot's destination state, success probability, and success-arrival
reward; failure keeps the agent in place with reward 0).  The loop here works
on those arrays only, so the same function serves as a compilation target
and as plain Python.  It plays one episode: with ``learn`` set, a tabular
Q-learning episode; without it, the greedy rollout, which draws no coin,
writes nothing to the values and records where each step landed.  Keeping
both in one loop keeps the step rules that must agree bit for bit (greedy
ties, stay-put failure, the absorbing-state exit, the step cap and the
terminal test) in one place.  The loop calls only ``gen.random()`` and
``gen.integers(low, high)`` on its generator.  The DQN step keeps its own
epsilon-greedy in :mod:`cybermdp.solver`, because it reads the network's row
only when it exploits.  Value iteration and policy extraction are vectorized
numpy in :mod:`cybermdp.mdp` on every backend.

Backend selection happens once at import via the ``CYBERMDP_BACKEND``
environment variable: ``numba`` (default, falls back silently if numba is
not importable) compiles the loop with ``@njit``; ``numpy`` runs it as
plain Python.  Both backends produce bit-identical results for the same
seeds, because numba's Generator methods reproduce numpy's streams exactly;
test_kernels.py compares the compiled dispatcher with its Python twin.
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
# The episode loop: Q-learning when learning, the greedy rollout otherwise
# ---------------------------------------------------------------------------


def _episode_loop(
    offsets,
    dest,
    p,
    r,
    gamma,
    terminal,
    initial,
    max_steps,
    q,
    counts,
    alpha,
    alpha_decay,
    epsilon,
    learn,
    gen,
    out_next,
):
    """Play one episode from ``initial`` under q; returns
    (steps, total_reward, reached_terminal).

    With ``learn`` it is an epsilon-greedy training episode that updates q
    and counts in place; draws per step: one uniform for the
    explore/exploit coin, one integer if exploring, one uniform for the
    transition.  Without ``learn`` it is the greedy rollout: no coin (so
    one uniform per step), q and counts are never written, and each step's
    landing state goes to out_next.  Either way greedy ties go to the
    lowest index, a failed attempt stays put with reward 0, and the episode
    ends at the terminal, at max_steps, or in a state with no actions.
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
        if learn and gen.random() < epsilon:
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
        if learn:
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
        else:
            out_next[steps] = s2
        total += rew
        steps += 1
        s = s2
        if done:
            reached = True
            break
    return steps, total, reached


# ---------------------------------------------------------------------------
# Backend binding
# ---------------------------------------------------------------------------

if BACKEND == "numba":
    episode_kernel = njit(cache=True)(_episode_loop)
else:
    episode_kernel = _episode_loop
