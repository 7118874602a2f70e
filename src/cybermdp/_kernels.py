"""The one sequential episode loop, compiled with numba when it is available.

The decision process is stored flat: per-state action slots in one set of
parallel arrays (``offsets`` segments them by state, ``dest``/``p``/``r``
give each slot's destination state, success probability, and success-arrival
reward; failure keeps the agent in place with reward 0).  The loop here
indexes those sequences and nothing else, so the same function serves as a
compilation target and as plain Python.  It plays one episode: with
``learn`` set, a tabular Q-learning episode; without it, the greedy
rollout, which draws no coin, writes nothing to the values and records
where each step landed.  Keeping both in one loop keeps the step rules that
must agree bit for bit (greedy ties, stay-put failure, the absorbing-state
exit, the step cap and the terminal test) in one place.  The loop calls
only ``gen.random()`` and ``gen.integers(low, high)`` on its generator.
The DQN step keeps its own epsilon-greedy in :mod:`cybermdp.solver`,
because it reads the network's row only when it exploits.  Value iteration
and policy extraction are vectorized numpy in :mod:`cybermdp.mdp` on every
backend.

Backend selection happens once at import via the ``CYBERMDP_BACKEND``
environment variable: ``numba`` (default, falls back silently if numba is
not importable) compiles the loop with ``@njit`` and runs it over the
arrays with the caller's Generator; ``numpy`` runs it as plain Python over
lists, which index about twice as fast as ndarrays, and, for a Generator
over ``PCG64``, draws from a :class:`Pcg64Replay` of that generator's raw
words instead of its scalar methods.  Other bit generators draw for
themselves.  :func:`loop_inputs` is that choice, made once here for every
caller.  Both backends produce bit-identical results for the same seeds,
because numba's Generator methods and the replay reproduce numpy's
streams exactly; test_kernels.py compares the compiled dispatcher with its
Python twin, and the list-and-replay run with the array-and-Generator run.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

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
# numpy's scalar draws, replayed from raw PCG64 words
# ---------------------------------------------------------------------------

_TWO_M53 = 1.0 / 9007199254740992.0
_TWO_32 = 1 << 32
_LOW32 = _TWO_32 - 1
# Words drawn and converted at a time: a block twice the last, from a
# first one that a short rollout barely overshoots, up to one large enough
# to amortise the conversion.
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


class Pcg64Replay:
    """``Generator.random()`` and ``Generator.integers(low, high)`` for a
    Generator over ``PCG64``, reproduced bit for bit from the raw words of
    its bit generator.

    numpy makes a double from one 64-bit word ``w`` as ``(w >> 11) * 2**-53``.
    It draws an integer in ``[low, high)``, for ``n = high - low`` of at most
    ``2**32``, from 32-bit half-words: PCG64 hands out a fresh word's low
    half and keeps its high half for the next request (the ``has_uint32``
    and ``uinteger`` of the bit generator's state), and a range below
    ``2**32`` goes through Lemire's multiply-and-reject (Lemire 2019, *Fast
    Random Integer Generation in an Interval*).  ``n = 1`` draws nothing and
    ``n = 2**32`` takes one half-word as it is.

    The replay takes words a block at a time with ``random_raw``, each block
    twice the last up to ``_MAX_BLOCK``, and converts a block's doubles in
    one vectorized step, so the generator runs ahead of what was used.
    :meth:`sync` puts it back where numpy's own draws would have left it;
    until then, nothing else may draw from the generator.
    """

    def __init__(self, gen: np.random.Generator):
        self._bg = gen.bit_generator
        self._start(self._bg.state)

    def _start(self, state: dict) -> None:
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]
        self._block = _FIRST_BLOCK
        self._raw = np.empty(0, dtype=np.uint64)
        self._doubles = iter(())
        self._next_double = self._doubles.__next__

    def _refill(self) -> float:
        raw = self._raw = self._bg.random_raw(self._block)
        self._block = min(2 * self._block, _MAX_BLOCK)
        self._doubles = iter(((raw >> np.uint64(11)) * _TWO_M53).tolist())
        self._next_double = self._doubles.__next__
        return self._next_double()

    def random(self) -> float:
        try:
            return self._next_double()
        except StopIteration:
            return self._refill()

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        try:
            self._next_double()
        except StopIteration:
            self._refill()
        # The word behind the double just taken.
        w = self._raw.item(-1 - self._doubles.__length_hint__())
        self._has32 = 1
        self._u32 = w >> 32
        return w & _LOW32

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if 1 < n < _TWO_32:
            m = self._next32() * n
            if m & _LOW32 < n:
                threshold = (_TWO_32 - n) % n
                while m & _LOW32 < threshold:
                    m = self._next32() * n
            return low + (m >> 32)
        if n == 1:
            return low
        if n == _TWO_32:
            return low + self._next32()
        raise ValueError(f"the replay draws from ranges of 1 to 2**32 integers, not {n}")

    def sync(self) -> None:
        """Leave the generator where numpy's own draws would have; the
        replay may go on drawing from there."""

        bg = self._bg
        # Step back over the block's unused words (advance wraps mod 2**128).
        bg.advance(-self._doubles.__length_hint__())
        state = bg.state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._u32
        bg.state = state
        self._start(state)


# ---------------------------------------------------------------------------
# Backend binding
# ---------------------------------------------------------------------------

episode_kernel = njit(cache=True)(_episode_loop) if HAS_NUMBA else _episode_loop


def loop_inputs(
    arrays: tuple[np.ndarray, ...], gen: np.random.Generator
) -> tuple[tuple, object, Callable[[], None]]:
    """What the loop runs over for this backend: ``(views, draws, sync)``.

    ``views`` are the sequences it indexes: the arrays themselves under
    numba; on numpy a list copy of each, about twice as fast to index, so
    what the loop writes lands in the list.  ``draws`` is what it draws
    from: on numpy a :class:`Pcg64Replay` of a Generator over exactly
    ``PCG64``, otherwise ``gen`` itself.  ``sync()`` settles ``gen`` where
    numpy's own draws would have left it; it does nothing when ``gen``
    drew for itself.
    """

    if not HAS_NUMBA:
        arrays = tuple(a.tolist() for a in arrays)
        if type(gen.bit_generator) is np.random.PCG64:
            replay = Pcg64Replay(gen)
            return arrays, replay, replay.sync
    return arrays, gen, lambda: None
