"""The one sequential episode loop, compiled with numba when it is available.

The decision process is stored flat: per-state action slots in one set of
parallel arrays (``offsets`` segments them by state, ``dest``/``p``/``r``
give each slot's destination state, success probability, and success-arrival
reward; failure keeps the agent in place with reward 0).  The loop here
indexes those sequences and nothing else, so the same function serves as a
compilation target and as plain Python.  It plays a run of episodes, one
per entry of the exploration rates it is given: with ``learn`` set,
tabular Q-learning episodes, so that training makes one call per
evaluation interval; without it, the greedy rollout, which is given one
rate and reads none, draws no coin, writes nothing to the values and
records where each step landed.  Keeping both in one loop keeps the step
rules that must agree bit for bit (greedy ties, stay-put failure, the
absorbing-state exit, the step cap and the terminal test) in one place.
The loop calls only ``gen.random()`` and ``gen.integers(low, high)`` on
its generator, the latter only to explore among two or more actions.
The DQN step keeps its own epsilon-greedy in :mod:`cybermdp.solver`,
because it reads the network's row only when it exploits.  Value iteration
and policy extraction are vectorized numpy in :mod:`cybermdp.mdp` on every
backend.

Backend selection happens once at import via the ``CYBERMDP_BACKEND``
environment variable: ``numba`` (default, falls back silently if numba is
not importable) compiles the loop with ``@njit`` and runs it over the
arrays; ``numpy`` runs it as plain Python over lists, which index about
twice as fast as ndarrays.  A greedy rollout draws from the caller's
Generator on both backends.  Tabular training on the numpy backend, for a
Generator over ``PCG64``, draws from a :class:`Pcg64Replay` of that
generator's raw words instead of its scalar methods; the replay's
``random`` is C code (an ``itertools.chain`` over blocks of converted
words), so a uniform draw enters Python only once per block.
:func:`loop_process`, :func:`loop_view` and :func:`loop_draws` are that
choice, made once here for every caller.  Both backends produce
bit-identical results for the same seeds, because numba's Generator
methods and the replay reproduce numpy's streams exactly; test_kernels.py
compares the compiled dispatcher with its Python twin, and the
list-and-replay run with the array-and-Generator run.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Callable, Iterator

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
    epsilons,
    learn,
    gen,
    out_next,
):
    """Play one episode from ``initial`` under q per entry of ``epsilons``;
    returns the last one's (steps, total_reward, reached_terminal).

    With ``learn`` each is an epsilon-greedy training episode at its
    epsilon that updates q and counts in place; draws per step: one
    uniform for the explore/exploit coin, one integer if exploring among
    two or more actions, one uniform for the transition.  Without
    ``learn`` it is the greedy rollout, which reads no epsilon: no coin (so
    one uniform per step), q and counts are never written, and each step's
    landing state goes to out_next.  Either way greedy ties go to the
    lowest index, a failed attempt stays put with reward 0, and an episode
    ends at the terminal, at max_steps, or in a state with no actions.
    """

    steps = 0
    total = 0.0
    reached = False
    for epsilon in epsilons:
        s = initial
        steps = 0
        total = 0.0
        reached = False
        while steps < max_steps:
            lo = offsets[s]
            n_a = offsets[s + 1] - lo
            if n_a == 0:
                break  # absorbing non-terminal state, nothing to do
            # A lone action needs no comparison, and numpy draws nothing
            # for a one-integer range.
            a = 0
            if learn and gen.random() < epsilon:
                if n_a > 1:
                    a = int(gen.integers(0, n_a))
            elif n_a > 1:
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
                        if hi2 - lo2 > 1:
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
# Words drawn and converted at a time: enough to amortise the conversion.
_BLOCK = 1024


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

    The replay takes ``_BLOCK`` words at a time with ``random_raw`` and
    converts a block's doubles in one vectorized step, so the generator
    runs ahead of what was used: once replayed, a generator is the
    replay's alone.  ``random`` is the ``__next__`` of an
    ``itertools.chain`` over those blocks, so a draw enters Python only
    when a block runs out.
    """

    random: Callable[[], float]

    def __init__(self, gen: np.random.Generator):
        bg = gen.bit_generator
        state = bg.state
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]
        # The current block's words and the iterator over its doubles that
        # the chain is reading (no block yet).  The blocks see this holder,
        # not the replay, so no cycle keeps a dropped replay alive.
        self._current = [None, iter(())]
        self.random = chain.from_iterable(_blocks(bg, self._current)).__next__

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        self.random()
        words, doubles = self._current
        # The word behind the double just taken.
        w = words.item(-1 - doubles.__length_hint__())
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


def _blocks(bg: np.random.BitGenerator, current: list) -> Iterator[Iterator[float]]:
    """Endless blocks of doubles from ``_BLOCK`` of ``bg``'s raw words at a
    time; each block's words and iterator go into ``current`` as it is
    handed out."""

    while True:
        words = bg.random_raw(_BLOCK)
        doubles = iter(((words >> np.uint64(11)) * _TWO_M53).tolist())
        current[:] = words, doubles
        yield doubles


# ---------------------------------------------------------------------------
# Backend binding
# ---------------------------------------------------------------------------

episode_kernel = njit(cache=True)(_episode_loop) if HAS_NUMBA else _episode_loop


def loop_view(a: np.ndarray):
    """What the loop indexes in place of ``a``, which it may write: under
    numba a writable array, ``a`` itself unless ``a`` is read-only (the
    compiled loop is typed for arrays it may write); on numpy a list copy,
    about twice as fast to index.  What the loop writes lands in the view."""

    return np.require(a, requirements="W") if HAS_NUMBA else a.tolist()


def loop_process(mdp) -> tuple:
    """The loop's first seven arguments for ``mdp``: the :func:`loop_view`
    of its four action arrays, then its discount, terminal state and
    initial state."""

    arrays = (mdp.action_offsets, mdp.action_dest, mdp.action_success, mdp.action_reward)
    return (*map(loop_view, arrays), mdp.gamma, mdp.terminal_state, mdp.initial_state)


def loop_draws(gen: np.random.Generator):
    """What a training loop draws from in place of ``gen``: on numpy a
    :class:`Pcg64Replay` of a Generator over exactly ``PCG64``, which is
    the replay's alone from then on; otherwise ``gen`` itself."""

    if not HAS_NUMBA and type(gen.bit_generator) is np.random.PCG64:
        return Pcg64Replay(gen)
    return gen


# Stand-ins for the array the loop leaves untouched in each mode: a greedy
# rollout counts no visits, a training episode records no landings.
_NO_COUNTS = np.empty(0, dtype=np.float64)
_NO_LANDINGS = np.empty(0, dtype=np.int64)
# A greedy rollout is one episode, whose epsilon the loop never reads.
_ONE_EPISODE = loop_view(np.zeros(1))
