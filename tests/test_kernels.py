"""Backend equivalence tests.

The numba and numpy backends must be bit-identical, not merely close: the
same seeds must yield the same artifacts regardless of which backend built
them.  These tests compare the compiled episode dispatcher against its pure
Python twin, the numpy backend's lists and PCG64 replay against arrays and
the Generator, and value iteration's vectorized backup against the scalar
sweep in oracles.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermdp import _kernels
from conftest import make_mdp
from cybermdp._kernels import Pcg64Replay, _episode_loop
from cybermdp.mdp import build_cvss_mdp, value_iteration
from cybermdp.netgen import TopologyParams, generate
from oracles import scalar_value_iteration

needs_numba = pytest.mark.skipif(
    not _kernels.HAS_NUMBA, reason="numba backend not active"
)


@pytest.fixture(scope="module")
def arrays():
    mdp = build_cvss_mdp(generate(TopologyParams(3, 6, 0.15, 2, 0.5, seed=4)))
    return mdp


def fresh_gen(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# What a training episode gets for the landings it does not record.
NO_LANDINGS = np.empty(0, dtype=np.int64)


def assert_matches_scalar_loop(mdp, tol, max_iters):
    res = value_iteration(mdp, tol=tol, max_iters=max_iters)
    values, iterations, residual = scalar_value_iteration(mdp, tol, max_iters)
    assert res.iterations == iterations
    assert res.residual == residual
    np.testing.assert_array_equal(res.values, values)
    return res


class TestVectorizedSweep:
    def test_bit_identical_to_loop(self, arrays):
        assert_matches_scalar_loop(arrays, 1e-10, 100_000)

    def test_handles_degenerate_process(self):
        mdp = make_mdp(states=("a", "t"), actions=[[(1, 1.0, 10.0)], []], gamma=0.9)
        res = assert_matches_scalar_loop(mdp, 1e-10, 100)
        assert res.values[0] == 10.0

    def test_multiaction_state_before_trailing_actionless_states(self):
        # The last slot-owning state has several actions and everything
        # after it has none; its reduceat segment must still cover all of
        # its slots, not stop at a clamped successor start.
        mdp = make_mdp(
            states=("a", "x", "t"),
            actions=[[(2, 0.3, 100.0), (2, 0.9, 100.0), (1, 0.5, -1.0)], [], []],
            gamma=0.9,
        )
        res = assert_matches_scalar_loop(mdp, 1e-10, 100_000)
        # Fixed point of the better action: v = 0.9*100 + 0.09*v.
        assert res.values[0] == pytest.approx(90.0 / 0.91, abs=1e-8)


def play(kernel, mdp, learn, draws, views=lambda *arrays: arrays):
    """20 episodes from the same starting values, episode ``e`` drawing
    from ``draws(e)``; returns each episode's result and landings, then the
    final q and counts."""

    n = mdp.num_action_slots
    offsets, dest, p, r, q, counts = views(
        mdp.action_offsets, mdp.action_dest, mdp.action_success, mdp.action_reward,
        np.arange(n, dtype=np.float64) % 7, np.zeros(n),
    )
    record = []
    for episode in range(20):
        landings = np.zeros(200, dtype=np.int64)
        steps, total, reached = kernel(
            offsets, dest, p, r, 0.9, mdp.terminal_state, mdp.initial_state,
            200, q, counts, 0.3, 0.5, 0.4, learn, draws(episode), landings,
        )
        record.append((steps, float(total).hex(), reached, landings.tolist()))
    return record, np.array(q).tobytes(), np.array(counts).tobytes()


@needs_numba
class TestNumbaEquivalence:
    @pytest.mark.parametrize("learn", [True, False])
    def test_dispatcher_matches_python(self, arrays, learn):
        compiled = play(_kernels.episode_kernel, arrays, learn, fresh_gen)
        python = play(_kernels.episode_kernel.py_func, arrays, learn, fresh_gen)
        assert compiled == python


def as_lists(*arrays):
    return tuple(a.tolist() for a in arrays)


class TestListsAndReplay:
    """The numpy backend's loop inputs: lists and a replay of the PCG64
    stream give what arrays and the Generator's own draws give."""

    @pytest.mark.parametrize("learn", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_arrays_and_generator(self, learn, seed):
        mdp = build_cvss_mdp(generate(TopologyParams(2, 4, 0.4, 2, 0.5, seed=seed)))
        reference = fresh_gen(seed)
        expected = play(_episode_loop, mdp, learn, lambda _: reference)
        gen = fresh_gen(seed)
        replay = Pcg64Replay(gen)
        got = play(_episode_loop, mdp, learn, lambda _: replay, as_lists)
        assert got == expected
        replay.sync()
        assert gen.bit_generator.state == reference.bit_generator.state
        assert gen.random() == reference.random()


# Ranges numpy draws differently: none (1), its half-word paths (small and
# 2**31 + 1, which rejects almost half its draws), the largest Lemire range
# (2**32 - 1), and the unmasked half-word (2**32).
RANGES = st.sampled_from([1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32])
DRAWS = st.lists(
    st.one_of(
        st.just("random"),
        st.just("sync"),
        st.tuples(st.integers(-5, 5), RANGES),
    ),
    # Long enough to cross the replay's first block boundaries (32, 96 and
    # 224 words after a sync).
    max_size=300,
)


class TestPcg64Replay:
    """Pins the replay to numpy's streams: if numpy changes how it makes a
    double or a bounded integer from PCG64's words, or how it buffers
    half-words, these fail."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        buffered=st.none() | st.integers(0, 2**32 - 1),
        draws=DRAWS,
    )
    def test_draws_and_state_match_the_generator(self, seed, buffered, draws):
        reference, gen = fresh_gen(seed), fresh_gen(seed)
        if buffered is not None:  # a half-word left over from an earlier draw
            for g in (reference, gen):
                state = g.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, buffered
                g.bit_generator.state = state
        replay = Pcg64Replay(gen)
        for draw in draws:
            if draw == "random":
                assert replay.random() == reference.random()
            elif draw == "sync":
                replay.sync()
                assert gen.bit_generator.state == reference.bit_generator.state
            else:
                low, n = draw
                assert replay.integers(low, low + n) == reference.integers(low, low + n)
        replay.sync()
        assert gen.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
    def test_rejects_ranges_it_cannot_replay(self, n):
        with pytest.raises(ValueError, match="ranges of 1 to 2\\*\\*32"):
            Pcg64Replay(fresh_gen(0)).integers(0, n)

    def test_only_pcg64_generators_are_replayed(self):
        arrays = (np.arange(3, dtype=np.int64), np.linspace(0.0, 1.0, 4))
        views, draws, _ = _kernels.loop_inputs(arrays, fresh_gen(0))
        assert isinstance(draws, Pcg64Replay) is (_kernels.BACKEND == "numpy")
        if _kernels.BACKEND == "numpy":
            assert all(type(v) is list for v in views)
            assert views == tuple(a.tolist() for a in arrays)
        else:
            assert views is arrays
        for bit_generator in (np.random.Philox, np.random.MT19937, np.random.SFC64):
            gen = np.random.Generator(bit_generator(0))
            before = gen.bit_generator.state
            _, draws, sync = _kernels.loop_inputs(arrays, gen)
            assert draws is gen
            sync()
            np.testing.assert_equal(gen.bit_generator.state, before)


class TestEpisodeLoop:
    def test_step_cap_respected(self):
        # One action looping in place with p = 1: every step succeeds but
        # never reaches the terminal, so the cap is the only exit.
        offsets = np.array([0, 1, 1], dtype=np.int64)
        dest = np.array([0], dtype=np.int64)
        p = np.array([1.0])
        r = np.array([0.5])
        q = np.zeros(1)
        counts = np.zeros(1)
        steps, total, reached = _episode_loop(
            offsets, dest, p, r, 0.9, 1, 0, 25, q, counts, 0.1, 0.0, 0.0,
            True, fresh_gen(0), NO_LANDINGS,
        )
        assert steps == 25
        assert reached is False
        assert counts[0] == 25.0

    def test_terminal_ends_episode(self):
        offsets = np.array([0, 1, 1], dtype=np.int64)
        dest = np.array([1], dtype=np.int64)
        p = np.array([1.0])
        r = np.array([100.0])
        q = np.zeros(1)
        counts = np.zeros(1)
        steps, total, reached = _episode_loop(
            offsets, dest, p, r, 0.9, 1, 0, 25, q, counts, 1.0, 0.0, 0.0,
            True, fresh_gen(0), NO_LANDINGS,
        )
        assert (steps, total, reached) == (1, 100.0, True)
        assert q[0] == 100.0  # full-alpha terminal backup

    def test_learning_rate_decay_uses_visit_counts(self):
        offsets = np.array([0, 1, 1], dtype=np.int64)
        dest = np.array([0], dtype=np.int64)
        p = np.array([1.0])
        r = np.array([1.0])
        q = np.zeros(1)
        counts = np.zeros(1)
        _episode_loop(
            offsets, dest, p, r, 0.0, 1, 0, 3, q, counts, 1.0, 1.0, 0.0,
            True, fresh_gen(0), NO_LANDINGS,
        )
        # alpha_eff = 1/n per visit with gamma 0: q converges on the running
        # average of the constant reward, i.e. exactly 1.
        assert q[0] == pytest.approx(1.0)
        assert counts[0] == 3.0

    def test_absorbing_state_breaks_immediately(self):
        offsets = np.array([0, 1, 1, 1], dtype=np.int64)
        dest = np.array([1], dtype=np.int64)
        p = np.array([1.0])
        r = np.array([-1.0])
        q = np.zeros(1)
        counts = np.zeros(1)
        steps, total, reached = _episode_loop(
            offsets, dest, p, r, 0.9, 2, 0, 50, q, counts, 0.5, 0.0, 0.0,
            True, fresh_gen(0), NO_LANDINGS,
        )
        # lands in the action-less state 1 and stops there.
        assert steps == 1
        assert reached is False


class TestRolloutLoop:
    """``learn=False``: the greedy rollout, which ignores epsilon."""

    def test_greedy_tie_breaks_low_and_caps(self):
        offsets = np.array([0, 2, 2], dtype=np.int64)
        dest = np.array([0, 1], dtype=np.int64)
        p = np.array([1.0, 1.0])
        r = np.array([0.0, 100.0])
        q = np.zeros(2)  # tie: slot 0 wins, loops forever
        landings = np.empty(10, dtype=np.int64)
        steps, total, reached = _episode_loop(
            offsets, dest, p, r, 0.9, 1, 0, 10, q, np.zeros(2), 0.5, 0.0, 1.0,
            False, fresh_gen(0), landings,
        )
        assert steps == 10 and reached is False
        # Slot 0 loops back to state 0; slot 1 would have reached state 1.
        assert np.all(landings[:steps] == 0)

    def test_draw_protocol_is_one_uniform_per_step(self):
        offsets = np.array([0, 1, 1], dtype=np.int64)
        dest = np.array([1], dtype=np.int64)
        p = np.array([0.5])
        r = np.array([2.0])
        q = np.array([0.25])
        counts = np.array([7.0])
        landings = np.empty(50, dtype=np.int64)
        gen = fresh_gen(3)
        expected_draws = [fresh_gen(3).random() for _ in range(50)]
        steps, total, reached = _episode_loop(
            offsets, dest, p, r, 0.9, 1, 0, 50, q, counts, 0.5, 0.0, 1.0,
            False, gen, landings,
        )
        # Count of failures before the first success must match the raw
        # stream: the loop consumes exactly one uniform per step.
        fails = 0
        for d in expected_draws:
            if d < 0.5:
                break
            fails += 1
        assert steps == fails + 1
        assert reached is True
        assert total == 2.0
        # Nothing is learned, and the stream moved by exactly steps uniforms.
        assert q.tobytes() == np.array([0.25]).tobytes()
        assert counts.tobytes() == np.array([7.0]).tobytes()
        reference = fresh_gen(3)
        for _ in range(steps):
            reference.random()
        assert gen.random() == reference.random()


def _child_env(backend: str) -> dict[str, str]:
    """Environment for a child interpreter that imports this same package,
    which may be importable here only through pytest's ``pythonpath``."""

    src = str(Path(_kernels.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, CYBERMDP_BACKEND=backend, PYTHONPATH=path)


class TestBackendSelection:
    def test_backend_constant_consistent(self):
        assert _kernels.BACKEND in ("numba", "numpy")
        assert _kernels.HAS_NUMBA == (_kernels.BACKEND == "numba")

    def test_invalid_backend_env_rejected(self):
        env = _child_env("cuda")
        proc = subprocess.run(
            [sys.executable, "-c", "import cybermdp"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode != 0
        assert "CYBERMDP_BACKEND" in proc.stderr

    def test_numpy_env_forces_fallback(self):
        env = _child_env("numpy")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from cybermdp import _kernels; print(_kernels.BACKEND)",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "numpy"
