"""Backend equivalence tests.

The numba and numpy backends must be bit-identical, not merely close: the
same seeds must yield the same artifacts regardless of which backend built
them.  These tests compare the compiled episode dispatcher against its pure
Python twin, the numpy backend's lists and PCG64 replay against arrays and
the Generator, a run of episodes in one loop call against one call per
episode, and value iteration's vectorized backup against the scalar sweep
in oracles.py.  They also check what ``_kernels`` prepares for the loop,
and that ``solver`` leaves every backend choice to it.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermdp import _kernels, solver
from conftest import make_mdp
from cybermdp._kernels import _BLOCK, _NO_LANDINGS, Pcg64Replay, _episode_loop
from cybermdp.mdp import Mdp, build_cvss_mdp, value_iteration
from cybermdp.netgen import TopologyParams, generate
from cybermdp.solver import TrainConfig, train
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
            200, q, counts, 0.3, 0.5, np.array([0.4]), learn, draws(episode), landings,
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


def next_draws(draws) -> list:
    """What the next few draws give, a half-word first: where the source
    is left, as far as a loop can tell."""

    return [int(draws.integers(0, 2**32)), draws.random(), int(draws.integers(0, 1000))]


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
        assert next_draws(replay) == next_draws(reference)


# Ranges numpy draws differently: none (1), its half-word paths (small and
# 2**31 + 1, which rejects almost half its draws), the largest Lemire range
# (2**32 - 1), and the unmasked half-word (2**32).
RANGES = st.sampled_from([1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32])
DRAWS = st.lists(
    st.one_of(st.just("random"), st.tuples(st.integers(-5, 5), RANGES)),
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
        # Uniforms taken first, so that the listed draws start in a block's
        # last words and cross into the next block.
        lead=st.integers(_BLOCK - 64, _BLOCK),
        draws=DRAWS,
    )
    def test_draws_and_state_match_the_generator(self, seed, buffered, lead, draws):
        reference, gen = fresh_gen(seed), fresh_gen(seed)
        if buffered is not None:  # a half-word left over from an earlier draw
            for g in (reference, gen):
                state = g.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, buffered
                g.bit_generator.state = state
        replay = Pcg64Replay(gen)
        assert [replay.random() for _ in range(lead)] == reference.random(lead).tolist()
        for draw in draws:
            if draw == "random":
                assert replay.random() == reference.random()
            else:
                low, n = draw
                assert replay.integers(low, low + n) == reference.integers(low, low + n)
        # The buffered half-word is state the draws above may not reveal.
        assert next_draws(replay) == next_draws(reference)

    @pytest.mark.parametrize("buffered", [None, 2**32 - 7])
    def test_generator_draws_nothing_for_a_one_integer_range(self, buffered):
        # What lets the loop skip its exploration draw at a lone action.
        gen = fresh_gen(7)
        gen.random()
        if buffered is not None:
            state = gen.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, buffered
            gen.bit_generator.state = state
        before = gen.bit_generator.state
        assert [int(gen.integers(low, low + 1)) for low in (0, -3, 10)] == [0, -3, 10]
        assert gen.bit_generator.state == before

    def test_long_interleaved_draws_match_the_generator(self):
        # About 5,000 words: across several blocks, with integers taken at
        # block boundaries too.
        reference, gen = fresh_gen(21), fresh_gen(21)
        replay = Pcg64Replay(gen)
        picker = np.random.default_rng(0)
        ranges = [2, 3, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32]
        for _ in range(6000):
            if picker.random() < 0.7:
                assert replay.random() == reference.random()
            else:
                n = ranges[int(picker.integers(0, len(ranges)))]
                assert replay.integers(0, n) == reference.integers(0, n)
        assert next_draws(replay) == next_draws(reference)

    def test_a_dropped_replay_is_freed_at_once(self):
        # Nothing that the replay's chain holds refers back to it, so it
        # goes with its last reference, not at the collector's next pass.
        gen = fresh_gen(11)
        gc.disable()
        try:
            replay = Pcg64Replay(gen)
            for _ in range(_BLOCK + 50):  # into the second block
                replay.random()
            replay.integers(0, 5)
            alive = weakref.ref(replay)
            del replay
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
    def test_rejects_ranges_it_cannot_replay(self, n):
        with pytest.raises(ValueError, match="ranges of 1 to 2\\*\\*32"):
            Pcg64Replay(fresh_gen(0)).integers(0, n)

    def test_only_pcg64_generators_are_replayed(self):
        draws = _kernels.loop_draws(fresh_gen(0))
        assert isinstance(draws, Pcg64Replay) is (_kernels.BACKEND == "numpy")
        for bit_generator in (np.random.Philox, np.random.MT19937, np.random.SFC64):
            gen = np.random.Generator(bit_generator(0))
            before = gen.bit_generator.state
            assert _kernels.loop_draws(gen) is gen
            np.testing.assert_equal(gen.bit_generator.state, before)


class TestLoopSeam:
    """What ``_kernels`` prepares for the loop, and that ``solver`` leaves
    every backend choice to it."""

    def test_view_of_a_read_only_array_is_writable_and_equal(self, arrays):
        values = np.linspace(-1.0, 1.0, arrays.num_action_slots)
        values.setflags(write=False)
        view = _kernels.loop_view(values)
        if _kernels.BACKEND == "numpy":
            assert type(view) is list
        else:
            assert isinstance(view, np.ndarray) and view.flags.writeable
        assert np.array(view).tobytes() == values.tobytes()
        # A frozen TabularQ plays as it is and stays frozen and unchanged.
        q = solver.TabularQ(action_offsets=arrays.action_offsets, values=values)
        before = values.tobytes()
        solver.rollout_greedy(arrays, q, fresh_gen(0), max_steps=50)
        assert not q.values.flags.writeable
        assert q.values.tobytes() == before

    def test_solver_names_no_backend_rule(self):
        # The backend's way of feeding the loop lives in _kernels alone.
        text = Path(solver.__file__).read_text(encoding="utf-8")
        for name in ("HAS_NUMBA", "BACKEND", "np.require", "Pcg64Replay", "loop_inputs"):
            assert name not in text, f"solver.py names {name}"


def random_process(seed: int) -> Mdp:
    """3 to 9 states; each non-terminal state owns 0 to 4 slots (the
    initial state at least one) with random destinations, success
    probabilities and rewards, and the last state is the terminal."""

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    actions = [
        [
            (int(rng.integers(0, n)), float(rng.uniform(0.2, 1.0)), float(rng.normal(0.0, 10.0)))
            for _ in range(int(rng.integers(1 if s == 0 else 0, 5)))
        ]
        for s in range(n - 1)
    ]
    return make_mdp(states=tuple(f"s{i}" for i in range(n)), actions=[*actions, []], gamma=0.9)


PROCESSES = [random_process(seed) for seed in range(24)]


class TestChunkedEpisodes:
    """One loop call over N exploration rates plays the N episodes that N
    one-rate calls play, on whichever backend is active."""

    def test_processes_hold_every_kind_of_state(self):
        owned = np.concatenate([np.diff(m.action_offsets)[:-1] for m in PROCESSES])
        assert {0, 1, 2, 3, 4} <= set(owned.tolist())

    @pytest.mark.parametrize("alpha_decay", [0.0, 0.6])
    @pytest.mark.parametrize("index", range(len(PROCESSES)))
    def test_one_call_equals_one_call_per_episode(self, index, alpha_decay):
        mdp = PROCESSES[index]
        n = mdp.num_action_slots
        epsilons = np.linspace(1.0, 0.05, 30)
        process = _kernels.loop_process(mdp)
        runs = []
        for chunks in ([epsilons], np.split(epsilons, len(epsilons))):
            q = _kernels.loop_view(np.arange(n, dtype=np.float64) % 3)
            counts = _kernels.loop_view(np.zeros(n))
            draws = _kernels.loop_draws(fresh_gen(index))
            for chunk in chunks:
                last = _kernels.episode_kernel(
                    *process,
                    40, q, counts, 0.3, alpha_decay, _kernels.loop_view(chunk), True, draws,
                    _NO_LANDINGS,
                )
            runs.append((last, np.array(q).tobytes(), np.array(counts).tobytes(),
                         next_draws(draws)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "episodes, eval_interval, decay",
        [(21, 4, None), (10, 25, None), (300, 1, 7), (9000, 9000, 100), (9001, 4500, None)],
    )
    def test_chunk_epsilons_are_epsilon_at(self, monkeypatch, episodes, eval_interval, decay):
        chunks = []
        learner = solver._tabular_learner

        def recording_learner(*args):
            play, slot_values = learner(*args)

            def recording_play(epsilons):
                chunks.append(epsilons.copy())
                play(epsilons)

            return recording_play, slot_values

        monkeypatch.setattr(solver, "_tabular_learner", recording_learner)
        cfg = TrainConfig(episodes=episodes, eval_interval=eval_interval,
                          epsilon_end=0.2, epsilon_decay_episodes=decay)
        mdp = make_mdp(states=("a", "t"), actions=[[(1, 1.0, 1.0)], []], gamma=0.9)
        result = train(mdp, cfg)
        expected = np.array([cfg.epsilon_at(e) for e in range(episodes)], dtype=np.float64)
        assert np.concatenate(chunks).tobytes() == expected.tobytes()
        # Each chunk stops at the next evaluation, at the end, or after
        # _MAX_CHUNK episodes, whichever comes first.
        start = 0
        for chunk in chunks:
            stop = start + len(chunk)
            next_eval = (start // eval_interval + 1) * eval_interval
            assert stop == min(next_eval, episodes, start + solver._MAX_CHUNK)
            start = stop
        assert [e for e, _ in result.curve] == [
            e for e in range(eval_interval, episodes + 1, eval_interval)
        ]


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
            offsets, dest, p, r, 0.9, 1, 0, 25, q, counts, 0.1, 0.0, [0.0],
            True, fresh_gen(0), _NO_LANDINGS,
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
            offsets, dest, p, r, 0.9, 1, 0, 25, q, counts, 1.0, 0.0, [0.0],
            True, fresh_gen(0), _NO_LANDINGS,
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
            offsets, dest, p, r, 0.0, 1, 0, 3, q, counts, 1.0, 1.0, [0.0],
            True, fresh_gen(0), _NO_LANDINGS,
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
            offsets, dest, p, r, 0.9, 2, 0, 50, q, counts, 0.5, 0.0, [0.0],
            True, fresh_gen(0), _NO_LANDINGS,
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
            offsets, dest, p, r, 0.9, 1, 0, 10, q, np.zeros(2), 0.5, 0.0, [1.0],
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
            offsets, dest, p, r, 0.9, 1, 0, 50, q, counts, 0.5, 0.0, [1.0],
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
