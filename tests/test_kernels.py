"""Backend equivalence tests.

The numba and numpy backends must be bit-identical, not merely close: the
same seeds must yield the same artifacts regardless of which backend built
them.  These tests compare the compiled episode dispatcher against its pure
Python twin, and value iteration's vectorized backup against the scalar
sweep in oracles.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cybermdp import _kernels
from conftest import make_mdp
from cybermdp._kernels import _episode_loop
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


@needs_numba
class TestNumbaEquivalence:
    @pytest.mark.parametrize("learn", [True, False])
    def test_dispatcher_matches_python(self, arrays, learn):
        mdp = arrays

        def play(kernel):
            q = np.arange(mdp.num_action_slots, dtype=np.float64) % 7
            counts = np.zeros(mdp.num_action_slots)
            record = []
            for episode in range(20):
                landings = np.zeros(200, dtype=np.int64)
                out = kernel(
                    mdp.action_offsets, mdp.action_dest, mdp.action_success,
                    mdp.action_reward, 0.9, mdp.terminal_state, mdp.initial_state,
                    200, q, counts, 0.3, 0.5, 0.4, learn, fresh_gen(episode),
                    landings,
                )
                record.append((out, landings.tolist()))
            return record, q, counts

        record_c, q_c, c_c = play(_kernels.episode_kernel)
        record_p, q_p, c_p = play(_kernels.episode_kernel.py_func)
        assert record_c == record_p
        np.testing.assert_array_equal(q_c, q_p)
        np.testing.assert_array_equal(c_c, c_p)


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
