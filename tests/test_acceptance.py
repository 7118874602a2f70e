"""Release gate: one test per shipped guarantee.

Each test covers one externally stated behavior of the package: the exact
scoring formulas, the terrain coefficient tables, stochastic soundness of
every built process, agreement between the tabular learner and the exact
solver, gradient correctness of the network solver, the two directional
effects of terrain on learned routes, exact-policy obstacle avoidance,
throughput at the generator's realistic scale, and byte-level run
reproducibility.  Every test prints one ``ACCEPT <name>: PASS`` line with
its runtime and enforces its own time budget.

Budgets bind on both backends.  Only the oracle-equivalence gate needs the
compiled episode kernels: under the pure-numpy fallback it would run for
hours, so it skips there (both backends are proven bit-identical in
test_kernels, so nothing is hidden).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_PARAMS, component, make_graph
from oracles import (
    action_slot,
    action_target,
    dense_gradients,
    expected_vertex_count,
    finite_difference_grads,
    masked_max_target,
    policy_success_path,
    relative_gradient_error,
    transitions,
)

from cybermdp._kernels import BACKEND
from cybermdp.cli import main
from cybermdp.evaluate import compare_variants
from cybermdp.graph import (
    Complexity,
    CvssAnnotation,
    FirewallAnnotation,
    Protocol,
    serialize_attack_graph,
)
from cybermdp.mdp import (
    action_values,
    base_reward,
    build_cvss_mdp,
    complexity_to_probability,
    value_iteration,
)
from cybermdp.netgen import (
    ENTERPRISE_SCALE,
    TopologyParams,
    generate,
    plant_gauntlet,
)
from cybermdp.network import QNetwork, td_loss_and_gradients
from cybermdp.solver import TrainConfig, train
from cybermdp.terrain import (
    IMPORTANCE_COEFFICIENT,
    REWARD_PENALTY_COEFFICIENT,
    TerrainConfig,
    TerrainMode,
    apply_terrain,
    firewall_importance_factor,
    firewall_presence_factor,
    firewall_reward_penalty,
)

EXACT = 1e-12
needs_compiled_backend = pytest.mark.skipif(
    BACKEND != "numba",
    reason="oracle-equivalence training needs the compiled episode kernels",
)

# Tuned on the gauntlet: the long corridor needs this many episodes for
# one-step backups to carry the terminal reward to the entry decision.
DETOUR_TRAIN = dict(
    episodes=12_000,
    learning_rate=0.5,
    learning_rate_decay=0.7,
    epsilon_end=0.2,
    eval_interval=200,
)


@contextmanager
def accept(name: str, budget_seconds: float):
    """Time a criterion body against its budget; on success print its PASS
    line."""

    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{name} took {elapsed:.1f}s, budget {budget_seconds:.0f}s"
    )
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Pay the one-off kernel compilation cost outside any timed body."""

    mdp = build_cvss_mdp(generate(TopologyParams(1, 3, 0.5, 1, 0.0, seed=1)))
    value_iteration(mdp)
    train(mdp, TrainConfig(episodes=2, eval_interval=1))


def small_random_params(rng: np.random.Generator, max_vertices: int) -> TopologyParams:
    """Draw generator knobs until the expected size fits."""

    while True:
        params = TopologyParams(
            num_subnets=int(rng.integers(1, 5)),
            hosts_per_subnet=int(rng.integers(2, 9)),
            intra_edge_prob=float(rng.uniform(0.05, 0.5)),
            inter_edge_count=int(rng.integers(1, 4)),
            firewall_prob=float(rng.uniform(0.2, 0.8)),
            seed=int(rng.integers(0, 2**31)),
        )
        if expected_vertex_count(params) <= max_vertices:
            return params


def test_reward_and_probability_formulas():
    with accept("formula-fidelity", budget_seconds=2.0):
        assert complexity_to_probability(Complexity.LOW) == 0.9
        assert complexity_to_probability(Complexity.MEDIUM) == 0.6
        assert complexity_to_probability(Complexity.HIGH) == 0.3

        rng = np.random.default_rng(20250817)
        for _ in range(200):
            base = float(rng.uniform(0.0, 10.0))
            expl = float(rng.uniform(0.0, 10.0))
            cvss = CvssAnnotation(base=base, exploitability=expl, complexity=Complexity.LOW)
            assert abs(base_reward(cvss) - (base + expl / 10.0)) <= EXACT

        # One process exhibiting all three special arrivals: the terminal
        # jackpot, the return-to-start trickle, and the dead-end branch
        # (x and y can never reach t).
        graph = make_graph(
            vertices=(
                component("a"),
                component("b"),
                component("x"),
                component("y"),
                component("t"),
            ),
            edges=(("a", "b"), ("b", "a"), ("b", "x"), ("x", "y"), ("b", "t")),
            initial="a",
            terminal="t",
        )
        mdp = build_cvss_mdp(graph)
        b = mdp.states.index("b")
        slots = {
            mdp.vertex_id(action_target(mdp, b, k)): mdp.action_reward[
                action_slot(mdp, b, k)
            ]
            for k in range(mdp.num_actions(b))
        }
        assert slots["t"] == 100.0
        assert slots["a"] == 0.01
        assert slots["x"] == -1.0
        x = mdp.states.index("x")
        assert mdp.action_reward[action_slot(mdp, x, 0)] == -1.0


def test_terrain_coefficient_tables():
    with accept("terrain-tables", budget_seconds=2.0):
        assert REWARD_PENALTY_COEFFICIENT == {
            Protocol.FTP: 0.8,
            Protocol.SMTP: 0.6,
            Protocol.HTTP: 0.4,
            Protocol.SSH: 0.2,
        }
        assert IMPORTANCE_COEFFICIENT == {
            Protocol.FTP: 0.2,
            Protocol.SMTP: 0.4,
            Protocol.HTTP: 0.6,
            Protocol.SSH: 0.8,
        }

        def fw(*blocked: Protocol) -> FirewallAnnotation:
            return FirewallAnnotation(blocked=frozenset(blocked))

        assert firewall_presence_factor(None) == 1.0
        assert firewall_presence_factor(fw(Protocol.HTTP)) == 0.01

        # Single-protocol rows at unit strength, then the two multi-protocol
        # averages worked out by hand.
        for protocol, coefficient in REWARD_PENALTY_COEFFICIENT.items():
            assert firewall_reward_penalty(fw(protocol), -1.0) == pytest.approx(
                -coefficient, abs=EXACT
            )
        assert firewall_reward_penalty(
            fw(Protocol.FTP, Protocol.SSH), -2.0
        ) == pytest.approx(-1.0, abs=EXACT)

        for protocol, coefficient in IMPORTANCE_COEFFICIENT.items():
            assert firewall_importance_factor(fw(protocol)) == pytest.approx(
                coefficient, abs=EXACT
            )
        assert firewall_importance_factor(
            fw(Protocol.FTP, Protocol.SMTP)
        ) == pytest.approx(0.3, abs=EXACT)
        assert firewall_importance_factor(fw(*Protocol)) == pytest.approx(
            0.5, abs=EXACT
        )


def test_transition_rows_stay_stochastic():
    with accept("stochasticity", budget_seconds=60.0):
        rng = np.random.default_rng(20250817)
        for _ in range(100):
            graph = generate(small_random_params(rng, max_vertices=200))
            vanilla = build_cvss_mdp(graph)
            adjusted = apply_terrain(
                vanilla, graph, TerrainConfig(TerrainMode.STATE)
            )
            for mdp in (vanilla, adjusted):
                for s in range(mdp.num_states):
                    for k in range(mdp.num_actions(s)):
                        entries = transitions(mdp, s, k)
                        total = sum(p for _, p in entries)
                        assert abs(total - 1.0) <= EXACT
                        assert all(0.0 <= p <= 1.0 for _, p in entries)
            assert np.all(adjusted.action_success <= vanilla.action_success)
            assert np.all(adjusted.action_success > 0.0)


def tractable_small_params(rng: np.random.Generator) -> TopologyParams:
    """Small-suite knobs sized so every decisive state gets visited.

    Kept denser and shallower than :func:`small_random_params`: a state
    nine hops deep behind a 0.3-probability edge needs more episodes to
    converge than the five-minute budget allows, which says nothing about
    the learner beyond its sample complexity.
    """

    while True:
        params = TopologyParams(
            num_subnets=int(rng.integers(1, 4)),
            hosts_per_subnet=int(rng.integers(2, 7)),
            intra_edge_prob=float(rng.uniform(0.1, 0.6)),
            inter_edge_count=int(rng.integers(1, 3)),
            firewall_prob=float(rng.uniform(0.0, 0.6)),
            seed=int(rng.integers(0, 2**31)),
        )
        if expected_vertex_count(params) <= 30:
            return params


@needs_compiled_backend
def test_tabular_policy_matches_exact_solver():
    with accept("oracle-equivalence", budget_seconds=300.0):
        rng = np.random.default_rng(20250817)
        decisive_states = 0
        mismatches = []
        for index in range(50):
            while True:
                mdp = build_cvss_mdp(generate(tractable_small_params(rng)))
                if mdp.num_states <= 30:
                    break
            exact = value_iteration(mdp)
            learned = train(
                mdp,
                TrainConfig(
                    episodes=40_000,
                    learning_rate=0.5,
                    learning_rate_decay=0.6,
                    epsilon_end=0.5,
                    eval_interval=1000,
                    seed=int(rng.integers(0, 2**31)),
                ),
            ).q
            for s in range(mdp.num_states):
                if mdp.num_actions(s) < 2:
                    continue
                values = action_values(mdp, exact.values, s)
                ranked = np.sort(values)
                advantage = ranked[-1] - ranked[-2]
                if advantage <= 0.01:
                    continue
                decisive_states += 1
                if int(np.argmax(learned.action_values(s))) != int(np.argmax(values)):
                    mismatches.append((index, mdp.vertex_id(s), float(advantage)))
        assert decisive_states >= 50
        assert not mismatches, f"greedy policy disagrees with the solver at {mismatches}"


def test_dqn_gradients_match_finite_differences():
    with accept("gradient-check", budget_seconds=60.0):
        rng = np.random.default_rng(20250817)
        shapes = [(), (6,), (12, 8)]
        for draw in range(20):
            num_states = int(rng.integers(3, 9))
            num_actions = int(rng.integers(2, 6))
            hidden = shapes[draw % len(shapes)]
            net = QNetwork(
                num_states, num_actions, hidden,
                rng=np.random.Generator(np.random.PCG64(int(rng.integers(0, 2**31)))),
            )
            target = QNetwork(
                num_states, num_actions, hidden,
                rng=np.random.Generator(np.random.PCG64(int(rng.integers(0, 2**31)))),
            )
            batch = int(rng.integers(3, 11))
            states = rng.integers(0, num_states, size=batch)
            actions = rng.integers(0, num_actions, size=batch)
            rewards = rng.normal(0.0, 5.0, size=batch)
            next_states = rng.integers(0, num_states, size=batch)
            done = rng.random(batch) < 0.25
            mask = rng.random((batch, num_actions)) < 0.7
            for i in range(batch):
                if not done[i] and not mask[i].any():
                    mask[i, int(rng.integers(0, num_actions))] = True
            gamma = float(rng.uniform(0.5, 0.999))
            # Per state; a state drawn twice keeps its last sample's value.
            next_values = np.zeros(num_states)
            next_values[next_states] = masked_max_target(target, next_states, mask)
            args = (next_values, states, actions, rewards, next_states, done, gamma)
            _, analytic = td_loss_and_gradients(net, *args)
            numeric = finite_difference_grads(net, *args)
            assert relative_gradient_error(dense_gradients(net, analytic), numeric) < 1e-4


def test_firewall_detour_lengthens_learned_routes():
    with accept("terrain-detour", budget_seconds=600.0):
        graph = plant_gauntlet(DESK_PARAMS, frozenset({Protocol.FTP}))
        variants = [
            TerrainConfig(TerrainMode.VANILLA),
            TerrainConfig(TerrainMode.REWARD, strength=-2.0),
            TerrainConfig(TerrainMode.STATE),
        ]
        detours = 0
        observed = []
        for seed in range(5):
            report = compare_variants(
                graph,
                variants,
                TrainConfig(seed=seed, **DETOUR_TRAIN),
                gamma=0.999,
            )
            vanilla, reward, state = report
            ok = (
                reward.hops > vanilla.hops
                and state.hops > vanilla.hops
                and reward.total_reward < vanilla.total_reward
            )
            detours += ok
            observed.append(
                (seed, vanilla.hops, reward.hops, state.hops,
                 round(vanilla.total_reward - reward.total_reward, 2), ok)
            )
        assert detours >= 4, f"terrain failed to lengthen routes: {observed}"


def test_ftp_block_costs_more_than_ssh_block():
    with accept("protocol-ordering", budget_seconds=600.0):
        graph = plant_gauntlet(DESK_PARAMS, frozenset(Protocol))
        ordered = 0
        observed = []
        for seed in range(5):
            report = compare_variants(
                graph,
                [
                    TerrainConfig(TerrainMode.REWARD, -2.0, Protocol.FTP),
                    TerrainConfig(TerrainMode.REWARD, -2.0, Protocol.SSH),
                ],
                TrainConfig(seed=seed, **DETOUR_TRAIN),
                gamma=0.999,
            )
            ftp, ssh = report
            ok = (
                ftp.reached_terminal
                and ssh.reached_terminal
                and ftp.total_reward <= ssh.total_reward
            )
            ordered += ok
            observed.append(
                (seed, round(ftp.total_reward, 2), round(ssh.total_reward, 2), ok)
            )
        assert ordered >= 4, f"blocking ftp should cost at least ssh: {observed}"


def test_exact_policy_detours_around_firewall():
    with accept("obstacle-avoidance", budget_seconds=30.0):
        graph = plant_gauntlet(DESK_PARAMS, frozenset({Protocol.FTP}))
        vanilla = build_cvss_mdp(graph, gamma=0.999)
        through = policy_success_path(vanilla, value_iteration(vanilla).policy)
        adjusted = apply_terrain(vanilla, graph, TerrainConfig(TerrainMode.STATE))
        around = policy_success_path(adjusted, value_iteration(adjusted).policy)
        assert through[-1] == "target" and around[-1] == "target"
        assert "s1" in through, f"vanilla optimum should use the firewalled hop: {through}"
        assert "s1" not in around, f"adjusted optimum should avoid it: {around}"
        assert len(around) > len(through)


def test_generated_scale_build_and_training_budget():
    with accept("scale", budget_seconds=300.0):
        config = TrainConfig(episodes=100)
        assert config.max_steps_per_episode == 2500
        assert config.eval_interval == 4
        graph = generate(ENTERPRISE_SCALE)
        assert len(graph.vertices) == 955
        mdp = build_cvss_mdp(graph)
        result = train(mdp, config)
        assert len(result.curve) == 25
        assert result.curve[-1][0] == 100


def test_compare_rerun_is_byte_identical(tmp_path: Path):
    with accept("determinism", budget_seconds=120.0):
        graph_file = tmp_path / "gauntlet.json"
        graph_file.write_text(
            serialize_attack_graph(
                plant_gauntlet(DESK_PARAMS, frozenset({Protocol.FTP}))
            ),
            encoding="utf-8",
        )
        first = tmp_path / "run1"
        assert main([
            "compare", str(graph_file), "--out", str(first),
            "--gamma", "0.999", "--episodes", "60", "--learning-rate", "0.4",
            "--max-steps", "300", "--seed", "11",
        ]) == 0
        second = tmp_path / "run2"
        assert main([
            "compare", str(graph_file), "--out", str(second),
            "--config", str(first / "manifest.json"),
        ]) == 0
        first_bytes = {p.name: p.read_bytes() for p in first.iterdir()}
        second_bytes = {p.name: p.read_bytes() for p in second.iterdir()}
        assert first_bytes == second_bytes
        assert {"summary.csv", "manifest.json"} <= set(first_bytes)
