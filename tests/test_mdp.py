"""Compiler and solver tests.

The derived quantities (DFS depths, optimal values) are checked against
independent oracles in oracles.py: a literal recursive DFS, an exact linear
solve per policy, and exhaustive policy enumeration on small processes.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import component, make_graph, make_mdp
from cybermdp.graph import (
    AttackGraph,
    Complexity,
    DEFAULT_CVSS,
    CvssAnnotation,
    Vertex,
    VertexKind,
)
from cybermdp.mdp import (
    COMPLEXITY_SUCCESS_PROBABILITY,
    DEAD_END_REWARD,
    INITIAL_REWARD,
    REWARD_FLOOR,
    TERMINAL_REWARD,
    ConvergenceError,
    Mdp,
    action_values,
    base_reward,
    build_cvss_mdp,
    complexity_to_probability,
    dfs_depths,
    serialize_mdp,
    value_iteration,
)
from cybermdp.netgen import TopologyParams, generate, plant_gauntlet
from cybermdp.solver import TabularQ
from oracles import (
    action_slot,
    action_target,
    enumerate_optimal_values,
    policy_values,
    recursive_dfs_depths,
    reward,
    success_probability,
    transitions,
)

EXACT = 1e-12


def random_dag_like_graph(rng: np.random.Generator, n: int) -> AttackGraph:
    """Random graph with a guaranteed initial-to-terminal chain."""

    complexities = list(COMPLEXITY_SUCCESS_PROBABILITY)
    vertices = tuple(
        component(
            f"v{i}",
            base=float(rng.integers(0, 101)) / 10.0,
            expl=float(rng.integers(0, 101)) / 10.0,
            complexity=complexities[int(rng.integers(0, 3))],
        )
        for i in range(n)
    )
    edges = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    for i in range(n):
        for j in range(n):
            if i != j and j != i + 1 and rng.random() < 0.15:
                edges.append((f"v{i}", f"v{j}"))
    return make_graph(vertices, tuple(edges), "v0", f"v{n - 1}")


class TestRewardModel:
    def test_success_probability_table(self):
        assert COMPLEXITY_SUCCESS_PROBABILITY == {
            Complexity.LOW: 0.9,
            Complexity.MEDIUM: 0.6,
            Complexity.HIGH: 0.3,
        }
        assert complexity_to_probability(Complexity.LOW) == 0.9
        assert complexity_to_probability(Complexity.MEDIUM) == 0.6
        assert complexity_to_probability(Complexity.HIGH) == 0.3

    def test_unknown_complexity_rejected(self):
        with pytest.raises(ValueError):
            complexity_to_probability("low")

    def test_reward_pins(self):
        assert TERMINAL_REWARD == 100.0
        assert INITIAL_REWARD == 0.01
        assert DEAD_END_REWARD == -1.0
        assert REWARD_FLOOR == 0.01

    @pytest.mark.parametrize(
        "base,expl,expected",
        [(7.5, 8.6, 8.36), (0.0, 0.0, 0.0), (10.0, 10.0, 11.0), (3.0, 3.0, 3.3)],
    )
    def test_base_reward_formula(self, base, expl, expected):
        cvss = CvssAnnotation(base=base, exploitability=expl, complexity=Complexity.LOW)
        assert base_reward(cvss) == pytest.approx(expected, abs=EXACT)
        assert base_reward(component("v", base=base, expl=expl)) == pytest.approx(
            expected, abs=EXACT
        )

    def test_unscored_vertex_carries_the_default_score(self):
        bare = Vertex("v", VertexKind.COMPONENT)
        assert bare.cvss == DEFAULT_CVSS
        assert base_reward(bare) == 0.0
        with pytest.raises(TypeError, match="cvss"):
            Vertex("v", VertexKind.COMPONENT, cvss=None)


class TestDfsDepths:
    def test_chain(self, chain_graph):
        assert dfs_depths(chain_graph) == {"a": 0, "b": 1, "c": 2}

    def test_gauntlet_depths(self, gauntlet_ftp):
        depths = dfs_depths(gauntlet_ftp)
        assert depths["entry"] == 0
        assert depths["s1"] == 1 and depths["s2"] == 2
        assert depths["target"] == 3
        # Short route is declared first, so the long hops are discovered
        # fresh at their own chain depths.
        assert [depths[f"l{i}"] for i in range(1, 6)] == [1, 2, 3, 4, 5]

    def test_only_reachable_vertices_included(self):
        g = make_graph(
            (component("a"), component("b"), component("z")),
            (("a", "b"), ("z", "a")),
            "a",
            "b",
        )
        assert dfs_depths(g) == {"a": 0, "b": 1}

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(20250817)
        for n in (3, 5, 8, 12, 20):
            for _ in range(8):
                g = random_dag_like_graph(rng, n)
                assert dfs_depths(g) == recursive_dfs_depths(g)

    def test_matches_recursive_oracle_on_generated_topology(self):
        g = generate(TopologyParams(3, 6, 0.15, 2, 0.5, seed=3))
        assert dfs_depths(g) == recursive_dfs_depths(g)


class TestBuild:
    def test_states_keep_declaration_order(self, dead_end_graph):
        mdp = build_cvss_mdp(dead_end_graph)
        assert mdp.states == ("a", "b", "x", "y", "d")
        assert mdp.initial_state == 0
        assert mdp.terminal_state == 4

    def test_unreachable_vertices_dropped(self):
        g = make_graph(
            (component("a"), component("b"), component("orphan")),
            (("a", "b"),),
            "a",
            "b",
        )
        mdp = build_cvss_mdp(g)
        assert mdp.states == ("a", "b")

    def test_unreachable_terminal_rejected(self):
        g = make_graph(
            (component("a"), component("b"), component("c")),
            (("a", "b"), ("c", "b")),
            "a",
            "c",
        )
        with pytest.raises(ValueError):
            build_cvss_mdp(g)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.0001, 2.0])
    def test_gamma_bounds(self, chain_graph, gamma):
        with pytest.raises(ValueError, match="gamma"):
            build_cvss_mdp(chain_graph, gamma=gamma)

    def test_invalid_graph_rejected(self):
        g = make_graph(
            (component("a"), component("b")),
            (("a", "b"), ("b", "missing")),
            "a",
            "b",
        )
        with pytest.raises(ValueError, match="validation"):
            build_cvss_mdp(g)

    def test_success_probability_from_destination(self):
        g = make_graph(
            (
                component("a", complexity=Complexity.HIGH),
                component("m", complexity=Complexity.MEDIUM),
                component("h", complexity=Complexity.HIGH),
                component("t", complexity=Complexity.LOW),
            ),
            (("a", "m"), ("a", "h"), ("m", "t"), ("h", "t")),
            "a",
            "t",
        )
        mdp = build_cvss_mdp(g)
        a = mdp.states.index("a")
        # Slot order follows edge declaration order: a->m then a->h.
        assert success_probability(mdp, a, 0) == 0.6
        assert success_probability(mdp, a, 1) == 0.3
        assert success_probability(mdp, mdp.states.index("m"), 0) == 0.9

    def test_arrival_rewards_scale_with_depth(self):
        g = make_graph(
            (
                component("a", base=0.0, expl=0.0),
                component("b", base=7.5, expl=8.6),
                component("c", base=4.0, expl=2.0),
                component("t", base=1.0, expl=1.0),
            ),
            (("a", "b"), ("b", "c"), ("c", "t")),
            "a",
            "t",
        )
        mdp = build_cvss_mdp(g)
        # Depths: a 0, b 1, c 2, t 3.
        assert mdp.action_reward[0] == pytest.approx(8.36 * (1 / 3), abs=EXACT)
        assert mdp.action_reward[1] == pytest.approx(4.2 * (2 / 3), abs=EXACT)
        assert mdp.action_reward[2] == TERMINAL_REWARD

    def test_terminal_reward_ignores_cvss(self):
        g = make_graph(
            (component("a"), component("t", base=0.3, expl=0.1)),
            (("a", "t"),),
            "a",
            "t",
        )
        mdp = build_cvss_mdp(g)
        assert mdp.action_reward[0] == 100.0

    def test_return_to_initial_pays_initial_reward(self):
        g = make_graph(
            (component("a", base=9.0, expl=9.0), component("b"), component("t")),
            (("a", "b"), ("b", "a"), ("b", "t")),
            "a",
            "t",
        )
        mdp = build_cvss_mdp(g)
        b = mdp.states.index("b")
        back = action_slot(mdp, b, 0)
        assert mdp.states[mdp.action_dest[back]] == "a"
        assert mdp.action_reward[back] == INITIAL_REWARD

    def test_dead_end_actions_pay_minus_one(self, dead_end_graph):
        mdp = build_cvss_mdp(dead_end_graph)
        b = mdp.states.index("b")
        # b -> x leads into the doomed branch, b -> d finishes.
        rewards = {
            mdp.states[mdp.action_dest[action_slot(mdp, b, k)]]: float(
                mdp.action_reward[action_slot(mdp, b, k)]
            )
            for k in range(mdp.num_actions(b))
        }
        assert rewards["x"] == DEAD_END_REWARD
        assert rewards["d"] == TERMINAL_REWARD
        x = mdp.states.index("x")
        assert mdp.action_reward[action_slot(mdp, x, 0)] == DEAD_END_REWARD

    def test_dead_end_overrides_scaling_not_floor(self):
        # The doomed vertex has a juicy score; it still pays exactly -1.
        g = make_graph(
            (
                component("a"),
                component("rich", base=10.0, expl=10.0),
                component("t"),
            ),
            (("a", "rich"), ("a", "t")),
            "a",
            "t",
        )
        mdp = build_cvss_mdp(g)
        a = mdp.states.index("a")
        assert mdp.action_reward[action_slot(mdp, a, 0)] == -1.0

    def test_reward_floor_applies(self):
        g = make_graph(
            (
                component("a"),
                component("tiny", base=0.0, expl=0.001),
                component("t"),
            ),
            (("a", "tiny"), ("tiny", "t")),
            "a",
            "t",
        )
        mdp = build_cvss_mdp(g)
        # Scaled reward 0.0001 * (1/2) is far below the floor.
        assert mdp.action_reward[0] == REWARD_FLOOR

    def test_terminal_state_has_no_actions(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        assert mdp.num_actions(mdp.terminal_state) == 0

    def test_transition_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for n in (4, 7, 10):
            mdp = build_cvss_mdp(random_dag_like_graph(rng, n))
            for s in range(mdp.num_states):
                for k in range(mdp.num_actions(s)):
                    total = sum(p for _, p in transitions(mdp, s, k))
                    assert total == pytest.approx(1.0, abs=EXACT)


class TestMdpInvariants:
    def test_rejects_single_state(self):
        with pytest.raises(ValueError, match="at least"):
            make_mdp(states=("only",), actions=[[]], gamma=0.9, terminal=0)

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            Mdp(
                states=("a", "b"),
                action_offsets=np.array([0, 2], dtype=np.int64),
                action_dest=np.array([1], dtype=np.int64),
                action_success=np.array([0.9]),
                action_reward=np.array([1.0]),
                gamma=0.9,
                initial_state=0,
                terminal_state=1,
            )

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"action_offsets": [0, 2, 1, 2]}, "non-decreasing"),
            ({"action_success": [0.9]}, "equal length"),
            ({"action_reward": [1.0, 1.0, 1.0]}, "equal length"),
            ({"initial_state": 3}, "out of range"),
            ({"terminal_state": -1}, "out of range"),
        ],
    )
    def test_rejects_inconsistent_fields(self, changes, match):
        fields = dict(
            states=("a", "b", "t"),
            action_offsets=[0, 1, 2, 2],
            action_dest=[1, 2],
            action_success=[0.9, 0.9],
            action_reward=[1.0, 1.0],
            gamma=0.9,
            initial_state=0,
            terminal_state=2,
        )
        Mdp(**fields)
        with pytest.raises(ValueError, match=match):
            Mdp(**{**fields, **changes})

    def test_rejects_dest_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            make_mdp(states=("a", "b"), actions=[[(5, 0.9, 1.0)], []], gamma=0.9)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError, match="probabilit"):
            make_mdp(states=("a", "b"), actions=[[(1, p, 1.0)], []], gamma=0.9)

    @pytest.mark.parametrize(
        "p, r", [(np.nan, 1.0), (0.9, np.inf), (0.9, -np.inf), (0.9, np.nan)]
    )
    def test_rejects_non_finite_success_and_reward(self, p, r):
        # Such a process would make value iteration return NaN or inf values.
        with pytest.raises(ValueError, match="probabilit|finite"):
            make_mdp(states=("a", "b"), actions=[[(1, p, r)], []], gamma=0.9)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, 1.5])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make_mdp(states=("a", "b"), actions=[[(1, 0.9, 1.0)], []], gamma=gamma)

    def test_rejects_initial_equals_terminal(self):
        with pytest.raises(ValueError, match="differ"):
            make_mdp(
                states=("a", "b"),
                actions=[[(1, 0.9, 1.0)], []],
                gamma=0.9,
                initial=1,
            )

    def test_rejects_terminal_with_actions(self):
        with pytest.raises(ValueError, match="terminal"):
            make_mdp(
                states=("a", "b"),
                actions=[[(1, 0.9, 1.0)], [(0, 0.9, 1.0)]],
                gamma=0.9,
            )

    def test_rejects_duplicate_state_ids(self):
        with pytest.raises(ValueError, match="unique"):
            make_mdp(states=("a", "a"), actions=[[(1, 0.9, 1.0)], []], gamma=0.9)

    def test_arrays_frozen(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        with pytest.raises(ValueError):
            mdp.action_reward[0] = 5.0

    def test_indexing_helpers(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        assert mdp.num_states == 3
        assert mdp.vertex_id(1) == "b"
        assert [mdp.num_actions(s) for s in range(3)] == [1, 1, 0]
        assert mdp.num_action_slots == 2

    def test_transitions_and_reward_accessors(self):
        mdp = make_mdp(
            states=("a", "b"), actions=[[(1, 0.7, 2.5)], []], gamma=0.9
        )
        assert transitions(mdp, 0, 0) == ((1, 0.7), (0, pytest.approx(0.3)))
        assert reward(mdp, 0, 0, 1) == 2.5
        assert reward(mdp, 0, 0, 0) == 0.0
        sure = make_mdp(states=("a", "b"), actions=[[(1, 1.0, 2.5)], []], gamma=0.9)
        assert transitions(sure, 0, 0) == ((1, 1.0),)
        with pytest.raises(ValueError):
            reward(mdp, 0, 0, 5)


class TestValueIteration:
    def test_sure_single_step(self):
        mdp = make_mdp(states=("a", "t"), actions=[[(1, 1.0, 100.0)], []], gamma=0.9)
        res = value_iteration(mdp)
        assert res.values[0] == pytest.approx(100.0, abs=1e-8)
        assert res.values[1] == 0.0
        assert res.policy[0] == 0 and res.policy[1] == -1

    def test_deterministic_chain(self):
        mdp = make_mdp(
            states=("a", "b", "t"),
            actions=[[(1, 1.0, 5.0)], [(2, 1.0, 100.0)], []],
            gamma=0.9,
        )
        res = value_iteration(mdp)
        assert res.values[1] == pytest.approx(100.0, abs=1e-8)
        assert res.values[0] == pytest.approx(95.0, abs=1e-8)

    def test_stochastic_fixed_point(self):
        mdp = make_mdp(states=("a", "t"), actions=[[(1, 0.9, 100.0)], []], gamma=0.9)
        res = value_iteration(mdp, tol=1e-10)
        assert res.values[0] == pytest.approx(9000.0 / 91.0, abs=1e-6)

    def test_policy_prefers_better_action(self):
        mdp = make_mdp(
            states=("a", "t"),
            actions=[[(1, 0.3, 100.0), (1, 0.9, 100.0)], []],
            gamma=0.9,
        )
        res = value_iteration(mdp)
        assert res.policy[0] == 1

    def test_converges_with_terminal_declared_last(self):
        # The terminal owns no action slots, so when it carries the highest
        # state index the sweep's last segment belongs to the state before
        # it; that segment must span every slot of that state.
        mdp = make_mdp(
            states=("a", "x", "t"),
            actions=[[(2, 0.3, 100.0), (2, 0.9, 100.0), (1, 0.5, -1.0)], [], []],
            gamma=0.9,
            terminal=2,
        )
        res = value_iteration(mdp)
        # Fixed point of the better jackpot action: v = 0.9*100 + 0.09*v.
        assert res.values[0] == pytest.approx(90.0 / 0.91, abs=1e-8)
        assert res.policy[0] == 1

    def test_residual_is_verified(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        res = value_iteration(mdp, tol=1e-9)
        assert 0.0 <= res.residual <= 1e-9
        assert res.iterations >= 1

    def test_result_arrays_frozen(self, chain_graph):
        res = value_iteration(build_cvss_mdp(chain_graph))
        with pytest.raises(ValueError):
            res.values[0] = 1.0

    def test_convergence_error_carries_residual(self):
        mdp = make_mdp(states=("a", "t"), actions=[[(1, 0.9, 100.0)], []], gamma=0.9)
        with pytest.raises(ConvergenceError) as err:
            value_iteration(mdp, tol=1e-12, max_iters=2)
        assert err.value.residual > 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_values_raise_instead_of_returning_nan(self):
        # A finite but huge self-loop reward overflows to inf on the second
        # sweep and to NaN on the third; a NaN residual must not pass as
        # converged.
        mdp = make_mdp(
            states=("a", "t"),
            actions=[[(0, 1.0, 1e308), (1, 0.5, 1.0)], []],
            gamma=0.999,
        )
        with pytest.raises(ConvergenceError) as err:
            value_iteration(mdp, max_iters=50)
        assert not np.isfinite(err.value.residual)

    def test_policy_is_lowest_index_argmax_of_action_values(self):
        # Slots 0 and 2 of state a are exact duplicates and the best
        # actions; slot 1 is worse.  State b ties two identical actions too.
        tied = make_mdp(
            states=("a", "b", "t"),
            actions=[
                [(2, 0.9, 100.0), (1, 0.9, 1.0), (2, 0.9, 100.0)],
                [(2, 0.6, 50.0), (2, 0.6, 50.0)],
                [],
            ],
            gamma=0.9,
        )
        res = value_iteration(tied)
        assert res.policy.tolist() == [0, 0, -1]
        generated = build_cvss_mdp(generate(TopologyParams(3, 6, 0.15, 2, 0.5, seed=4)))
        for mdp in (tied, generated):
            res = value_iteration(mdp)
            for s in range(mdp.num_states):
                q = action_values(mdp, res.values, s)
                expected = int(np.argmax(q)) if q.size else -1
                assert res.policy[s] == expected

    # An infinite tolerance would pass one sweep off as converged, and a NaN
    # one would run every sweep before failing.
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-8},
            {"max_iters": 0},
            {"tol": float("inf")},
            {"tol": float("nan")},
        ],
    )
    def test_input_validation(self, chain_graph, kwargs):
        mdp = build_cvss_mdp(chain_graph)
        with pytest.raises(ValueError):
            value_iteration(mdp, **kwargs)

    def test_matches_policy_evaluation_oracle(self):
        rng = np.random.default_rng(42)
        for n in (4, 6, 8):
            for _ in range(5):
                mdp = build_cvss_mdp(random_dag_like_graph(rng, n))
                res = value_iteration(mdp, tol=1e-10)
                exact = policy_values(mdp, res.policy)
                np.testing.assert_allclose(res.values, exact, atol=1e-7)

    def test_matches_exhaustive_policy_enumeration(self):
        rng = np.random.default_rng(20250817)
        tol = 1e-10
        for n in (3, 4, 5, 6):
            for _ in range(4):
                mdp = build_cvss_mdp(random_dag_like_graph(rng, n))
                if mdp.num_action_slots > 18:
                    continue  # keep the policy product enumerable
                res = value_iteration(mdp, tol=tol)
                best = enumerate_optimal_values(mdp)
                np.testing.assert_allclose(res.values, best, atol=1e-6)

    def test_action_values_definition(self):
        mdp = make_mdp(
            states=("a", "t"),
            actions=[[(1, 0.9, 10.0), (0, 0.5, 2.0)], []],
            gamma=0.9,
        )
        values = np.array([3.0, 7.0])
        q = action_values(mdp, values, 0)
        expected0 = 0.9 * (10.0 + 0.9 * 7.0) + 0.1 * 0.9 * 3.0
        expected1 = 0.5 * (2.0 + 0.9 * 3.0) + 0.5 * 0.9 * 3.0
        np.testing.assert_allclose(q, [expected0, expected1], atol=EXACT)


class TestSerialization:
    def test_document_key_order(self, chain_graph):
        doc = build_cvss_mdp(chain_graph).to_document()
        assert list(doc) == [
            "gamma",
            "initial",
            "terminal",
            "terrain",
            "states",
            "actions",
        ]
        assert doc["terrain"] == {"mode": "vanilla", "strength": 0.0, "restrict": None}
        assert doc["actions"][0] == {
            "from": "a",
            "to": "b",
            "success": 0.9,
            "reward": doc["actions"][0]["reward"],
        }

    def test_serialize_deterministic(self, gauntlet_ftp):
        mdp = build_cvss_mdp(gauntlet_ftp)
        text = serialize_mdp(mdp)
        assert text == serialize_mdp(build_cvss_mdp(gauntlet_ftp))
        assert text.endswith("\n")


class TestGauntletProcess:
    def test_uniform_low_complexity(self, gauntlet_ftp):
        mdp = build_cvss_mdp(gauntlet_ftp)
        assert np.all(mdp.action_success == 0.9)

    @pytest.mark.parametrize("where", ["below", "past"])
    def test_state_index_out_of_range_raises(self, gauntlet_ftp, where):
        mdp = build_cvss_mdp(gauntlet_ftp)
        state = -1 if where == "below" else mdp.num_states
        table = TabularQ(mdp.action_offsets, np.zeros(mdp.num_action_slots))
        values = np.zeros(mdp.num_states)
        for read in (
            mdp.num_actions,
            mdp.vertex_id,
            table.action_values,
            lambda s: action_values(mdp, values, s),
        ):
            with pytest.raises(IndexError):
                read(state)

    def test_short_route_is_optimal_vanilla(self, gauntlet_ftp):
        mdp = build_cvss_mdp(gauntlet_ftp, gamma=0.999)
        res = value_iteration(mdp, tol=1e-12)
        entry = mdp.initial_state
        q = action_values(mdp, res.values, entry)
        short_slot = next(
            k
            for k in range(mdp.num_actions(entry))
            if mdp.vertex_id(action_target(mdp, entry, k)) == "s1"
        )
        assert int(np.argmax(q)) == short_slot
