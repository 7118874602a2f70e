"""Evaluation and comparison tests: traces, paths, matched-seed reports."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mdp
from oracles import policy_success_path
from cybermdp.cli import _summary_rows
from cybermdp.evaluate import (
    VariantMetrics,
    compare_variants,
    evaluate_variant,
    extract_path,
    rollout_greedy,
)
from cybermdp.graph import PROTOCOL_ORDER, Protocol
from cybermdp.mdp import build_cvss_mdp, value_iteration
from cybermdp.solver import EpisodeTrace, TabularQ, TrainConfig, train
from cybermdp.terrain import TerrainConfig, TerrainMode


class TestEpisodeTrace:
    def test_hops_count_failures(self):
        trace = EpisodeTrace(
            visited=("a", "a", "a", "b", "t"), total_reward=102.0, reached_terminal=True
        )
        assert trace.hops == 4
        assert len(extract_path(trace.visited)[0]) == 3
        assert trace.visited == ("a", "a", "a", "b", "t")
        assert trace.total_reward == 102.0

    def test_empty_trace(self):
        trace = EpisodeTrace(visited=(), total_reward=0.0, reached_terminal=False)
        assert trace.hops == 0
        assert trace.visited == ()
        assert len(extract_path(trace.visited)[0]) == 0


class TestExtractPath:
    def test_collapses_stay_put_repetitions(self):
        vertices, revisited = extract_path(("a", "a", "a", "b", "t"))
        assert vertices == ("a", "b", "t")
        assert revisited is False

    def test_flags_genuine_revisit(self):
        vertices, revisited = extract_path(("a", "b", "a", "t"))
        assert vertices == ("a", "b", "t")
        assert revisited is True

    def test_raw_sequence_input(self):
        vertices, revisited = extract_path(["a", "a", "b"])
        assert vertices == ("a", "b")
        assert revisited is False

    def test_empty_trace_yields_empty_path(self):
        trace = EpisodeTrace(visited=(), total_reward=0.0, reached_terminal=False)
        assert extract_path(trace.visited)[0] == ()


VISITS = st.lists(st.sampled_from("abcd"), max_size=20)


class TestExtractPathProperties:
    """``evaluate_variant`` reports ``len(path)`` as the distinct-vertex
    count, which holds only if the path lists each visited vertex once."""

    @settings(deadline=None)
    @given(VISITS)
    def test_each_vertex_once_in_first_visit_order(self, visited):
        vertices, _ = extract_path(visited)
        assert vertices == tuple(dict.fromkeys(visited))
        assert len(vertices) == len(set(visited))

    @settings(deadline=None)
    @given(VISITS)
    def test_revisited_when_a_vertex_returns_after_another(self, visited):
        _, revisited = extract_path(visited)
        returns = any(
            visited[j] == visited[i] and any(v != visited[i] for v in visited[i + 1 : j])
            for i in range(len(visited))
            for j in range(i + 2, len(visited))
        )
        assert revisited is returns


class TestRolloutGreedy:
    def test_reaches_terminal_under_exact_values(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        res = value_iteration(mdp)
        q = TabularQ(action_offsets=mdp.action_offsets, values=np.asarray(
            [res.values[mdp.action_dest[k]] + mdp.action_reward[k]
             for k in range(mdp.num_action_slots)]
        ))
        trace = rollout_greedy(mdp, q, np.random.default_rng(0), max_steps=100)
        assert trace.reached_terminal
        assert extract_path(trace.visited)[0] == ("a", "b", "c")

    def test_deterministic_per_rng_state(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        q = TabularQ(
            action_offsets=mdp.action_offsets,
            values=np.ones(mdp.num_action_slots),
        )
        a = rollout_greedy(mdp, q, np.random.default_rng(42), max_steps=50)
        b = rollout_greedy(mdp, q, np.random.default_rng(42), max_steps=50)
        assert a == b

    def test_zero_q_loop_times_out(self):
        # Index-0 actions loop between a and b, so an all-zeros value
        # function never finds the terminal and the cap ends the episode.
        mdp = make_mdp(
            states=("a", "b", "t"),
            actions=[[(1, 1.0, 0.5), (2, 1.0, 100.0)], [(0, 1.0, 0.5)], []],
            gamma=0.9,
        )
        q = TabularQ(
            action_offsets=mdp.action_offsets,
            values=np.zeros(mdp.num_action_slots),
        )
        trace = rollout_greedy(mdp, q, np.random.default_rng(0), max_steps=30)
        assert trace.reached_terminal is False
        assert trace.hops == 30

    def test_stops_in_action_less_state(self):
        mdp = make_mdp(
            states=("a", "sink", "t"),
            actions=[[(1, 1.0, -1.0)], [], []],
            gamma=0.9,
            terminal=2,
        )
        trace = rollout_greedy(
            mdp,
            TabularQ(action_offsets=mdp.action_offsets,
                     values=np.zeros(mdp.num_action_slots)),
            np.random.default_rng(0),
            max_steps=50,
        )
        assert trace.reached_terminal is False
        assert trace.hops == 1

    @pytest.mark.parametrize(
        "bit_generator, visited, next_draw",
        [
            (np.random.Philox, "aaaabccccccccct", 0.1403724061942908),
            (np.random.MT19937, "aaabbbbbbbbbbct", 0.32459404575992135),
        ],
    )
    def test_other_bit_generators_draw_from_the_generator(
        self, bit_generator, visited, next_draw
    ):
        # Only a PCG64 stream is replayed; any other Generator plays its own
        # scalar draws, so these rollouts and the draw after them are the
        # ones the loop always made.
        mdp = make_mdp(
            states=("a", "b", "c", "t"),
            actions=[[(1, 0.3, 1.5)], [(2, 0.2, 2.25), (0, 1.0, 0.5)], [(3, 0.1, 100.0)], []],
            gamma=0.9,
        )
        q = TabularQ(action_offsets=mdp.action_offsets, values=np.ones(mdp.num_action_slots))
        rng = np.random.Generator(bit_generator(7))
        trace = rollout_greedy(mdp, q, rng, max_steps=200)
        assert "".join(trace.visited) == visited
        assert (trace.total_reward, trace.reached_terminal) == (103.75, True)
        assert rng.random() == next_draw

    def test_max_steps_validation(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        q = TabularQ(action_offsets=mdp.action_offsets,
                     values=np.zeros(mdp.num_action_slots))
        with pytest.raises(ValueError, match="max_steps"):
            rollout_greedy(mdp, q, np.random.default_rng(0), max_steps=0)

    @pytest.mark.parametrize("length", [3, 59])
    def test_rejects_values_of_the_wrong_length(self, gauntlet_ftp, length):
        # Too few would index past the values, too many would play silently.
        mdp = build_cvss_mdp(gauntlet_ftp)
        assert mdp.num_action_slots == 9
        q = TabularQ(action_offsets=mdp.action_offsets, values=np.zeros(length))
        with pytest.raises(ValueError, match="9 per-slot values"):
            rollout_greedy(mdp, q, np.random.default_rng(0))


class TestPolicySuccessPath:
    """The oracle that the obstacle-avoidance gate reads exact policies with."""

    def test_follows_value_iteration_policy(self, gauntlet_ftp):
        mdp = build_cvss_mdp(gauntlet_ftp, gamma=0.999)
        res = value_iteration(mdp, tol=1e-12)
        assert policy_success_path(mdp, res.policy) == ("entry", "s1", "s2", "target")

    def test_stops_on_policy_cycle(self):
        mdp = make_mdp(
            states=("a", "b", "t"),
            actions=[[(1, 1.0, 1.0)], [(0, 1.0, 1.0)], []],
            gamma=0.9,
        )
        path = policy_success_path(mdp, np.array([0, 0, -1]))
        assert path == ("a", "b", "a")

    def test_stops_on_no_action(self):
        mdp = make_mdp(
            states=("a", "sink", "t"),
            actions=[[(1, 1.0, 1.0)], [], []],
            gamma=0.9,
            terminal=2,
        )
        assert policy_success_path(mdp, np.array([0, -1, -1])) == ("a", "sink")


class TestVariantEvaluation:
    CFG = TrainConfig(episodes=60, learning_rate=0.4, seed=1)

    def test_metrics_are_consistent(self, gauntlet_ftp):
        mdp = build_cvss_mdp(gauntlet_ftp, gamma=0.999)
        got = evaluate_variant("vanilla", mdp, self.CFG, train(mdp, self.CFG))
        assert got.name == "vanilla"
        assert got.hops >= len(got.path) - 1
        assert got.distinct_vertices == len(set(got.path))
        if got.hops:
            assert got.reward_per_hop == pytest.approx(got.total_reward / got.hops)

    def test_compare_reports_all_variants(self, gauntlet_ftp):
        report = compare_variants(
            gauntlet_ftp,
            [
                TerrainConfig(TerrainMode.VANILLA),
                TerrainConfig(TerrainMode.REWARD, strength=-2.0),
                TerrainConfig(TerrainMode.STATE),
            ],
            self.CFG,
            gamma=0.999,
        )
        assert [v.name for v in report] == ["vanilla", "reward_w-2", "state"]

    def test_compare_rejects_duplicate_labels(self, gauntlet_ftp):
        with pytest.raises(ValueError, match="duplicate"):
            compare_variants(
                gauntlet_ftp,
                [TerrainConfig(TerrainMode.STATE), TerrainConfig(TerrainMode.STATE)],
                self.CFG,
            )

    def test_single_variant_comparison(self, chain_graph):
        report = compare_variants(
            chain_graph, [TerrainConfig(TerrainMode.VANILLA)], self.CFG
        )
        assert len(report) == 1

    def test_summary_rows_shape(self, gauntlet_ftp):
        report = compare_variants(
            gauntlet_ftp,
            [TerrainConfig(TerrainMode.VANILLA), TerrainConfig(TerrainMode.STATE)],
            self.CFG,
            gamma=0.999,
        )
        rows = _summary_rows(report)
        assert rows[0] == ["variant", "hops", "total_reward", "reward_per_hop"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert len(row) == 4
            assert float(row[3]) == pytest.approx(
                float(row[2]) / int(row[1]) if int(row[1]) else 0.0
            )

    def test_zero_hop_variant_reports_zero_rate(self):
        v = VariantMetrics(
            name="x", hops=0, distinct_vertices=0, total_reward=0.0,
            reward_per_hop=0.0, reached_terminal=False, path=(), revisited=False,
            curve=(),
        )
        assert _summary_rows((v,))[1][3] == repr(0.0)


def restricted(mode, strength=0.0, protocols=PROTOCOL_ORDER):
    return [TerrainConfig(mode, strength, p) for p in protocols]


class TestProtocolSweep:
    """Per-protocol restricted variants compared in one call, as
    ``cybermdp compare --protocols`` runs them."""

    CFG = TrainConfig(episodes=40, learning_rate=0.4, seed=2)

    def test_sweep_covers_canonical_order(self, gauntlet_all):
        report = compare_variants(
            gauntlet_all, restricted(TerrainMode.REWARD, -2.0), self.CFG, gamma=0.999
        )
        assert PROTOCOL_ORDER == (Protocol.FTP, Protocol.SMTP, Protocol.HTTP, Protocol.SSH)
        assert [v.name for v in report] == [
            "reward_w-2_ftp", "reward_w-2_smtp", "reward_w-2_http", "reward_w-2_ssh",
        ]

    def test_vanilla_mode_rejected(self, gauntlet_all):
        # A restriction does not name a vanilla variant, so the labels collide.
        with pytest.raises(ValueError, match="duplicate"):
            compare_variants(gauntlet_all, restricted(TerrainMode.VANILLA), self.CFG)

    def test_firewall_free_graph_gives_identical_curves(self, chain_graph):
        report = compare_variants(chain_graph, restricted(TerrainMode.REWARD, -2.0), self.CFG)
        curves = {v.curve for v in report}
        assert len(curves) == 1
        totals = {v.total_reward for v in report}
        assert len(totals) == 1

    def test_protocol_subset(self, gauntlet_all):
        # Matched seeds: a variant reports the same alone as inside the sweep.
        alone = compare_variants(
            gauntlet_all,
            restricted(TerrainMode.STATE, protocols=(Protocol.SSH,)),
            self.CFG,
            gamma=0.999,
        )
        swept = compare_variants(
            gauntlet_all, restricted(TerrainMode.STATE), self.CFG, gamma=0.999
        )
        assert alone == tuple(v for v in swept if v.name == "state_ssh")
