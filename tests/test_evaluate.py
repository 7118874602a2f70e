"""Evaluation and comparison tests: traces, paths, matched-seed reports."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_mdp
from oracles import policy_success_path
from cybermdp.cli import _summary_rows
from cybermdp.evaluate import (
    EpisodeTrace,
    VariantMetrics,
    compare_variants,
    evaluate_variant,
    extract_path,
    rollout_greedy,
)
from cybermdp.graph import PROTOCOL_ORDER, Protocol
from cybermdp.mdp import build_cvss_mdp, value_iteration
from cybermdp.solver import TabularQ, TrainConfig, train
from cybermdp.terrain import TerrainConfig, TerrainMode


def trace_from_landings(*hops: tuple[str, str, float]) -> EpisodeTrace:
    states = tuple(h[0] for h in hops)
    next_states = tuple(h[1] for h in hops)
    rewards = tuple(h[2] for h in hops)
    return EpisodeTrace(
        states=states,
        next_states=next_states,
        rewards=rewards,
        total_reward=sum(rewards),
        reached_terminal=bool(hops) and hops[-1][1] == "t",
    )


class TestEpisodeTrace:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            EpisodeTrace(
                states=("a",), next_states=(), rewards=(),
                total_reward=0.0, reached_terminal=False,
            )

    def test_hops_count_failures(self):
        trace = trace_from_landings(
            ("a", "a", 0.0), ("a", "a", 0.0), ("a", "b", 2.0), ("b", "t", 100.0)
        )
        assert trace.hops == 4
        assert trace.distinct_vertices == 3
        assert trace.visited == ("a", "a", "a", "b", "t")
        assert trace.total_reward == 102.0

    def test_empty_trace(self):
        trace = EpisodeTrace(
            states=(), next_states=(), rewards=(),
            total_reward=0.0, reached_terminal=False,
        )
        assert trace.hops == 0
        assert trace.visited == ()
        assert trace.distinct_vertices == 0


class TestExtractPath:
    def test_collapses_stay_put_repetitions(self):
        trace = trace_from_landings(
            ("a", "a", 0.0), ("a", "a", 0.0), ("a", "b", 2.0), ("b", "t", 100.0)
        )
        got = extract_path(trace)
        assert got.vertices == ("a", "b", "t")
        assert got.revisited is False

    def test_flags_genuine_revisit(self):
        got = extract_path(("a", "b", "a", "t"))
        assert got.vertices == ("a", "b", "t")
        assert got.revisited is True

    def test_raw_sequence_input(self):
        got = extract_path(["a", "a", "b"])
        assert got.vertices == ("a", "b")
        assert got.revisited is False

    def test_empty_trace_yields_empty_path(self):
        trace = EpisodeTrace(
            states=(), next_states=(), rewards=(),
            total_reward=0.0, reached_terminal=False,
        )
        assert extract_path(trace).vertices == ()


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
        assert extract_path(trace).vertices == ("a", "b", "c")

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

    def test_max_steps_validation(self, chain_graph):
        mdp = build_cvss_mdp(chain_graph)
        q = TabularQ(action_offsets=mdp.action_offsets,
                     values=np.zeros(mdp.num_action_slots))
        with pytest.raises(ValueError, match="max_steps"):
            rollout_greedy(mdp, q, np.random.default_rng(0), max_steps=0)


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
