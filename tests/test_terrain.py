"""Terrain adjustment tests: coefficient tables, factor math, application."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import component, make_graph
from oracles import action_slot, transitions
from cybermdp.graph import FirewallAnnotation, Protocol
from cybermdp.mdp import build_cvss_mdp
from cybermdp.terrain import (
    FIREWALL_PRESENCE_FACTOR,
    IMPORTANCE_COEFFICIENT,
    REWARD_PENALTY_COEFFICIENT,
    TerrainConfig,
    TerrainError,
    TerrainMode,
    apply_terrain,
    firewall_importance_factor,
    firewall_presence_factor,
    firewall_reward_penalty,
)

EXACT = 1e-12

REWARD_W2 = TerrainConfig(TerrainMode.REWARD, strength=-2.0)
STATE = TerrainConfig(TerrainMode.STATE)


def wall(*protocols: Protocol) -> FirewallAnnotation:
    return FirewallAnnotation(blocked=frozenset(protocols))


def protocol_sets() -> list[frozenset[Protocol]]:
    out = []
    members = list(Protocol)
    for mask in range(1, 1 << len(members)):
        out.append(frozenset(p for i, p in enumerate(members) if mask >> i & 1))
    return out


class TestCoefficientTables:
    def test_reward_penalty_table(self):
        assert REWARD_PENALTY_COEFFICIENT == {
            Protocol.FTP: 0.8,
            Protocol.SMTP: 0.6,
            Protocol.HTTP: 0.4,
            Protocol.SSH: 0.2,
        }

    def test_importance_table(self):
        assert IMPORTANCE_COEFFICIENT == {
            Protocol.FTP: 0.2,
            Protocol.SMTP: 0.4,
            Protocol.HTTP: 0.6,
            Protocol.SSH: 0.8,
        }

    def test_presence_constant(self):
        assert FIREWALL_PRESENCE_FACTOR == 0.01

    def test_tables_complement_each_other(self):
        for p in Protocol:
            total = REWARD_PENALTY_COEFFICIENT[p] + IMPORTANCE_COEFFICIENT[p]
            assert total == pytest.approx(1.0, abs=EXACT)


class TestRewardPenalty:
    @pytest.mark.parametrize(
        "blocked,strength,expected",
        [
            ({Protocol.FTP}, -2.0, -1.6),
            ({Protocol.SSH}, -2.0, -0.4),
            ({Protocol.FTP, Protocol.SSH}, -2.0, -1.0),
            ({Protocol.FTP, Protocol.SMTP}, -1.0, -0.7),
            ({Protocol.FTP}, 0.0, 0.0),
        ],
    )
    def test_examples(self, blocked, strength, expected):
        got = firewall_reward_penalty(wall(*blocked), strength)
        assert got == pytest.approx(expected, abs=EXACT)

    def test_no_firewall_is_free(self):
        assert firewall_reward_penalty(None, -2.0) == 0.0

    def test_restriction_filters_blocked_set(self):
        fw = wall(Protocol.FTP, Protocol.SSH)
        assert firewall_reward_penalty(fw, -2.0, Protocol.FTP) == pytest.approx(
            -1.6, abs=EXACT
        )
        assert firewall_reward_penalty(fw, -2.0, Protocol.SSH) == pytest.approx(
            -0.4, abs=EXACT
        )
        # Firewall blocks neither -> the restricted penalty vanishes.
        assert firewall_reward_penalty(wall(Protocol.SMTP), -2.0, Protocol.FTP) == 0.0

    def test_positive_strength_rejected(self):
        for strength in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-positive and finite"):
                firewall_reward_penalty(wall(Protocol.FTP), strength)

    def test_monotone_in_strength(self):
        fw = wall(Protocol.HTTP)
        penalties = [firewall_reward_penalty(fw, w) for w in (0.0, -0.5, -1.0, -2.0)]
        assert penalties == sorted(penalties, reverse=True)

    def test_severity_ordering_across_protocols(self):
        singles = [
            firewall_reward_penalty(wall(p), -1.0)
            for p in (Protocol.FTP, Protocol.SMTP, Protocol.HTTP, Protocol.SSH)
        ]
        # FTP is the most severe to lose, SSH the least.
        assert singles == sorted(singles)

    @settings(max_examples=60, deadline=None)
    @given(
        blocked=st.sampled_from(protocol_sets()),
        strength=st.floats(-10.0, 0.0),
    )
    def test_penalty_never_positive(self, blocked, strength):
        assert firewall_reward_penalty(wall(*blocked), strength) <= 0.0


class TestStateFactors:
    @pytest.mark.parametrize(
        "blocked,expected",
        [
            ({Protocol.SSH}, 0.8),
            ({Protocol.FTP}, 0.2),
            ({Protocol.FTP, Protocol.SMTP}, 0.3),
            (set(Protocol), 0.5),
        ],
    )
    def test_importance_examples(self, blocked, expected):
        assert firewall_importance_factor(wall(*blocked)) == pytest.approx(
            expected, abs=EXACT
        )

    def test_importance_without_firewall(self):
        assert firewall_importance_factor(None) == 1.0

    def test_importance_restriction(self):
        fw = wall(Protocol.FTP, Protocol.SSH)
        assert firewall_importance_factor(fw, Protocol.SSH) == pytest.approx(0.8)
        # Restricted to a protocol the firewall ignores: no dampening.
        assert firewall_importance_factor(wall(Protocol.SMTP), Protocol.FTP) == 1.0

    def test_presence_factor(self):
        assert firewall_presence_factor(None) == 1.0
        assert firewall_presence_factor(wall(Protocol.SSH)) == 0.01
        assert firewall_presence_factor(wall(*Protocol)) == 0.01

    def test_importance_ordering_across_protocols(self):
        singles = [
            firewall_importance_factor(wall(p))
            for p in (Protocol.FTP, Protocol.SMTP, Protocol.HTTP, Protocol.SSH)
        ]
        assert singles == sorted(singles)

    @settings(max_examples=60, deadline=None)
    @given(blocked=st.sampled_from(protocol_sets()))
    def test_combined_factor_never_amplifies(self, blocked):
        fw = wall(*blocked)
        factor = firewall_presence_factor(fw) * firewall_importance_factor(fw)
        assert 0.0 < factor <= 1.0


@pytest.fixture
def walled_graph():
    """a -> f -> t where f sits behind an SSH firewall; also a -> o -> t open."""

    return make_graph(
        vertices=(
            component("a"),
            component("f", base=7.5, expl=8.6, blocked=frozenset({Protocol.SSH})),
            component("o", base=7.5, expl=8.6),
            component("t"),
        ),
        edges=(("a", "f"), ("a", "o"), ("f", "t"), ("o", "t")),
        initial="a",
        terminal="t",
    )


class TestApplyReward:
    def test_penalty_lands_on_firewalled_arrivals_only(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, REWARD_W2)
        a = adjusted.states.index("a")
        into_f = action_slot(adjusted, a, 0)
        into_o = action_slot(adjusted, a, 1)
        # Depths: f and o both at depth 1 of 2, so base 8.36 scales to 4.18.
        assert vanilla.action_reward[into_f] == pytest.approx(4.18, abs=EXACT)
        assert adjusted.action_reward[into_f] == pytest.approx(
            4.18 - 0.4, abs=EXACT
        )
        assert adjusted.action_reward[into_o] == vanilla.action_reward[into_o]

    def test_unscaled_example(self):
        # Reward 8.36 at an SSH-walled vertex, strength -2 -> 7.96.
        assert 8.36 + firewall_reward_penalty(
            wall(Protocol.SSH), -2.0
        ) == pytest.approx(7.96, abs=EXACT)

    def test_transitions_untouched(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, REWARD_W2)
        np.testing.assert_array_equal(adjusted.action_success, vanilla.action_success)
        np.testing.assert_array_equal(adjusted.action_dest, vanilla.action_dest)
        assert adjusted.states == vanilla.states
        assert adjusted.gamma == vanilla.gamma

    def test_zero_strength_keeps_values(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, TerrainConfig(TerrainMode.REWARD))
        np.testing.assert_array_equal(adjusted.action_reward, vanilla.action_reward)
        assert adjusted.terrain_mode == "reward"

    def test_firewall_free_graph_is_identity_on_values(self, chain_graph):
        vanilla = build_cvss_mdp(chain_graph)
        adjusted = apply_terrain(
            vanilla, chain_graph, TerrainConfig(TerrainMode.REWARD, strength=-5.0)
        )
        np.testing.assert_array_equal(adjusted.action_reward, vanilla.action_reward)

    def test_penalty_stacks_on_dead_end_reward(self):
        g = make_graph(
            vertices=(
                component("a"),
                component("doom", blocked=frozenset({Protocol.FTP})),
                component("t"),
            ),
            edges=(("a", "doom"), ("a", "t")),
            initial="a",
            terminal="t",
        )
        vanilla = build_cvss_mdp(g)
        adjusted = apply_terrain(vanilla, g, REWARD_W2)
        a = adjusted.states.index("a")
        slot = action_slot(adjusted, a, 0)
        assert vanilla.action_reward[slot] == -1.0
        assert adjusted.action_reward[slot] == pytest.approx(-2.6, abs=EXACT)

    def test_positive_strength_rejected(self):
        # A positive or non-finite strength cannot reach apply_terrain: its
        # config refuses it.
        for strength in (1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-positive and finite"):
                TerrainConfig(TerrainMode.REWARD, strength=strength)

    def test_restriction_passthrough(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        miss = apply_terrain(
            vanilla, walled_graph, TerrainConfig(TerrainMode.REWARD, -2.0, Protocol.FTP)
        )
        np.testing.assert_array_equal(miss.action_reward, vanilla.action_reward)
        assert miss.terrain_restrict == "ftp"
        hit = apply_terrain(
            vanilla, walled_graph, TerrainConfig(TerrainMode.REWARD, -2.0, Protocol.SSH)
        )
        a = hit.states.index("a")
        assert hit.action_reward[action_slot(hit, a, 0)] == pytest.approx(
            4.18 - 0.4, abs=EXACT
        )


class TestApplyState:
    def test_success_probability_examples(self):
        assert 0.9 * firewall_presence_factor(
            wall(Protocol.SSH)
        ) * firewall_importance_factor(wall(Protocol.SSH)) == pytest.approx(
            0.0072, abs=EXACT
        )
        fw = wall(Protocol.FTP, Protocol.SMTP)
        assert 0.3 * firewall_presence_factor(fw) * firewall_importance_factor(
            fw
        ) == pytest.approx(0.0009, abs=EXACT)

    def test_applied_probabilities_and_remainder(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, STATE)
        a = adjusted.states.index("a")
        into_f = action_slot(adjusted, a, 0)
        into_o = action_slot(adjusted, a, 1)
        assert adjusted.action_success[into_f] == pytest.approx(0.0072, abs=EXACT)
        assert adjusted.action_success[into_o] == 0.9
        stay = dict(transitions(adjusted, a, 0))[a]
        assert stay == pytest.approx(1.0 - 0.0072, abs=EXACT)

    def test_rewards_untouched(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, STATE)
        np.testing.assert_array_equal(adjusted.action_reward, vanilla.action_reward)

    def test_rows_still_sum_to_one(self, walled_graph):
        adjusted = apply_terrain(build_cvss_mdp(walled_graph), walled_graph, STATE)
        for s in range(adjusted.num_states):
            for k in range(adjusted.num_actions(s)):
                assert sum(p for _, p in transitions(adjusted, s, k)) == pytest.approx(
                    1.0, abs=EXACT
                )

    def test_never_increases_probability(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, STATE)
        assert np.all(adjusted.action_success <= vanilla.action_success)

    def test_equality_exactly_where_no_firewall(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        adjusted = apply_terrain(vanilla, walled_graph, STATE)
        walled_states = {
            i
            for i, sid in enumerate(vanilla.states)
            if walled_graph.vertex(sid).firewall is not None
        }
        for slot in range(vanilla.num_action_slots):
            unchanged = (
                adjusted.action_success[slot] == vanilla.action_success[slot]
            )
            assert unchanged == (int(vanilla.action_dest[slot]) not in walled_states)

    def test_presence_term_is_protocol_blind_under_restriction(self):
        # Firewall blocks only SMTP; restricting to FTP still leaves the
        # 0.01 presence dampening because the wall physically exists.
        g = make_graph(
            vertices=(
                component("a"),
                component("f", blocked=frozenset({Protocol.SMTP})),
                component("t"),
            ),
            edges=(("a", "f"), ("f", "t")),
            initial="a",
            terminal="t",
        )
        vanilla = build_cvss_mdp(g)
        adjusted = apply_terrain(
            vanilla, g, TerrainConfig(TerrainMode.STATE, restrict=Protocol.FTP)
        )
        a = adjusted.states.index("a")
        slot = action_slot(adjusted, a, 0)
        assert adjusted.action_success[slot] == pytest.approx(
            0.9 * 0.01 * 1.0, abs=EXACT
        )

    @settings(max_examples=40, deadline=None)
    @given(
        blocked=st.sampled_from(protocol_sets()),
        p=st.floats(0.0, 1.0),
    )
    def test_adjusted_probability_never_exceeds_original(self, blocked, p):
        fw = wall(*blocked)
        adjusted = p * firewall_presence_factor(fw) * firewall_importance_factor(fw)
        assert 0.0 <= adjusted <= p


class TestApplyTerrain:
    def test_vanilla_returns_same_object(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        assert apply_terrain(vanilla, walled_graph, TerrainConfig(TerrainMode.VANILLA)) is vanilla

    def test_dispatch_by_mode(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        via_reward = apply_terrain(
            vanilla, walled_graph, TerrainConfig(TerrainMode.REWARD, strength=-2.0)
        )
        assert via_reward.terrain_mode == "reward"
        assert via_reward.terrain_strength == -2.0
        via_state = apply_terrain(
            vanilla, walled_graph, TerrainConfig(TerrainMode.STATE)
        )
        assert via_state.terrain_mode == "state"

    def test_adjustment_applies_at_most_once(self, walled_graph):
        vanilla = build_cvss_mdp(walled_graph)
        once = apply_terrain(vanilla, walled_graph, REWARD_W2)
        with pytest.raises(TerrainError, match="exactly once"):
            apply_terrain(once, walled_graph, REWARD_W2)
        with pytest.raises(TerrainError):
            apply_terrain(once, walled_graph, STATE)
        stated = apply_terrain(vanilla, walled_graph, STATE)
        with pytest.raises(TerrainError):
            apply_terrain(stated, walled_graph, STATE)

    def test_graph_mismatch_rejected(self, walled_graph, chain_graph):
        vanilla = build_cvss_mdp(walled_graph)
        with pytest.raises(ValueError, match="different graph"):
            apply_terrain(vanilla, chain_graph, REWARD_W2)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="non-positive"):
            TerrainConfig(TerrainMode.REWARD, strength=0.5)
        with pytest.raises(TypeError):
            TerrainConfig("reward")
        with pytest.raises(TypeError):
            TerrainConfig(TerrainMode.REWARD, restrict="ftp")

    @pytest.mark.parametrize(
        "config,expected",
        [
            (TerrainConfig(TerrainMode.VANILLA), "vanilla"),
            (TerrainConfig(TerrainMode.REWARD, strength=-2.0), "reward_w-2"),
            (
                TerrainConfig(TerrainMode.REWARD, strength=-2.0, restrict=Protocol.FTP),
                "reward_w-2_ftp",
            ),
            (TerrainConfig(TerrainMode.STATE), "state"),
            (TerrainConfig(TerrainMode.STATE, restrict=Protocol.SSH), "state_ssh"),
        ],
    )
    def test_labels(self, config, expected):
        assert config.label() == expected
