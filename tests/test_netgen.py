"""Generator tests: parameter validation, determinism, structure, scale."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermdp.graph import (
    Complexity,
    Protocol,
    VertexKind,
    reachable_set,
    serialize_attack_graph,
    validate,
)
from cybermdp.netgen import (
    ENTERPRISE_SCALE,
    MAX_HOSTS_PER_SUBNET,
    MAX_VERTICES,
    TopologyParams,
    generate,
    plant_gauntlet,
)

from conftest import DESK_PARAMS
from oracles import expected_edge_count, expected_vertex_count


def params_with(**overrides) -> TopologyParams:
    return dataclasses.replace(DESK_PARAMS, **overrides)


class TestTopologyParams:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_subnets": 0},
            {"num_subnets": -1},
            {"hosts_per_subnet": 0},
            {"intra_edge_prob": -0.1},
            {"intra_edge_prob": 1.1},
            {"inter_edge_count": 0},
            {"firewall_prob": -0.01},
            {"firewall_prob": 1.5},
            {"protocol_weights": {Protocol.FTP: -1.0}},
            {"complexity_weights": {}},
            {"complexity_weights": {Complexity.LOW: math.nan, Complexity.HIGH: 1.0}},
            {"protocol_weights": {Protocol.FTP: math.inf}, "firewall_prob": 0.0},
            {"seed": -1},
        ],
    )
    def test_rejects_out_of_range(self, overrides):
        with pytest.raises(ValueError):
            params_with(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"hosts_per_subnet": MAX_HOSTS_PER_SUBNET + 1}, "hosts_per_subnet must be at most"),
            ({"num_subnets": 2**70}, "vertices, over"),
            ({"inter_edge_count": 2**70}, "vertices, over"),
            # One vertex past the largest topology below.
            ({"num_subnets": 2, "hosts_per_subnet": 4_096, "inter_edge_count": 91_807},
             "100,001 vertices"),
        ],
    )
    def test_rejects_topologies_over_the_size_caps(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            params_with(**overrides)

    def test_size_caps_are_inclusive(self):
        largest = params_with(
            num_subnets=2, hosts_per_subnet=MAX_HOSTS_PER_SUBNET, inter_edge_count=91_806
        )
        assert expected_vertex_count(largest) == MAX_VERTICES == 100_000
        assert MAX_HOSTS_PER_SUBNET == 4_096

    def test_rejects_single_host_topology(self):
        with pytest.raises(ValueError, match="2 host vertices"):
            params_with(num_subnets=1, hosts_per_subnet=1)

    def test_rejects_firewalls_without_blockable_protocols(self):
        with pytest.raises(ValueError, match="firewall_prob"):
            params_with(firewall_prob=0.5, protocol_weights={})

    def test_zero_firewall_prob_allows_empty_protocol_weights(self):
        p = params_with(firewall_prob=0.0, protocol_weights={})
        assert p.firewall_prob == 0.0

    def test_single_subnet_is_allowed(self):
        p = params_with(num_subnets=1, hosts_per_subnet=2)
        assert p.num_subnets == 1


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = serialize_attack_graph(generate(DESK_PARAMS))
        b = serialize_attack_graph(generate(DESK_PARAMS))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_attack_graph(generate(DESK_PARAMS))
        b = serialize_attack_graph(generate(params_with(seed=1)))
        assert a != b

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_graphs_validate_clean(self, seed):
        g = generate(params_with(seed=seed))
        assert validate(g) == []

    def test_every_vertex_annotated(self):
        g = generate(DESK_PARAMS)
        assert all(v.cvss is not None for v in g.vertices)

    def test_firewalls_only_on_rule_vertices(self):
        hits = 0
        for seed in range(6):
            g = generate(params_with(seed=seed))
            for v in g.vertices:
                if v.firewall is not None:
                    hits += 1
                    assert v.kind is VertexKind.RULE
                    assert 1 <= len(v.firewall.blocked) <= 4
        # firewall_prob 0.5 over 4 connectors per seed: silence means a bug.
        assert hits > 0

    def test_endpoints_and_ids(self):
        g = generate(DESK_PARAMS)
        assert g.initial == "n0h0"
        assert g.terminal == "n2h7"
        assert validate(g) == []

    def test_vertex_count_formula_exact(self):
        for overrides in (
            {},
            {"num_subnets": 1, "hosts_per_subnet": 4},
            {"num_subnets": 4, "hosts_per_subnet": 3},
            {"inter_edge_count": 5},
        ):
            p = params_with(**overrides)
            assert len(generate(p).vertices) == expected_vertex_count(p)

    def test_edge_count_tracks_expectation(self):
        p = ENTERPRISE_SCALE
        expected = expected_edge_count(p)
        actual = len(generate(p).edges)
        assert abs(actual - expected) <= 0.1 * expected

    def test_enterprise_scale_vertex_count(self):
        assert expected_vertex_count(ENTERPRISE_SCALE) == 955
        assert len(generate(ENTERPRISE_SCALE).vertices) == 955

    def test_more_hosts_never_fewer_vertices(self):
        counts = [
            expected_vertex_count(params_with(hosts_per_subnet=h))
            for h in range(2, 10)
        ]
        assert counts == sorted(counts)

    def test_single_subnet_generation(self):
        g = generate(
            TopologyParams(
                num_subnets=1,
                hosts_per_subnet=2,
                intra_edge_prob=0.0,
                inter_edge_count=1,
                firewall_prob=0.0,
                seed=7,
            )
        )
        assert [v.id for v in g.vertices] == ["n0h0", "n0h1"]
        assert g.edges == (("n0h0", "n0h1"),)
        assert validate(g) == []

    def test_decoys_cannot_reach_terminal(self):
        g = generate(DESK_PARAMS)
        decoys = [v.id for v in g.vertices if "decoy" in v.label]
        assert decoys
        for did in decoys:
            assert g.terminal not in reachable_set(g, did)

    @settings(max_examples=25, deadline=None)
    @given(
        num_subnets=st.integers(1, 4),
        hosts_per_subnet=st.integers(2, 6),
        intra_edge_prob=st.floats(0.0, 1.0),
        inter_edge_count=st.integers(1, 3),
        firewall_prob=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_params_yield_valid_graphs(
        self,
        num_subnets,
        hosts_per_subnet,
        intra_edge_prob,
        inter_edge_count,
        firewall_prob,
        seed,
    ):
        p = TopologyParams(
            num_subnets=num_subnets,
            hosts_per_subnet=hosts_per_subnet,
            intra_edge_prob=intra_edge_prob,
            inter_edge_count=inter_edge_count,
            firewall_prob=firewall_prob,
            seed=seed,
        )
        g = generate(p)
        assert validate(g) == []
        assert len(g.vertices) == expected_vertex_count(p)
        assert g.terminal in reachable_set(g, g.initial)


class TestPlantGauntlet:
    def test_vertex_roster_and_endpoints(self):
        g = plant_gauntlet(DESK_PARAMS, {Protocol.FTP})
        assert [v.id for v in g.vertices] == [
            "entry",
            "s1",
            "s2",
            "l1",
            "l2",
            "l3",
            "l4",
            "l5",
            "target",
        ]
        assert g.initial == "entry"
        assert g.terminal == "target"
        assert validate(g) == []

    def test_routes_are_vertex_disjoint(self):
        g = plant_gauntlet(DESK_PARAMS, {Protocol.FTP})
        short = ("entry", "s1", "s2", "target")
        long = ("entry", "l1", "l2", "l3", "l4", "l5", "target")
        assert set(short[1:-1]).isdisjoint(long[1:-1])
        for route in (short, long):
            for src, dst in zip(route, route[1:]):
                assert (src, dst) in g.edges

    def test_short_route_edges_declared_first(self):
        g = plant_gauntlet(DESK_PARAMS, {Protocol.FTP})
        assert g.edges[0] == ("entry", "s1")
        assert g.edges[:3] == (("entry", "s1"), ("s1", "s2"), ("s2", "target"))

    def test_firewall_sits_on_first_short_hop_only(self):
        blocked = frozenset({Protocol.FTP, Protocol.SSH})
        g = plant_gauntlet(DESK_PARAMS, blocked)
        walled = {v.id: v.firewall for v in g.vertices if v.firewall is not None}
        assert list(walled) == ["s1"]
        assert walled["s1"].blocked == blocked

    def test_labels_record_route_lengths(self):
        g = plant_gauntlet(DESK_PARAMS, {Protocol.SSH})
        entry = next(v for v in g.vertices if v.id == "entry")
        assert entry.label == "entry (short route 3 hops, long route 6 hops)"
        assert next(v for v in g.vertices if v.id == "l5").label == "long route hop 5 of 6"
        s1 = next(v for v in g.vertices if v.id == "s1")
        assert s1.label == "short route hop 1 of 3, firewalled"

    def test_every_vertex_low_complexity(self):
        g = plant_gauntlet(DESK_PARAMS, {Protocol.FTP})
        assert all(v.cvss is not None for v in g.vertices)
        assert {v.cvss.complexity for v in g.vertices} == {
            g.vertices[0].cvss.complexity
        }

    def test_seed_does_not_matter(self):
        a = serialize_attack_graph(plant_gauntlet(DESK_PARAMS, {Protocol.FTP}))
        b = serialize_attack_graph(plant_gauntlet(params_with(seed=99), {Protocol.FTP}))
        assert a == b

    def test_rejects_empty_blocked(self):
        with pytest.raises(ValueError, match="at least one protocol"):
            plant_gauntlet(DESK_PARAMS, frozenset())

    def test_rejects_non_protocol_entries(self):
        with pytest.raises(TypeError):
            plant_gauntlet(DESK_PARAMS, {"ftp"})

    def test_rejects_non_params(self):
        with pytest.raises(TypeError):
            plant_gauntlet(object(), {Protocol.FTP})
