"""Synthetic enterprise-network attack graph generator.

Produces layered topologies: a row of sub-networks, each a cluster of host
vertices, chained so the attacker has to burrow from the entry subnet to the
target subnet.  Adjacent subnets are joined through ``rule`` vertices that
stand for the traversal exploit; those connectors are where firewalls live.
Every non-final subnet also feeds a small decoy loop with no way forward, so
generated graphs contain genuine dead ends.

Generation is deterministic: one seed, two purpose-split RNG streams (one
for structure, one for CVSS/firewall annotations, drawn as each vertex is
made), so annotation draws can never reshape the topology and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .graph import (
    PROTOCOL_ORDER,
    AttackGraph,
    Complexity,
    CvssAnnotation,
    FirewallAnnotation,
    Protocol,
    Vertex,
    VertexKind,
)

_COMPLEXITY_ORDER: tuple[Complexity, ...] = (
    Complexity.LOW,
    Complexity.MEDIUM,
    Complexity.HIGH,
)


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for :func:`generate`.

    protocol_weights and complexity_weights are relative sampling weights;
    missing keys count as weight 0.  At least one protocol weight must be
    positive whenever firewall_prob > 0, otherwise a sampled firewall could
    not block anything.
    """

    num_subnets: int
    hosts_per_subnet: int
    intra_edge_prob: float
    inter_edge_count: int
    firewall_prob: float
    protocol_weights: Mapping[Protocol, float] = field(
        default_factory=lambda: {p: 1.0 for p in PROTOCOL_ORDER}
    )
    complexity_weights: Mapping[Complexity, float] = field(
        default_factory=lambda: {c: 1.0 for c in _COMPLEXITY_ORDER}
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_subnets < 1:
            raise ValueError("num_subnets must be at least 1")
        if self.hosts_per_subnet < 1:
            raise ValueError("hosts_per_subnet must be at least 1")
        if self.num_subnets * self.hosts_per_subnet < 2:
            # A lone host would make the entry and target vertices coincide.
            raise ValueError("the topology needs at least 2 host vertices")
        if not 0.0 <= self.intra_edge_prob <= 1.0:
            raise ValueError("intra_edge_prob must lie in [0, 1]")
        if self.inter_edge_count < 1:
            # 0 would disconnect adjacent subnets and leave no path to the
            # terminal, so it is rejected up front.
            raise ValueError("inter_edge_count must be at least 1")
        if not 0.0 <= self.firewall_prob <= 1.0:
            raise ValueError("firewall_prob must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name, weights in (
            ("protocol_weights", self.protocol_weights),
            ("complexity_weights", self.complexity_weights),
        ):
            for k, w in weights.items():
                # Written so that NaN fails the range test too.
                if not 0.0 <= w < math.inf:
                    raise ValueError(f"{name}[{k}] must be non-negative and finite, got {w!r}")
        if self.firewall_prob > 0 and not any(
            self.protocol_weights.get(p, 0.0) > 0 for p in PROTOCOL_ORDER
        ):
            raise ValueError(
                "firewall_prob > 0 requires a positive protocol weight; "
                "a firewall blocking nothing is not representable"
            )
        if not any(self.complexity_weights.get(c, 0.0) > 0 for c in _COMPLEXITY_ORDER):
            raise ValueError("at least one complexity weight must be positive")


# Matches the scale of a mid-size enterprise scan: 955 vertices exactly and
# ~2350 edges in expectation (six 150-host subnets plus connectors and
# decoys; 900 hosts + 5 * (9 connectors + 2 decoys)).
ENTERPRISE_SCALE = TopologyParams(
    num_subnets=6,
    hosts_per_subnet=150,
    intra_edge_prob=0.010142,
    inter_edge_count=9,
    firewall_prob=0.25,
    seed=0,
)


def _weighted_choice(rng: np.random.Generator, items: tuple, weights: list[float]):
    total = float(sum(weights))
    probs = [w / total for w in weights]
    idx = rng.choice(len(items), p=probs)
    return items[int(idx)]


def _sample_cvss(rng: np.random.Generator, params: TopologyParams) -> CvssAnnotation:
    # Scores on a 0.1 grid like real CVSS feeds.
    base = round(float(rng.uniform(0.0, 10.0)), 1)
    expl = round(float(rng.uniform(0.0, 10.0)), 1)
    weights = [params.complexity_weights.get(c, 0.0) for c in _COMPLEXITY_ORDER]
    complexity = _weighted_choice(rng, _COMPLEXITY_ORDER, weights)
    return CvssAnnotation(base=base, exploitability=expl, complexity=complexity)


def _sample_blocked(rng: np.random.Generator, params: TopologyParams) -> frozenset[Protocol]:
    weights = np.array(
        [params.protocol_weights.get(p, 0.0) for p in PROTOCOL_ORDER], dtype=float
    )
    available = int(np.count_nonzero(weights))
    # 1..4 protocols, small sets most of the time.
    size = 1 + int(rng.binomial(3, 0.35))
    size = min(size, available)
    probs = weights / weights.sum()
    picked = rng.choice(len(PROTOCOL_ORDER), size=size, replace=False, p=probs)
    return frozenset(PROTOCOL_ORDER[int(i)] for i in picked)


def generate(params: TopologyParams) -> AttackGraph:
    """Generate a layered attack graph from ``params``.

    Deterministic per seed; the terminal is always reachable from the
    initial vertex via the chain-and-backbone skeleton, every adjacent
    subnet pair is joined by at least one connector, and decoy loops supply
    vertices that cannot reach the terminal.
    """

    root = np.random.SeedSequence(params.seed)
    structure_seed, annotation_seed = root.spawn(2)
    rng_structure = np.random.Generator(np.random.PCG64(structure_seed))
    rng_annotation = np.random.Generator(np.random.PCG64(annotation_seed))

    s, h = params.num_subnets, params.hosts_per_subnet
    host_ids = [[f"n{k}h{i}" for i in range(h)] for k in range(s)]

    vertices: list[Vertex] = []
    edges: list[tuple[str, str]] = []

    def add_vertex(vid: str, kind: VertexKind, label: str) -> None:
        # Called in declaration order, which is the annotation stream's order.
        cvss = _sample_cvss(rng_annotation, params)
        firewall = None
        if kind is VertexKind.RULE and rng_annotation.random() < params.firewall_prob:
            firewall = FirewallAnnotation(blocked=_sample_blocked(rng_annotation, params))
        vertices.append(Vertex(id=vid, kind=kind, label=label, cvss=cvss, firewall=firewall))

    for k in range(s):
        ids = host_ids[k]
        for i, vid in enumerate(ids):
            add_vertex(vid, VertexKind.COMPONENT, f"subnet {k} host {i}")
        # Chain keeps each subnet internally traversable front to back.
        edges.extend(zip(ids, ids[1:]))
        # Extra intra-subnet edges; ordered pairs in row-major order, self
        # and chain pairs excluded.
        if h >= 2 and params.intra_edge_prob > 0:
            hits = np.argwhere(rng_structure.random((h, h)) < params.intra_edge_prob)
            edges.extend((ids[i], ids[j]) for i, j in hits.tolist() if j - i not in (0, 1))

        if k < s - 1:
            # Connectors into the next subnet; the first is a fixed backbone
            # (chain tail -> next chain head) guaranteeing the cut is bridged
            # and the terminal stays reachable.
            for m in range(params.inter_edge_count):
                rid = f"n{k}x{m}"
                add_vertex(rid, VertexKind.RULE, f"traversal subnet {k} to {k + 1} (#{m})")
                if m == 0:
                    src = ids[-1]
                    dst = host_ids[k + 1][0]
                else:
                    src = ids[int(rng_structure.integers(0, h))]
                    dst = host_ids[k + 1][int(rng_structure.integers(0, h))]
                edges.append((src, rid))
                edges.append((rid, dst))

            # Decoy loop: looks like a lateral-movement opportunity, leads
            # nowhere. Feeds from a random host, cycles between two decoys
            # so it absorbs the walker without creating an action-less state.
            decoy_ids = [f"n{k}d0", f"n{k}d1"]
            for j, did in enumerate(decoy_ids):
                add_vertex(did, VertexKind.COMPONENT, f"subnet {k} decoy {j}")
            feeder = ids[int(rng_structure.integers(0, h))]
            edges.append((feeder, decoy_ids[0]))
            edges.append((decoy_ids[0], decoy_ids[1]))
            edges.append((decoy_ids[1], decoy_ids[0]))

    return AttackGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        initial=host_ids[0][0],
        terminal=host_ids[s - 1][h - 1],
    )


# ---------------------------------------------------------------------------
# Two-route benchmark fixture
# ---------------------------------------------------------------------------

# Annotation constants for the fixture, chosen so the short route wins on
# value but only barely: a per-protocol reward penalty or a transition
# dampening at the firewall flips the preference to the long route, while
# the undiscounted reward sum still favors the short route. All vertices are
# low complexity so success probability is uniformly 0.9.
_GAUNTLET_SHORT_CVSS = CvssAnnotation(base=3.0, exploitability=3.0, complexity=Complexity.LOW)
_GAUNTLET_LONG_CVSS = CvssAnnotation(base=0.5, exploitability=0.0, complexity=Complexity.LOW)
_GAUNTLET_END_CVSS = CvssAnnotation(base=9.0, exploitability=9.0, complexity=Complexity.LOW)
_GAUNTLET_ENTRY_CVSS = CvssAnnotation(base=0.0, exploitability=0.0, complexity=Complexity.LOW)
# Edge counts of the two routes.
_SHORT_HOPS = 3
_LONG_HOPS = 6


def plant_gauntlet(
    params: TopologyParams,
    blocked: frozenset[Protocol] | set[Protocol],
) -> AttackGraph:
    """Build the two-route fixture: short through a firewall, long and clean.

    The graph has exactly two vertex-disjoint initial-to-terminal routes: a
    3-edge route whose first intermediate vertex carries a firewall
    blocking ``blocked``, and a 6-edge route with no firewall anywhere.
    Construction is deterministic (``params`` is validated for interface
    symmetry with :func:`generate` but its random fields are unused)
    because this fixture backs exact, solver-verified comparisons.  Route
    lengths are recorded in the vertex labels.
    """

    if not isinstance(params, TopologyParams):
        raise TypeError("params must be a TopologyParams")
    blocked = frozenset(blocked)

    vertices: list[Vertex] = [
        Vertex(
            id="entry",
            kind=VertexKind.COMPONENT,
            label=f"entry (short route {_SHORT_HOPS} hops, long route {_LONG_HOPS} hops)",
            cvss=_GAUNTLET_ENTRY_CVSS,
        )
    ]
    edges: list[tuple[str, str]] = []
    # Short route first: depth scaling then measures the terminal at
    # _SHORT_HOPS, and the long route's extra depth dilutes its per-vertex
    # rewards instead of inflating them.
    for name, hops, cvss in (
        ("short", _SHORT_HOPS, _GAUNTLET_SHORT_CVSS),
        ("long", _LONG_HOPS, _GAUNTLET_LONG_CVSS),
    ):
        chain = ["entry"]
        for i in range(1, hops):
            firewall = FirewallAnnotation(blocked=blocked) if (name, i) == ("short", 1) else None
            chain.append(f"{name[0]}{i}")
            vertices.append(
                Vertex(
                    id=chain[-1],
                    kind=VertexKind.COMPONENT,
                    label=f"{name} route hop {i} of {hops}{', firewalled' if firewall else ''}",
                    cvss=cvss,
                    firewall=firewall,
                )
            )
        chain.append("target")
        edges.extend(zip(chain, chain[1:]))
    vertices.append(
        Vertex(id="target", kind=VertexKind.COMPONENT, label="target", cvss=_GAUNTLET_END_CVSS)
    )

    return AttackGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        initial="entry",
        terminal="target",
    )

