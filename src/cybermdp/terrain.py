"""Cyber-terrain adjustments: make firewalls matter to the decision process.

The vanilla compilation scores vertices purely by CVSS, so a route through a
perimeter firewall looks exactly as good as an open one.  Terrain
adjustments fix that in one of two ways, always evaluated at the
*destination* vertex of each action:

* Reward adjustment: arriving behind a firewall costs extra.  Each blocked
  protocol has a severity coefficient (FTP 0.8, SMTP 0.6, HTTP 0.4,
  SSH 0.2); the penalty is the mean coefficient over the blocked set times a
  non-positive strength knob, added to the success-arrival reward.

* State adjustment: firewalls make attempts fail.  The success probability
  is multiplied by a presence factor (0.01 when the destination has a
  firewall, 1.0 otherwise) and an importance factor (mean over the blocked
  set of FTP 0.2, SMTP 0.4, HTTP 0.6, SSH 0.8; 1.0 when no firewall), and
  the stay-put remainder absorbs the difference.  Rewards are untouched.

Either adjustment may be restricted to a single protocol: the blocked set is
filtered to that protocol first, so a firewall blocking only other
protocols contributes nothing (reward mode) or only its presence factor
(state mode, whose presence term is protocol-blind by definition).

``apply_terrain`` is the one transform: it builds a per-state factor from
the formula functions below and applies it through each action's
destination to one action array.  An adjustment applies to a vanilla
process exactly once; the result records its provenance and refuses
further adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .graph import AttackGraph, FirewallAnnotation, Protocol
from .mdp import Mdp


class TerrainError(ValueError):
    """Raised when an adjustment is applied to an already-adjusted process."""


class TerrainMode(Enum):
    VANILLA = "vanilla"
    REWARD = "reward"
    STATE = "state"


# Severity of losing a protocol to a firewall, for the reward penalty.
REWARD_PENALTY_COEFFICIENT: dict[Protocol, float] = {
    Protocol.FTP: 0.8,
    Protocol.SMTP: 0.6,
    Protocol.HTTP: 0.4,
    Protocol.SSH: 0.2,
}

# How much of the success probability survives per blocked protocol.
IMPORTANCE_COEFFICIENT: dict[Protocol, float] = {
    Protocol.FTP: 0.2,
    Protocol.SMTP: 0.4,
    Protocol.HTTP: 0.6,
    Protocol.SSH: 0.8,
}

# Presence factor: a firewalled destination keeps 1% of its attempt rate.
FIREWALL_PRESENCE_FACTOR = 0.01


@dataclass(frozen=True)
class TerrainConfig:
    """One comparison variant: which adjustment, how strong, which protocol."""

    mode: TerrainMode
    strength: float = 0.0
    restrict: Protocol | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, TerrainMode):
            raise TypeError("mode must be a TerrainMode value")
        if not -math.inf < self.strength <= 0.0:  # NaN fails too
            raise ValueError("strength must be non-positive and finite")
        if self.restrict is not None and not isinstance(self.restrict, Protocol):
            raise TypeError("restrict must be a Protocol or None")

    def label(self) -> str:
        """Deterministic short name used in reports and artifact file names."""

        if self.mode is TerrainMode.VANILLA:
            return "vanilla"
        parts = [self.mode.value]
        if self.mode is TerrainMode.REWARD:
            parts.append(f"w{self.strength:g}")
        if self.restrict is not None:
            parts.append(self.restrict.value)
        return "_".join(parts)


def _effective_blocked(
    firewall: FirewallAnnotation | None, restrict: Protocol | None
) -> tuple[Protocol, ...]:
    """Blocked protocols that count, in canonical order."""

    if firewall is None:
        return ()
    blocked = firewall.blocked_in_order()
    if restrict is not None:
        blocked = tuple(p for p in blocked if p is restrict)
    return blocked


def firewall_reward_penalty(
    firewall: FirewallAnnotation | None,
    strength: float,
    restrict: Protocol | None = None,
) -> float:
    """Reward penalty for arriving behind ``firewall``.

    Mean severity coefficient of the (possibly restricted) blocked set,
    times ``strength`` (<= 0).  0.0 when there is no firewall or nothing
    relevant is blocked.
    """

    if not -math.inf < strength <= 0.0:  # NaN fails too
        raise ValueError("strength must be non-positive and finite")
    blocked = _effective_blocked(firewall, restrict)
    if not blocked:
        return 0.0
    mean_coeff = sum(REWARD_PENALTY_COEFFICIENT[p] for p in blocked) / len(blocked)
    return mean_coeff * strength


def firewall_presence_factor(firewall: FirewallAnnotation | None) -> float:
    """0.01 when the destination sits behind a firewall, else 1.0."""

    return FIREWALL_PRESENCE_FACTOR if firewall is not None else 1.0


def firewall_importance_factor(
    firewall: FirewallAnnotation | None, restrict: Protocol | None = None
) -> float:
    """Mean importance coefficient of the (possibly restricted) blocked set.

    1.0 when no firewall or nothing relevant is blocked, so it never
    *raises* a success probability.
    """

    blocked = _effective_blocked(firewall, restrict)
    if not blocked:
        return 1.0
    return sum(IMPORTANCE_COEFFICIENT[p] for p in blocked) / len(blocked)


def _destination_firewalls(mdp: Mdp, graph: AttackGraph) -> list[FirewallAnnotation | None]:
    """Firewall annotation per state, verifying the graph matches the mdp."""

    out: list[FirewallAnnotation | None] = []
    for sid in mdp.states:
        if not graph.has_vertex(sid):
            raise ValueError(
                f"graph has no vertex {sid!r}; the process was built from a "
                "different graph"
            )
        out.append(graph.vertex(sid).firewall)
    return out


def _require_vanilla(mdp: Mdp) -> None:
    if mdp.terrain_mode != TerrainMode.VANILLA.value:
        raise TerrainError(
            f"process already carries a {mdp.terrain_mode!r} adjustment; "
            "terrain applies to a vanilla process exactly once"
        )


def apply_terrain(mdp: Mdp, graph: AttackGraph, config: TerrainConfig) -> Mdp:
    """New process with ``config``'s adjustment folded into one action array;
    vanilla returns the process unchanged.

    Reward mode adds the destination's penalty to each success-arrival
    reward (failure stay-puts keep reward 0).  State mode multiplies each
    slot's success probability by the destination's presence and importance
    factors, so the stay-put remainder grows to match.  States, gamma and
    the other array are untouched.
    """

    if config.mode is TerrainMode.VANILLA:
        return mdp
    _require_vanilla(mdp)
    firewalls = _destination_firewalls(mdp, graph)
    restrict = config.restrict
    if config.mode is TerrainMode.REWARD:
        penalty = [firewall_reward_penalty(fw, config.strength, restrict) for fw in firewalls]
        changes = {
            "action_reward": mdp.action_reward + np.array(penalty)[mdp.action_dest],
            "terrain_strength": float(config.strength),
        }
    else:
        factor = [
            firewall_presence_factor(fw) * firewall_importance_factor(fw, restrict)
            for fw in firewalls
        ]
        changes = {
            "action_success": mdp.action_success * np.array(factor)[mdp.action_dest],
            "terrain_strength": 0.0,
        }
    return replace(
        mdp,
        terrain_mode=config.mode.value,
        terrain_restrict=restrict.value if restrict is not None else None,
        **changes,
    )
