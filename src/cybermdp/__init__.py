"""Attack graphs compiled to decision processes, with cyber-terrain
adjustments and reinforcement-learning solvers on top.

The pipeline: parse or generate an annotated attack graph (:mod:`.graph`,
:mod:`.netgen`), compile it to a finite decision process whose rewards and
success probabilities come from the vulnerability scores (:mod:`.mdp`),
optionally fold firewalls into the rewards or the transition dynamics with
the one transform ``apply_terrain`` (:mod:`.terrain`), then solve exactly
(``value_iteration``, which runs Howard's policy iteration), by tabular
Q-learning, or by a small Q-network (:mod:`.solver`, :mod:`.network`) and compare the learned routes of any set of terrain
variants, protocol-restricted ones included, in one ``compare_variants``
call, which returns one ``VariantMetrics`` per variant (:mod:`.evaluate`).
"""

from .evaluate import VariantMetrics, compare_variants, evaluate_variant, extract_path
from .graph import (
    AttackGraph,
    Complexity,
    CvssAnnotation,
    FirewallAnnotation,
    GraphFormatError,
    GraphWarning,
    PROTOCOL_ORDER,
    Protocol,
    Vertex,
    VertexKind,
    co_reachable_set,
    export_dot,
    parse_attack_graph,
    reachable_set,
    serialize_attack_graph,
    validate,
)
from .mdp import (
    COMPLEXITY_SUCCESS_PROBABILITY,
    ConvergenceError,
    Mdp,
    ValueResult,
    action_values,
    base_reward,
    build_cvss_mdp,
    complexity_to_probability,
    dfs_depths,
    serialize_mdp,
    value_iteration,
)
from .netgen import ENTERPRISE_SCALE, TopologyParams, generate, plant_gauntlet
from .network import QNetwork, sgd_step, td_loss_and_gradients
from .solver import (
    ALGORITHMS,
    EpisodeTrace,
    ReplayBuffer,
    TabularQ,
    TrainConfig,
    TrainResult,
    rollout_greedy,
    train,
)
from .terrain import (
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

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AttackGraph",
    "COMPLEXITY_SUCCESS_PROBABILITY",
    "Complexity",
    "ConvergenceError",
    "CvssAnnotation",
    "ENTERPRISE_SCALE",
    "EpisodeTrace",
    "FIREWALL_PRESENCE_FACTOR",
    "FirewallAnnotation",
    "GraphFormatError",
    "GraphWarning",
    "IMPORTANCE_COEFFICIENT",
    "Mdp",
    "PROTOCOL_ORDER",
    "Protocol",
    "QNetwork",
    "REWARD_PENALTY_COEFFICIENT",
    "ReplayBuffer",
    "TabularQ",
    "TerrainConfig",
    "TerrainError",
    "TerrainMode",
    "TopologyParams",
    "TrainConfig",
    "TrainResult",
    "ValueResult",
    "VariantMetrics",
    "Vertex",
    "VertexKind",
    "action_values",
    "apply_terrain",
    "base_reward",
    "build_cvss_mdp",
    "co_reachable_set",
    "compare_variants",
    "complexity_to_probability",
    "dfs_depths",
    "evaluate_variant",
    "export_dot",
    "extract_path",
    "firewall_importance_factor",
    "firewall_presence_factor",
    "firewall_reward_penalty",
    "generate",
    "parse_attack_graph",
    "plant_gauntlet",
    "reachable_set",
    "rollout_greedy",
    "serialize_attack_graph",
    "serialize_mdp",
    "sgd_step",
    "td_loss_and_gradients",
    "train",
    "validate",
    "value_iteration",
]
