"""Command-line front end.

Subcommands::

    cybermdp validate GRAPH                  check a graph document
    cybermdp gen --out FILE                  generate a synthetic graph
    cybermdp build GRAPH --out FILE          compile to a decision process
    cybermdp train GRAPH --out DIR           train one variant, export curve
    cybermdp compare GRAPH --out DIR         matched-seed variant comparison
    cybermdp export-dot GRAPH --out FILE     render to Graphviz DOT

Exit codes: 0 success, 1 domain violation (failed validation, bad
parameters, non-convergence, a size too large to allocate), 2 I/O or
parse failure.  ``gen``, ``build`` and ``export-dot`` print their
document, or write it to ``--out``.
``train`` and ``compare`` fill a run directory through ``_write_run``,
which writes a ``manifest.json`` recording the resolved configuration, the
sha256 of the graph bytes the run parsed and of every artifact; ``--config``
accepts either a plain configuration document or such a manifest, so a
finished run can be reproduced byte-for-byte from its own manifest.  If a
run fails midway, a ``FAILED`` marker file with the error text is left next
to the partial artifacts.

The resolved configuration is a plain dict of ``TrainConfig``'s fields plus
the keys of ``RUN_DEFAULTS``; each flag's ``dest`` is its key, and one
constructor builds every variant's ``TerrainConfig`` from it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from enum import Enum
from typing import Any, Callable, Sequence, TypeVar

from .evaluate import VariantMetrics, compare_variants, evaluate_variant
from .graph import (
    PROTOCOL_ORDER,
    AttackGraph,
    Complexity,
    GraphFormatError,
    Protocol,
    export_dot,
    parse_attack_graph,
    serialize_attack_graph,
    validate,
)
from .mdp import ConvergenceError, build_cvss_mdp, serialize_mdp
from .netgen import ENTERPRISE_SCALE, TopologyParams, generate, plant_gauntlet
from .solver import ALGORITHMS, TrainConfig, train
from .terrain import TerrainConfig, TerrainMode, apply_terrain

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

# Small default topology for quick local runs.
DESK_SCALE = TopologyParams(
    num_subnets=3,
    hosts_per_subnet=12,
    intra_edge_prob=0.06,
    inter_edge_count=2,
    firewall_prob=0.5,
    seed=0,
)

PRESETS = {
    "desk": DESK_SCALE,
    "enterprise": ENTERPRISE_SCALE,
}


# Defaults of the keys a train/compare configuration adds to TrainConfig's
# fields (the process and its terrain), and of the TrainConfig fields whose
# CLI default differs from the library's.
RUN_DEFAULTS: dict[str, Any] = {
    "gamma": 0.9,
    "w": -2.0,
    "protocol": None,
    "mode": "reward",
    "protocols": False,
    "episodes": 400,
    "learning_rate": 0.2,
    "learning_rate_decay": 0.6,
}

# learning_rate when a dqn run sets none: the tabular default above makes
# the network diverge on small graphs.
DQN_LEARNING_RATE = 0.01

# Type of the configuration keys whose default is null.
_NULLABLE_TYPES: dict[str, type] = {"protocol": str, "epsilon_decay_episodes": int}


# ---------------------------------------------------------------------------
# small I/O helpers
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _load_graph(path: str) -> tuple[AttackGraph, str]:
    # Lenient parse: semantic problems are left for the caller to report.
    # The digest is of the very bytes parsed, for a run's manifest.
    data = Path(path).read_bytes()
    return parse_attack_graph(data.decode("utf-8"), strict=False), _sha256(data)


def _load_valid_graph(path: str) -> tuple[AttackGraph, str]:
    graph, digest = _load_graph(path)
    violations = validate(graph)
    if violations:
        raise ValueError(
            f"graph {path} fails validation:\n  " + "\n  ".join(violations)
        )
    return graph, digest


def _load_json(path: str) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _curve_rows(curve: Sequence[tuple[int, float]]) -> list[list[str]]:
    rows = [["episode", "eval_total_reward"]]
    for episode, total in curve:
        rows.append([str(episode), repr(float(total))])
    return rows


_E = TypeVar("_E", bound=Enum)


def _parse_enum(enum: type[_E], token: str) -> _E:
    """The member of ``enum`` named by ``token``, case and surrounding
    whitespace ignored."""

    try:
        return enum(token.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown {enum.__name__.lower()} {token!r}; expected one of "
            f"{[m.value for m in enum]}"
        ) from None


def _check_type(key: str, value: Any, default: Any) -> None:
    """Reject a config value whose JSON type differs from its default's: a
    bool is never a number, an int passes for a float, null only for null."""

    if key == "hidden_layers":
        expected = "a list of int"
        ok = isinstance(value, list) and all(type(h) is int for h in value)
    elif default is None:
        expected = f"{_NULLABLE_TYPES[key].__name__} or null"
        ok = value is None or type(value) is _NULLABLE_TYPES[key]
    else:
        expected = type(default).__name__
        ok = type(value) is type(default) or (type(value), type(default)) == (int, float)
    if not ok:
        raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")


def _resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """defaults < config file (or manifest) < explicit flags; the result
    (TrainConfig's fields plus RUN_DEFAULTS' keys) is a run's manifest entry."""

    fields = dataclasses.fields(TrainConfig)
    cfg = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    cfg.update(RUN_DEFAULTS)
    doc: Any = {}
    if getattr(args, "config", None) is not None:  # build takes no --config
        doc = _load_json(args.config)
        if isinstance(doc, dict) and "resolved_config" in doc:
            doc = doc["resolved_config"]  # a manifest from an earlier run
        if not isinstance(doc, dict):
            raise GraphFormatError(f"config {args.config}: expected an object")
    doc.update((key, getattr(args, key)) for key in cfg if getattr(args, key, None) is not None)
    unknown = set(doc) - set(cfg)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        _check_type(key, value, cfg[key])
    cfg.update(doc)
    if cfg["algorithm"] == "dqn" and "learning_rate" not in doc:
        cfg["learning_rate"] = DQN_LEARNING_RATE
    if cfg["protocol"] is not None:
        cfg["protocol"] = _parse_enum(Protocol, cfg["protocol"]).value
    # The Mdp's own check, made before a run directory exists.
    if not 0.0 < cfg["gamma"] <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return cfg


def _train_config(cfg: dict[str, Any]) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})


def _terrain_config(cfg: dict[str, Any], mode: str | TerrainMode) -> TerrainConfig:
    """The terrain of one variant; strength and restriction come from cfg."""

    protocol = cfg["protocol"]
    restrict = Protocol(protocol) if protocol is not None else None
    return TerrainConfig(mode=TerrainMode(mode), strength=cfg["w"], restrict=restrict)


def _summary_rows(variants: Sequence[VariantMetrics]) -> list[list[str]]:
    """CSV-ready rows (header first); floats via repr for stable bytes.

    Hop counting ambiguity (attempts vs landings) is resolved by the
    per-variant detail document, which carries distinct_vertices; the
    summary keeps the four headline columns.
    """

    rows = [["variant", "hops", "total_reward", "reward_per_hop"]]
    for v in variants:
        rows.append(
            [v.name, str(v.hops), repr(v.total_reward), repr(v.reward_per_hop)]
        )
    return rows


def _variant_document(v: VariantMetrics) -> dict[str, Any]:
    return {
        "variant": v.name,
        "hops": v.hops,
        "distinct_vertices": v.distinct_vertices,
        "total_reward": v.total_reward,
        "reward_per_hop": v.reward_per_hop,
        "reached_terminal": v.reached_terminal,
        "path": list(v.path),
        "revisited": v.revisited,
    }


def _json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_run(
    args: argparse.Namespace,
    cfg: dict[str, Any],
    graph_digest: str,
    run: Callable[[], tuple[dict[str, str], list[str]]],
) -> int:
    """Fill the run directory ``args.out`` with what ``run()`` returns.

    ``run()`` gives the files (name -> text) and the lines to print.  The
    files are written with a ``manifest.json`` that hashes exactly those;
    on any error a ``FAILED`` marker with the error text is left next to
    the partial artifacts, and on success a stale marker is removed before
    the lines are printed.
    """

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = out_dir / "FAILED"
    try:
        files, lines = run()
        for name, text in files.items():
            _write_text(out_dir / name, text)
        manifest = {
            "command": args.command,
            "resolved_config": cfg,
            "graph": args.graph,
            "inputs": {args.graph: graph_digest},
            "artifacts": {
                name: _sha256((out_dir / name).read_bytes()) for name in sorted(files)
            },
        }
        _write_text(out_dir / "manifest.json", _json_text(manifest))
    except BaseException as exc:
        try:
            failed.write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        except OSError:
            pass
        raise
    if failed.exists():  # stale marker from an earlier crashed run
        failed.unlink()
    for line in lines:
        print(line)
    return EXIT_OK


def _emit(out: str | None, text: str, summary: str = "") -> int:
    """Write ``text`` to stdout, or to the file ``out`` and say so."""

    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(out), text)
        print(f"wrote {out}{summary}")
    return EXIT_OK


def _path_dot(graph: AttackGraph, metrics: VariantMetrics) -> str:
    # A revisiting rollout can collapse to a vertex list that is not an edge
    # path; exporting without a highlight keeps the artifact deterministic.
    if metrics.revisited:
        return export_dot(graph)
    return export_dot(graph, highlight=metrics.path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args.graph)
    violations = validate(graph)
    if violations:
        for line in violations:
            print(line)
        return EXIT_DOMAIN
    print(f"OK: {graph.vertex_count} vertices, {graph.edge_count} edges")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    given = [f"--{f}" for f in ("preset", "config", "seed") if getattr(args, f) is not None]
    if args.gauntlet is not None and given:
        raise ValueError(f"--gauntlet builds one fixed graph and takes no {', '.join(given)}")
    if args.config is not None and args.preset is not None:
        raise ValueError("give either --preset or --config, not both")
    if args.config is not None:
        doc = _load_json(args.config)
        params = _topology_from_document(doc)
    else:
        params = PRESETS[args.preset or "desk"]
    if args.seed is not None:
        params = dataclasses.replace(params, seed=args.seed)
    if args.gauntlet is not None:
        blocked = frozenset(_parse_enum(Protocol, t) for t in args.gauntlet.split(","))
        graph = plant_gauntlet(params, blocked)
    else:
        graph = generate(params)
    summary = f": {graph.vertex_count} vertices, {graph.edge_count} edges"
    return _emit(args.out, serialize_attack_graph(graph), summary)


def _topology_from_document(doc: Any) -> TopologyParams:
    if not isinstance(doc, dict):
        raise GraphFormatError("topology config: expected an object")
    kwargs = dict(doc)
    defaults = vars(DESK_SCALE)
    for key, value in kwargs.items():
        if key in defaults:  # an unknown key fails in TopologyParams below
            _check_type(key, value, defaults[key])
    for key, enum in (("protocol_weights", Protocol), ("complexity_weights", Complexity)):
        if key in kwargs:
            for weight in kwargs[key].values():
                _check_type(key, weight, 0.0)
            kwargs[key] = {_parse_enum(enum, k): float(v) for k, v in kwargs[key].items()}
    try:
        return TopologyParams(**kwargs)
    except TypeError as exc:
        raise ValueError(f"topology config: {exc}") from exc


def cmd_build(args: argparse.Namespace) -> int:
    graph, _ = _load_valid_graph(args.graph)
    cfg = _resolve_config(args)
    mdp = build_cvss_mdp(graph, gamma=cfg["gamma"])
    mdp = apply_terrain(mdp, graph, _terrain_config(cfg, args.mode or "vanilla"))
    summary = f": {mdp.num_states} states, {mdp.num_action_slots} actions"
    return _emit(args.out, serialize_mdp(mdp), summary)


def _q_table_rows(mdp, table) -> list[list[str]]:
    rows = [["state", "action", "value"]]
    for s in range(mdp.num_states):
        for k in range(mdp.num_actions(s)):
            rows.append([mdp.vertex_id(s), str(k), repr(float(table.action_values(s)[k]))])
    return rows


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    graph, graph_digest = _load_valid_graph(args.graph)
    terrain_cfg = _terrain_config(cfg, cfg["mode"])
    train_cfg = _train_config(cfg)

    def run() -> tuple[dict[str, str], list[str]]:
        mdp = apply_terrain(build_cvss_mdp(graph, gamma=cfg["gamma"]), graph, terrain_cfg)
        result = train(mdp, train_cfg)
        metrics = evaluate_variant(terrain_cfg.label(), mdp, train_cfg, result)
        files = {
            "curve.csv": _csv_text(_curve_rows(metrics.curve)),
            "metrics.json": _json_text(_variant_document(metrics)),
            "path.dot": _path_dot(graph, metrics),
        }
        if cfg["algorithm"] == "tabular":
            files["q.csv"] = _csv_text(_q_table_rows(mdp, result.q))
        line = (
            f"{metrics.name}: hops={metrics.hops} total_reward={metrics.total_reward:.3f} "
            f"reached={str(metrics.reached_terminal).lower()}"
        )
        return files, [line]

    return _write_run(args, cfg, graph_digest, run)


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    graph, graph_digest = _load_valid_graph(args.graph)
    train_cfg = _train_config(cfg)
    variants = [_terrain_config(cfg, mode) for mode in TerrainMode]
    if cfg["protocols"]:
        # Per-protocol restricted curves for both terrain modes.
        variants += [
            dataclasses.replace(v, restrict=p)
            for v in variants
            if v.mode is not TerrainMode.VANILLA
            for p in PROTOCOL_ORDER
        ]
    # Under --protocol, two headline variants are also sweep entries;
    # dropping the repeats keeps the headline three first.
    variants = list(dict.fromkeys(variants))

    def run() -> tuple[dict[str, str], list[str]]:
        report = compare_variants(graph, variants, train_cfg, gamma=cfg["gamma"])
        shown = report[: len(TerrainMode)]
        files = {
            "summary.csv": _csv_text(_summary_rows(shown)),
            "metrics.json": _json_text([_variant_document(v) for v in shown]),
        }
        files.update((f"curve_{v.name}.csv", _csv_text(_curve_rows(v.curve))) for v in report)
        files.update((f"path_{v.name}.dot", _path_dot(graph, v)) for v in shown)
        lines = [
            f"{v.name}: hops={v.hops} distinct={v.distinct_vertices} "
            f"total_reward={v.total_reward:.3f} reached={str(v.reached_terminal).lower()}"
            for v in shown
        ]
        return files, lines

    return _write_run(args, cfg, graph_digest, run)


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args.graph)
    highlight: list[str] = []
    if args.highlight:
        highlight = [t.strip() for t in args.highlight.split(",") if t.strip()]
    return _emit(args.out, export_dot(graph, highlight=highlight))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_process_flags(p: argparse.ArgumentParser, mode_default: str | None) -> None:
    """Flags of the process and its terrain; ``--mode`` where it has a default."""

    p.add_argument("--gamma", type=float, help="discount factor in (0, 1]")
    p.add_argument("--w", type=float, help="reward-penalty strength (<= 0)")
    p.add_argument("--protocol", help="restrict terrain to one protocol (ftp|smtp|http|ssh)")
    if mode_default is not None:
        p.add_argument(
            "--mode",
            choices=[m.value for m in TerrainMode],
            help=f"terrain adjustment (default {mode_default})",
        )


def _add_train_flags(p: argparse.ArgumentParser, mode_default: str | None) -> None:
    _add_process_flags(p, mode_default)
    p.add_argument("--config", help="JSON config document or a manifest.json")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--episodes", type=int, help="training episodes")
    p.add_argument("--algorithm", choices=ALGORITHMS, help="solver algorithm")
    p.add_argument(
        "--max-steps", dest="max_steps_per_episode", metavar="MAX_STEPS", type=int,
        help="episode step cap",
    )
    p.add_argument("--eval-interval", type=int, help="episodes between greedy evals")
    p.add_argument("--learning-rate", type=float, help="update step size")
    p.add_argument(
        "--learning-rate-decay",
        type=float,
        help="per-visit polynomial decay exponent (tabular)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cybermdp",
        description="Attack-graph decision processes with cyber-terrain adjustments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a synthetic attack graph")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.add_argument("--preset", choices=sorted(PRESETS), help="topology preset")
    p.add_argument("--config", help="TopologyParams JSON document")
    p.add_argument("--seed", type=int, help="override the topology seed")
    p.add_argument(
        "--gauntlet",
        metavar="PROTOCOLS",
        help="emit the two-route fixture instead; comma-separated blocked protocols",
    )
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="compile a graph to a decision process")
    p.add_argument("graph")
    p.add_argument("--out", help="output file (stdout if omitted)")
    _add_process_flags(p, "vanilla")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train one variant and export its curve")
    p.add_argument("graph")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p, RUN_DEFAULTS["mode"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="matched-seed comparison of all variants")
    p.add_argument("graph")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--protocols",
        action="store_true",
        default=None,
        help="also sweep each protocol restriction per terrain mode",
    )
    _add_train_flags(p, None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-dot", help="render a graph to Graphviz DOT")
    p.add_argument("graph")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.add_argument(
        "--highlight",
        metavar="PATH",
        help="comma-separated vertex ids forming a path to highlight",
    )
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, ConvergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
