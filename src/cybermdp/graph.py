"""Attack graph model and interchange format.

An attack graph describes how an intruder can move through a network:
``component`` vertices stand for hosts, services, or attacker privileges,
``rule`` vertices stand for the exploit steps that connect them, and a
directed edge means "from here the attacker can attempt that".  Each vertex
carries a CVSS annotation (base score, exploitability score, attack
complexity) describing how attractive and how hard the corresponding
foothold is, ``DEFAULT_CVSS`` when none is given, and optionally a firewall
annotation listing the protocols a perimeter device blocks on the way in.

Graphs are exchanged as JSON documents with a fixed field order so that
serialization is byte-deterministic and ``parse -> serialize -> parse`` is
the identity.  Every vertex is written with its ``cvss``; a document that
omits one parses to ``DEFAULT_CVSS`` with a :class:`GraphWarning`.  The
document schema (version ``"1"``):

    {
      "version": "1",
      "initial": "<vertex id>",
      "terminal": "<vertex id>",
      "vertices": [
        {
          "id": "web01",
          "kind": "component",            // or "rule"
          "label": "DMZ web server",
          "cvss": {"base": 7.5, "exploitability": 8.6, "complexity": "low"},
          "firewall": {"blocked": ["ftp", "ssh"]}   // optional
        },
        ...
      ],
      "edges": [["web01", "db01"], ...]
    }

Vertex order and edge order are significant and preserved: downstream
consumers traverse adjacency lists in declaration order, so reordering a
document changes behavior even though the vertex set is the same.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar


class GraphFormatError(ValueError):
    """Raised when an interchange document cannot be parsed into a graph."""


class GraphWarning(UserWarning):
    """Non-fatal issues noticed while parsing (e.g. defaulted annotations)."""


class Protocol(Enum):
    """Network protocols a firewall annotation can block."""

    FTP = "ftp"
    SMTP = "smtp"
    HTTP = "http"
    SSH = "ssh"


# Canonical ordering used wherever protocol sets must serialize or sum
# deterministically.
PROTOCOL_ORDER: tuple[Protocol, ...] = (
    Protocol.FTP,
    Protocol.SMTP,
    Protocol.HTTP,
    Protocol.SSH,
)


class Complexity(Enum):
    """CVSS attack-complexity bucket."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class VertexKind(Enum):
    COMPONENT = "component"
    RULE = "rule"


@dataclass(frozen=True)
class CvssAnnotation:
    """CVSS scores attached to a vertex.

    Scores live on the CVSS 0..10 scale.  Out-of-range values are accepted
    at construction so malformed graphs can be represented and then reported
    by :func:`validate`; only types are enforced here.
    """

    base: float
    exploitability: float
    complexity: Complexity

    def __post_init__(self) -> None:
        if not isinstance(self.complexity, Complexity):
            raise TypeError("complexity must be a Complexity value")
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "exploitability", float(self.exploitability))


# Pessimistic stand-in for vertices that ship without CVSS data: worthless
# to capture and hard to exploit.
DEFAULT_CVSS = CvssAnnotation(base=0.0, exploitability=0.0, complexity=Complexity.HIGH)


@dataclass(frozen=True)
class FirewallAnnotation:
    """A perimeter device on the way into a vertex.

    ``blocked`` lists the protocols the device filters and must be
    non-empty: a firewall blocking nothing is expressed by carrying no
    annotation at all.
    """

    blocked: frozenset[Protocol]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocked", frozenset(self.blocked))
        if not self.blocked:
            raise ValueError("firewall must block at least one protocol")
        for p in self.blocked:
            if not isinstance(p, Protocol):
                raise TypeError("blocked entries must be Protocol values")

    def blocked_in_order(self) -> tuple[Protocol, ...]:
        """Blocked protocols in canonical order (deterministic iteration)."""
        return tuple(p for p in PROTOCOL_ORDER if p in self.blocked)


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: VertexKind
    label: str = ""
    cvss: CvssAnnotation = DEFAULT_CVSS
    firewall: FirewallAnnotation | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("vertex id must be a nonempty string")
        if not isinstance(self.kind, VertexKind):
            raise TypeError("kind must be a VertexKind value")
        if not isinstance(self.cvss, CvssAnnotation):
            raise TypeError("cvss must be a CvssAnnotation")


@dataclass(frozen=True)
class AttackGraph:
    """Immutable attack graph with designated entry and goal vertices.

    Vertices and edges keep declaration order; adjacency lists follow edge
    order.  Structural integrity (unique ids) is enforced at construction,
    everything else is left to :func:`validate` so that broken graphs can be
    loaded, inspected, and reported on.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]
    initial: str
    terminal: str

    # Derived indexes, built once in __post_init__.
    _by_id: dict[str, Vertex] = field(init=False, repr=False, compare=False)
    _adjacency: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple((str(a), str(b)) for a, b in self.edges)
        )
        by_id: dict[str, Vertex] = {}
        for v in self.vertices:
            if v.id in by_id:
                raise ValueError(f"duplicate vertex id {v.id!r}")
            by_id[v.id] = v
        adjacency: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for a, b in self.edges:
            if a in adjacency:
                adjacency[a].append(b)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_adjacency", {k: tuple(v) for k, v in adjacency.items()}
        )

    def vertex(self, vertex_id: str) -> Vertex:
        try:
            return self._by_id[vertex_id]
        except KeyError:
            raise KeyError(f"unknown vertex id {vertex_id!r}") from None

    def has_vertex(self, vertex_id: str) -> bool:
        return vertex_id in self._by_id

    def successors(self, vertex_id: str) -> tuple[str, ...]:
        """Outbound neighbor ids in edge declaration order."""
        if vertex_id not in self._by_id:
            raise KeyError(f"unknown vertex id {vertex_id!r}")
        return self._adjacency[vertex_id]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        # The graph is immutable, so validate() finds its violations once.
        violations: list[str] = []
        ids = {v.id for v in self.vertices}

        if self.initial not in ids:
            violations.append(f"initial vertex {self.initial!r} is not declared")
        if self.terminal not in ids:
            violations.append(f"terminal vertex {self.terminal!r} is not declared")
        if self.initial == self.terminal:
            violations.append("initial and terminal vertices must differ")

        for a, b in self.edges:
            if a not in ids:
                violations.append(f"edge ({a!r}, {b!r}) references undeclared source {a!r}")
            if b not in ids:
                violations.append(f"edge ({a!r}, {b!r}) references undeclared target {b!r}")
            if a == b:
                violations.append(f"self-edge on vertex {a!r} is not allowed")

        for v in self.vertices:
            if not 0.0 <= v.cvss.base <= 10.0:
                violations.append(f"vertex {v.id!r} base score {v.cvss.base} outside [0, 10]")
            if not 0.0 <= v.cvss.exploitability <= 10.0:
                violations.append(
                    f"vertex {v.id!r} exploitability score "
                    f"{v.cvss.exploitability} outside [0, 10]"
                )
        # Reachability is only meaningful once the structural checks pass.
        if not violations and self.terminal not in reachable_set(self, self.initial):
            violations.append(
                f"terminal vertex {self.terminal!r} is unreachable from "
                f"initial vertex {self.initial!r}"
            )

        return tuple(violations)


def validate(graph: AttackGraph) -> list[str]:
    """Check every graph invariant and return the violations found.

    Returns an empty list for a well-formed graph.  Each violation is a
    single human-readable sentence naming the offending vertex or edge, so
    callers can print the list directly.  A graph is checked once; each
    call returns a fresh list.
    """

    return list(graph._violations)


def _closure(start: str, neighbours: Callable[[str], Iterable[str]]) -> frozenset[str]:
    """``start`` plus every vertex id reachable from it through ``neighbours``."""

    seen = {start}
    frontier = [start]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for w in neighbours(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def reachable_set(graph: AttackGraph, from_id: str) -> frozenset[str]:
    """Vertex ids reachable from ``from_id`` along directed edges.

    Includes ``from_id`` itself.  Raises KeyError for an unknown id.
    """

    graph.vertex(from_id)
    return _closure(from_id, lambda u: [w for w in graph.successors(u) if graph.has_vertex(w)])


def co_reachable_set(graph: AttackGraph, to_id: str) -> frozenset[str]:
    """Vertex ids from which ``to_id`` is reachable (includes ``to_id``)."""

    graph.vertex(to_id)
    predecessors: dict[str, list[str]] = {v.id: [] for v in graph.vertices}
    for a, b in graph.edges:
        if a in predecessors and b in predecessors:
            predecessors[b].append(a)
    return _closure(to_id, predecessors.__getitem__)


# ---------------------------------------------------------------------------
# Interchange parsing and serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = "1"


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise GraphFormatError(f"{where}: missing required field {key!r}")
    return mapping[key]


_E = TypeVar("_E", bound=Enum)


def _parse_token(enum: type[_E], token: str, what: str) -> _E:
    """The member of ``enum`` named by ``token``, case and surrounding
    whitespace ignored."""

    try:
        return enum(token.strip().lower())
    except ValueError:
        raise GraphFormatError(f"unknown {what} {token!r}") from None


def _parse_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_cvss(doc: Any, where: str) -> CvssAnnotation:
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{where}: cvss must be an object")
    base = _parse_number(_require(doc, "base", where), f"{where}.base")
    expl = _parse_number(
        _require(doc, "exploitability", where), f"{where}.exploitability"
    )
    token = _require(doc, "complexity", where)
    if not isinstance(token, str):
        raise GraphFormatError(f"{where}.complexity: expected a string")
    complexity = _parse_token(Complexity, token, "complexity token")
    return CvssAnnotation(base=base, exploitability=expl, complexity=complexity)


def _parse_firewall(doc: Any, where: str) -> FirewallAnnotation:
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{where}: firewall must be an object")
    blocked = _require(doc, "blocked", where)
    if not isinstance(blocked, list) or not all(isinstance(t, str) for t in blocked):
        raise GraphFormatError(f"{where}.blocked: expected a list of protocol strings")
    if not blocked:
        raise GraphFormatError(f"{where}.blocked: must name at least one protocol")
    protocols = frozenset(_parse_token(Protocol, t, "protocol token") for t in blocked)
    return FirewallAnnotation(blocked=protocols)


def _parse_vertex(doc: Any, index: int) -> Vertex:
    where = f"vertices[{index}]"
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{where}: expected an object")
    vid = _require(doc, "id", where)
    if not isinstance(vid, str) or not vid:
        raise GraphFormatError(f"{where}.id: expected a nonempty string")
    kind_token = _require(doc, "kind", where)
    if not isinstance(kind_token, str):
        raise GraphFormatError(f"{where}.kind: expected a string")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise GraphFormatError(f"{where}.label: expected a string")

    if "cvss" in doc:
        cvss = _parse_cvss(doc["cvss"], f"{where}.cvss")
    else:
        # Unscored vertices get the pessimistic default so every parsed
        # graph is fully annotated; flag it, silent defaults hide mistakes.
        cvss = DEFAULT_CVSS
        warnings.warn(
            f"vertex {vid!r} has no cvss annotation; "
            "defaulting to base 0, exploitability 0, complexity high",
            GraphWarning,
            # Past this function, parse_attack_graph's generator and
            # parse_attack_graph itself: the warning names their caller.
            stacklevel=4,
        )
    firewall = _parse_firewall(doc["firewall"], f"{where}.firewall") if "firewall" in doc else None
    return Vertex(
        id=vid,
        kind=_parse_token(VertexKind, kind_token, "vertex kind"),
        label=label,
        cvss=cvss,
        firewall=firewall,
    )


def parse_attack_graph(text: str, *, strict: bool = True) -> AttackGraph:
    """Parse an interchange document into an :class:`AttackGraph`.

    Raises :class:`GraphFormatError` for anything that cannot be represented:
    invalid JSON, wrong version, missing or mistyped fields, duplicate ids.
    With ``strict`` (the default) the parsed graph must also pass
    :func:`validate`; violations raise ``ValueError`` listing every problem.
    ``strict=False`` returns graphs with representable semantic problems
    (dangling edges, scores out of range, ...) so callers can run
    :func:`validate` themselves and report.
    """

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top level: expected an object")

    version = _require(doc, "version", "top level")
    if version != FORMAT_VERSION:
        raise GraphFormatError(
            f"unsupported format version {version!r}; expected {FORMAT_VERSION!r}"
        )

    initial = _require(doc, "initial", "top level")
    terminal = _require(doc, "terminal", "top level")
    if not isinstance(initial, str) or not isinstance(terminal, str):
        raise GraphFormatError("top level: initial and terminal must be strings")

    raw_vertices = _require(doc, "vertices", "top level")
    if not isinstance(raw_vertices, list):
        raise GraphFormatError("top level: vertices must be a list")
    vertices = tuple(_parse_vertex(v, i) for i, v in enumerate(raw_vertices))

    raw_edges = _require(doc, "edges", "top level")
    if not isinstance(raw_edges, list):
        raise GraphFormatError("top level: edges must be a list")
    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(raw_edges):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            raise GraphFormatError(f"edges[{i}]: expected a pair of vertex id strings")
        edges.append((pair[0], pair[1]))

    try:
        graph = AttackGraph(
            vertices=vertices, edges=tuple(edges), initial=initial, terminal=terminal
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc

    if strict:
        violations = validate(graph)
        if violations:
            raise ValueError(
                "graph document fails validation:\n  " + "\n  ".join(violations)
            )
    return graph


def graph_to_document(graph: AttackGraph) -> dict[str, Any]:
    """Graph as a plain dict mirroring the interchange schema, key order fixed."""

    vertices_out: list[dict[str, Any]] = []
    for v in graph.vertices:
        entry: dict[str, Any] = {"id": v.id, "kind": v.kind.value, "label": v.label}
        entry["cvss"] = {
            "base": v.cvss.base,
            "exploitability": v.cvss.exploitability,
            "complexity": v.cvss.complexity.value,
        }
        if v.firewall is not None:
            entry["firewall"] = {
                "blocked": [p.value for p in v.firewall.blocked_in_order()]
            }
        vertices_out.append(entry)
    return {
        "version": FORMAT_VERSION,
        "initial": graph.initial,
        "terminal": graph.terminal,
        "vertices": vertices_out,
        "edges": [[a, b] for a, b in graph.edges],
    }


def serialize_attack_graph(graph: AttackGraph) -> str:
    """Canonical interchange text: fixed key order, 2-space indent, one
    trailing newline.  Byte-identical for equal graphs."""

    return json.dumps(graph_to_document(graph), indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    # Backslashes first, then newlines become DOT line-break escapes.
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def export_dot(graph: AttackGraph, highlight: Sequence[str] = ()) -> str:
    """Render the graph as Graphviz DOT text.

    Components draw as boxes, rules as ellipses; the initial and terminal
    vertices get a double border and firewalled vertices note their blocked
    protocols in the label.  ``highlight`` is an optional path (consecutive
    vertex ids joined by graph edges); its edges are drawn red.  Output is
    byte-deterministic for a given graph and highlight.
    """

    highlight = list(highlight)
    for vid in highlight:
        if not graph.has_vertex(vid):
            raise ValueError(f"highlight references unknown vertex {vid!r}")
    edge_set = set(graph.edges)
    highlighted_edges: set[tuple[str, str]] = set()
    for a, b in zip(highlight, highlight[1:]):
        if (a, b) not in edge_set:
            raise ValueError(
                f"highlight step ({a!r}, {b!r}) is not an edge of the graph"
            )
        highlighted_edges.add((a, b))

    lines = ["digraph attack_graph {", "  rankdir=LR;"]
    for v in graph.vertices:
        shape = "box" if v.kind is VertexKind.COMPONENT else "ellipse"
        label = v.id if not v.label else f"{v.id}\n{v.label}"
        if v.firewall is not None:
            tokens = ",".join(p.value for p in v.firewall.blocked_in_order())
            label += f"\n[firewall blocks {tokens}]"
        attrs = [f"shape={shape}", f"label={_dot_quote(label)}"]
        if v.id in (graph.initial, graph.terminal):
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(v.id)} [{', '.join(attrs)}];")
    for a, b in graph.edges:
        suffix = ' [color="red", penwidth=2]' if (a, b) in highlighted_edges else ""
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
