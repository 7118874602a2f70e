"""Graph model: parsing, validation, reachability, DOT export."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import component, make_graph
from cybermdp.graph import (
    DEFAULT_CVSS,
    PROTOCOL_ORDER,
    AttackGraph,
    Complexity,
    CvssAnnotation,
    FirewallAnnotation,
    GraphFormatError,
    GraphWarning,
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
from oracles import closure_co_reachable, closure_reachable

MINIMAL_DOC = {
    "version": "1",
    "initial": "A",
    "terminal": "B",
    "vertices": [
        {"id": "A", "kind": "component", "label": "", "cvss": {"base": 1.0, "exploitability": 1.0, "complexity": "low"}},
        {"id": "B", "kind": "component", "label": "", "cvss": {"base": 1.0, "exploitability": 1.0, "complexity": "low"}},
    ],
    "edges": [["A", "B"]],
}


def doc_with(**overrides) -> str:
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc.update(overrides)
    return json.dumps(doc)


class TestEnums:
    def test_protocol_values(self):
        assert [p.value for p in PROTOCOL_ORDER] == ["ftp", "smtp", "http", "ssh"]
        assert len(Protocol) == 4

    # The parser reads enum tokens case-insensitively, whitespace stripped.
    def test_protocol_from_token(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["vertices"][1]["firewall"] = {"blocked": ["FTP", " ssh "]}
        blocked = parse_attack_graph(json.dumps(doc)).vertex("B").firewall.blocked
        assert blocked == {Protocol.FTP, Protocol.SSH}
        doc["vertices"][1]["firewall"] = {"blocked": ["gopher"]}
        with pytest.raises(GraphFormatError, match="unknown protocol token 'gopher'"):
            parse_attack_graph(json.dumps(doc))

    def test_complexity_tokens(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["vertices"][0]["cvss"]["complexity"] = "Low"
        doc["vertices"][1]["cvss"]["complexity"] = "MEDIUM"
        doc["vertices"][1]["kind"] = " Rule "
        g = parse_attack_graph(json.dumps(doc))
        assert g.vertex("A").cvss.complexity is Complexity.LOW
        assert g.vertex("B").cvss.complexity is Complexity.MEDIUM
        assert g.vertex("B").kind is VertexKind.RULE
        doc["vertices"][1]["cvss"]["complexity"] = "extreme"
        with pytest.raises(GraphFormatError, match="unknown complexity token 'extreme'"):
            parse_attack_graph(json.dumps(doc))


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_graph(
                vertices=(component("a"), component("a")),
                edges=(),
                initial="a",
                terminal="a",
            )

    def test_successors_in_declaration_order(self):
        g = make_graph(
            vertices=(component("a"), component("b"), component("c"), component("d")),
            edges=(("a", "c"), ("a", "b"), ("a", "d"), ("b", "d")),
            initial="a",
            terminal="d",
        )
        assert g.successors("a") == ("c", "b", "d")
        assert g.successors("d") == ()
        with pytest.raises(KeyError):
            g.successors("zz")

    def test_empty_firewall_rejected(self):
        with pytest.raises(ValueError):
            FirewallAnnotation(blocked=frozenset())

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: CvssAnnotation(1.0, 1.0, complexity="low"), "complexity"),
            (lambda: FirewallAnnotation(blocked=frozenset({"ftp"})), "Protocol"),
            (lambda: Vertex(id="", kind=VertexKind.COMPONENT), "nonempty"),
            (lambda: Vertex(id=7, kind=VertexKind.COMPONENT), "nonempty"),
            (lambda: Vertex(id="a", kind="component"), "VertexKind"),
            (lambda: Vertex(id="a", kind=VertexKind.RULE, cvss=None), "CvssAnnotation"),
        ],
        ids=["complexity", "blocked", "empty-id", "int-id", "kind", "cvss"],
    )
    def test_mistyped_field_rejected(self, build, match):
        with pytest.raises((TypeError, ValueError), match=match):
            build()

    def test_blocked_in_order_is_canonical(self):
        fw = FirewallAnnotation(blocked=frozenset({Protocol.SSH, Protocol.FTP}))
        assert fw.blocked_in_order() == (Protocol.FTP, Protocol.SSH)


class TestValidate:
    def test_minimal_graph_clean(self, chain_graph):
        assert validate(chain_graph) == []

    def test_missing_endpoints(self):
        g = make_graph(
            vertices=(component("a"), component("b")),
            edges=(("a", "b"),),
            initial="zz",
            terminal="b",
        )
        violations = validate(g)
        assert len(violations) == 1
        assert "zz" in violations[0]

    @pytest.mark.parametrize(
        "vertices, terminal, message",
        [
            ((component("a"), component("b")), "zz", "terminal vertex 'zz' is not declared"),
            (
                (component("a", expl=10.5), component("b")),
                "b",
                "vertex 'a' exploitability score 10.5 outside [0, 10]",
            ),
        ],
        ids=["undeclared-terminal", "exploitability-range"],
    )
    def test_violation_named(self, vertices, terminal, message):
        g = make_graph(vertices=vertices, edges=(("a", "b"),), initial="a", terminal=terminal)
        assert validate(g) == [message]

    def test_initial_equals_terminal(self):
        g = make_graph(
            vertices=(component("a"), component("b")),
            edges=(("a", "b"),),
            initial="a",
            terminal="a",
        )
        assert any("differ" in v for v in validate(g))

    def test_dangling_edge_named(self):
        g = make_graph(
            vertices=(component("a"), component("b")),
            edges=(("a", "Z"),),
            initial="a",
            terminal="b",
        )
        violations = validate(g)
        assert any("'Z'" in v for v in violations)

    def test_self_edge(self):
        g = make_graph(
            vertices=(component("a"), component("b")),
            edges=(("a", "a"), ("a", "b")),
            initial="a",
            terminal="b",
        )
        assert any("self-edge" in v for v in validate(g))

    def test_score_range(self):
        bad = Vertex(
            id="a",
            kind=VertexKind.COMPONENT,
            cvss=CvssAnnotation(base=11.0, exploitability=5.0, complexity=Complexity.LOW),
        )
        g = AttackGraph(
            vertices=(bad, component("b")),
            edges=(("a", "b"),),
            initial="a",
            terminal="b",
        )
        violations = validate(g)
        assert len(violations) == 1
        assert "base score" in violations[0] and "11.0" in violations[0]

    def test_terminal_unreachable(self):
        g = make_graph(
            vertices=(component("a"), component("b"), component("c")),
            edges=(("b", "c"),),
            initial="a",
            terminal="c",
        )
        violations = validate(g)
        assert len(violations) == 1
        assert "unreachable" in violations[0]

    def test_one_entry_per_violation(self):
        g = make_graph(
            vertices=(component("a"), component("b")),
            edges=(("a", "a"), ("a", "Z")),
            initial="a",
            terminal="b",
        )
        violations = validate(g)
        assert len(violations) == 2


class TestReachability:
    def test_chain(self, chain_graph):
        assert reachable_set(chain_graph, "a") == {"a", "b", "c"}
        assert reachable_set(chain_graph, "c") == {"c"}
        assert co_reachable_set(chain_graph, "c") == {"a", "b", "c"}
        assert co_reachable_set(chain_graph, "a") == {"a"}

    def test_unknown_vertex(self, chain_graph):
        with pytest.raises(KeyError):
            reachable_set(chain_graph, "zz")
        with pytest.raises(KeyError):
            co_reachable_set(chain_graph, "zz")

    def test_disjoint_components(self):
        g = make_graph(
            vertices=tuple(component(v) for v in "abcxyz"),
            edges=(("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")),
            initial="a",
            terminal="c",
        )
        assert reachable_set(g, "a") == {"a", "b", "c"}
        assert reachable_set(g, "x") == {"x", "y", "z"}

    def test_exhaustive_three_vertex_graphs_match_closure(self):
        # All 64 digraphs on 3 labeled vertices (no self-edges).
        names = ("a", "b", "c")
        pairs = [(x, y) for x in names for y in names if x != y]
        for mask in range(2 ** len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            g = make_graph(
                vertices=tuple(component(v) for v in names),
                edges=edges,
                initial="a",
                terminal="c",
            )
            for start in names:
                assert reachable_set(g, start) == closure_reachable(g, start), (
                    mask,
                    start,
                )
            assert co_reachable_set(g, "c") == closure_co_reachable(g, "c"), mask

    def test_random_graphs_match_closure(self):
        rng = np.random.default_rng(20250817)
        for _ in range(40):
            n = int(rng.integers(4, 13))
            names = tuple(f"v{i}" for i in range(n))
            density = float(rng.uniform(0.05, 0.4))
            edges = tuple(
                (names[i], names[j])
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < density
            )
            g = make_graph(
                vertices=tuple(component(v) for v in names),
                edges=edges,
                initial=names[0],
                terminal=names[-1],
            )
            start = names[int(rng.integers(0, n))]
            assert reachable_set(g, start) == closure_reachable(g, start)
            target = names[int(rng.integers(0, n))]
            assert co_reachable_set(g, target) == closure_co_reachable(g, target)


class TestParse:
    def test_minimal_document(self):
        g = parse_attack_graph(json.dumps(MINIMAL_DOC))
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.initial == "A" and g.terminal == "B"

    def test_invalid_json(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            parse_attack_graph("{nope")

    def test_non_object_top_level(self):
        with pytest.raises(GraphFormatError):
            parse_attack_graph("[1, 2]")

    def test_wrong_version(self):
        with pytest.raises(GraphFormatError, match="version"):
            parse_attack_graph(doc_with(version="9"))

    def test_missing_field(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["terminal"]
        with pytest.raises(GraphFormatError, match="terminal"):
            parse_attack_graph(json.dumps(doc))

    def test_duplicate_ids(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["vertices"].append(dict(doc["vertices"][0]))
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_attack_graph(json.dumps(doc))

    def test_bad_kind_and_protocol_tokens(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["vertices"][0]["kind"] = "gadget"
        with pytest.raises(GraphFormatError, match="unknown vertex kind 'gadget'"):
            parse_attack_graph(json.dumps(doc))
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["vertices"][0]["firewall"] = {"blocked": ["carrier-pigeon"]}
        with pytest.raises(GraphFormatError, match="unknown protocol token"):
            parse_attack_graph(json.dumps(doc))

    def test_missing_cvss_defaults_with_warning(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["vertices"][1]["cvss"]
        with pytest.warns(GraphWarning, match="'B'") as record:
            g = parse_attack_graph(json.dumps(doc))
        # The warning points at the code that asked for the parse.
        assert [r.filename for r in record] == [__file__]
        assert g.vertex("B").cvss == DEFAULT_CVSS
        assert DEFAULT_CVSS.complexity is Complexity.HIGH
        assert DEFAULT_CVSS.base == 0.0 and DEFAULT_CVSS.exploitability == 0.0

    def test_strict_rejects_semantic_violations(self):
        bad = doc_with(edges=[["A", "Z"], ["A", "B"]])
        with pytest.raises(ValueError, match="'Z'") as exc_info:
            parse_attack_graph(bad)
        assert not isinstance(exc_info.value, GraphFormatError)
        g = parse_attack_graph(bad, strict=False)
        assert len(validate(g)) == 1

    def test_strict_rejects_unreachable_terminal(self):
        with pytest.raises(ValueError, match="unreachable"):
            parse_attack_graph(doc_with(edges=[]))


class TestRoundTrip:
    def test_field_order_stable(self, chain_graph):
        text = serialize_attack_graph(chain_graph)
        doc = json.loads(text)
        assert list(doc) == ["version", "initial", "terminal", "vertices", "edges"]
        assert text == serialize_attack_graph(chain_graph)
        assert text.endswith("\n")

    def test_round_trip_all_features(self):
        g = make_graph(
            vertices=(
                component("a", 1.5, 2.5, Complexity.LOW, label="entry box"),
                Vertex(
                    id="r1",
                    kind=VertexKind.RULE,
                    label='exploit "quoted"',
                    cvss=CvssAnnotation(3.0, 4.0, Complexity.MEDIUM),
                    firewall=FirewallAnnotation(
                        blocked=frozenset({Protocol.SSH, Protocol.FTP, Protocol.HTTP})
                    ),
                ),
                component("z", 9.9, 0.1, Complexity.HIGH),
            ),
            edges=(("a", "r1"), ("r1", "z"), ("a", "z")),
            initial="a",
            terminal="z",
        )
        parsed = parse_attack_graph(serialize_attack_graph(g))
        assert parsed == g
        assert hash(parsed) == hash(g)

    def test_firewall_serialized_in_canonical_order(self):
        g = make_graph(
            vertices=(
                component("a"),
                component("b", blocked=frozenset({Protocol.SSH, Protocol.FTP})),
            ),
            edges=(("a", "b"),),
            initial="a",
            terminal="b",
        )
        doc = json.loads(serialize_attack_graph(g))
        assert doc["vertices"][1]["firewall"]["blocked"] == ["ftp", "ssh"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_random_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=9), label="n")
        names = tuple(f"v{i}" for i in range(n))
        vertices = []
        for vid in names:
            scored = data.draw(st.booleans(), label=f"{vid}.scored")
            cvss = CvssAnnotation(
                base=data.draw(
                    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                    label=f"{vid}.base",
                ),
                exploitability=data.draw(
                    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                    label=f"{vid}.expl",
                ),
                complexity=data.draw(st.sampled_from(list(Complexity)), label=f"{vid}.cx"),
            )
            blocked = data.draw(
                st.frozensets(st.sampled_from(list(Protocol)), max_size=4),
                label=f"{vid}.fw",
            )
            vertices.append(
                Vertex(
                    id=vid,
                    kind=data.draw(st.sampled_from(list(VertexKind)), label=f"{vid}.kind"),
                    label=data.draw(
                        st.text(
                            alphabet=st.characters(codec="utf-8", exclude_categories=["Cs", "Cc"]),
                            max_size=12,
                        ),
                        label=f"{vid}.label",
                    ),
                    firewall=FirewallAnnotation(blocked=blocked) if blocked else None,
                    **({"cvss": cvss} if scored else {}),
                )
            )
        pairs = [(a, b) for a in names for b in names if a != b]
        edges = tuple(
            p for p in pairs if data.draw(st.booleans(), label=f"edge{p}")
        )
        g = make_graph(
            vertices=tuple(vertices), edges=edges, initial=names[0], terminal=names[-1]
        )
        # An unscored vertex is written with the default score, so parsing
        # it back neither warns nor differs.
        with warnings.catch_warnings():
            warnings.simplefilter("error", GraphWarning)
            assert parse_attack_graph(serialize_attack_graph(g), strict=False) == g


class TestExportDot:
    def test_minimal_render(self, chain_graph):
        dot = export_dot(chain_graph)
        assert dot.startswith("digraph attack_graph {")
        assert dot.count(" -> ") == 2
        assert 'peripheries=2' in dot  # initial and terminal double border
        assert dot == export_dot(chain_graph)

    def test_shapes_by_kind(self):
        g = make_graph(
            vertices=(
                component("a"),
                Vertex(id="r", kind=VertexKind.RULE, cvss=CvssAnnotation(1, 1, Complexity.LOW)),
            ),
            edges=(("a", "r"),),
            initial="a",
            terminal="r",
        )
        dot = export_dot(g)
        assert "shape=box" in dot and "shape=ellipse" in dot

    def test_highlight_colors_every_edge(self, chain_graph):
        dot = export_dot(chain_graph, highlight=["a", "b", "c"])
        assert dot.count('color="red"') == 2

    def test_highlight_unknown_vertex(self, chain_graph):
        with pytest.raises(ValueError, match="unknown vertex"):
            export_dot(chain_graph, highlight=["a", "zz"])

    def test_highlight_non_adjacent_step(self, chain_graph):
        with pytest.raises(ValueError, match="not an edge"):
            export_dot(chain_graph, highlight=["a", "c"])

    def test_firewall_in_label(self):
        g = make_graph(
            vertices=(
                component("a"),
                component("fw", blocked=frozenset({Protocol.FTP, Protocol.SSH})),
            ),
            edges=(("a", "fw"),),
            initial="a",
            terminal="fw",
        )
        assert "firewall blocks ftp,ssh" in export_dot(g)

    def test_label_escaping(self):
        tricky = component("a", label='say "hi" \\ and\nbreak')
        g = make_graph(
            vertices=(tricky, component("b")),
            edges=(("a", "b"),),
            initial="a",
            terminal="b",
        )
        dot = export_dot(g)
        assert '\\"hi\\"' in dot
        assert "\\\\ and\\nbreak" in dot
        # No raw newline may survive inside a quoted label.
        for line in dot.splitlines():
            assert line.count('"') % 2 == 0
