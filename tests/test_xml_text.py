"""The translators' XML writer against ElementTree, the serialization it
replaced: each document either translator writes is what ``ET.indent`` and
``ET.tostring`` write for the tree ElementTree reads back from it.
ElementTree is a test-only dependency; the package itself does not import it."""

from __future__ import annotations

import ast
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bpdmn import codegen_bpel, codegen_xpdl, validator
from bpdmn.codegen_bpel import GenerationError, XmlWriter
from bpdmn.expr import parse_expr, print_expr
from bpdmn.format import ParseError
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    Entity,
    Node,
    ObjectAttachment,
    Pool,
    SequenceFlow,
    Variable,
)

from conftest import FIXTURES, load
from randgen import random_diagram

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bpdmn").glob("*.py"))
TRANSLATORS = (codegen_bpel.to_bpel, codegen_xpdl.to_xpdl)


def reference_text(root: ET.Element) -> str:
    """The replaced serialization: ``ET.indent`` and ``ET.tostring``."""
    ET.indent(root, space="  ")
    text = ET.tostring(root, encoding="unicode", xml_declaration=False)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n"


def read_back(text: str) -> ET.Element:
    """The tree ElementTree reads from a document, comments kept."""
    return ET.fromstring(text.encode("utf-8"), ET.XMLParser(target=ET.TreeBuilder(insert_comments=True)))


# every character either escape rule rewrites, one neither rewrites, and non-ASCII text
ODD = "&<>\"'\n\t\r é"


def hostile_diagram() -> Diagram:
    """A valid diagram whose ids, names, guard and mapping expressions all
    hold ``ODD``; its BPEL has the store-field comment, a condition and an
    expression attribute, its XPDL a condition and an expression text."""
    literal = "'" + ODD.replace("'", "\\'") + "'"
    s, t1, x, t2, t3, e = (prefix + ODD for prefix in ("s", "t1", "x", "t2", "t3", "e"))
    nodes = [
        Node(s, "start " + ODD, "start_event_none"),
        Node(t1, "task one " + ODD, "task"),
        Node(x, "split " + ODD, "gateway_exclusive_data"),
        Node(t2, "task two " + ODD, "task"),
        Node(t3, "task three " + ODD, "task"),
        Node(e, "end " + ODD, "end_event"),
    ]
    guard = parse_expr(f"A.s = {literal} and A.n > 1")
    flows = [
        SequenceFlow("f1" + ODD, s, t1),
        SequenceFlow("f2" + ODD, t1, x, [ObjectAttachment("A", "output")]),
        SequenceFlow("f3" + ODD, x, t2, [ObjectAttachment("B", "input")], guard=guard),
        SequenceFlow("f4" + ODD, x, t3),
        SequenceFlow("f5" + ODD, t2, e),
        SequenceFlow("f6" + ODD, t3, e),
    ]
    objects = [
        DataObject("A", "object " + ODD, variables=[Variable("s", "string"), Variable("n", "number")]),
        DataObject("B", "object " + ODD, variables=[Variable("s", "string"), Variable("t", "string")]),
    ]
    mapping = DataMapping(
        "m" + ODD, "A", "B", [CopyRule(parse_expr("A.s"), "s"), CopyRule(parse_expr(literal), "t")]
    )
    store = DataStore("st" + ODD, "store " + ODD, entities=[Entity("E" + ODD, [Variable("v", "number")])])
    return Diagram(
        "d" + ODD,
        pools=[Pool("p" + ODD, "pool " + ODD, nodes, flows)],
        stores=[store],
        objects=objects,
        mappings=[mapping],
    )


def _valid_fixtures() -> list[str]:
    paths = []
    for path in sorted(FIXTURES.rglob("*.bpdmn.json")):
        relpath = path.relative_to(FIXTURES).as_posix()
        try:
            diagram = load(relpath)
        except ParseError:
            continue
        if not validator.has_errors(validator.validate(diagram)):
            paths.append(relpath)
    return paths


VALID_FIXTURES = _valid_fixtures()
VALID_RANDOM_SEEDS = [
    seed for seed in range(60) if not validator.has_errors(validator.validate(random_diagram(seed)))
]


def _assert_same_as_elementtree(diagram: Diagram) -> None:
    for translate in TRANSLATORS:
        text, _ = translate(diagram)
        assert text == reference_text(read_back(text))


@pytest.mark.parametrize("relpath", VALID_FIXTURES)
def test_fixture_text_equals_elementtree(relpath):
    _assert_same_as_elementtree(load(relpath))


@pytest.mark.parametrize("seed", VALID_RANDOM_SEEDS)
def test_random_diagram_text_equals_elementtree(seed):
    _assert_same_as_elementtree(random_diagram(seed))


def _written_model_strings(diagram: Diagram) -> set[str]:
    """The strings of the hostile diagram a translator writes as an attribute
    value or element text: ids, names and printed expressions, and the two
    strings composed of them (a store field's variable, a task's application)."""
    (pool,), (mapping,), (store,) = diagram.pools, diagram.mappings, diagram.stores
    return {
        diagram.id,
        pool.id,
        pool.name,
        mapping.id,
        *(string for node in pool.nodes for string in (node.id, node.name, f"{node.id}_application")),
        *(flow.id for flow in pool.sequence_flows),
        *(print_expr(flow.guard) for flow in pool.sequence_flows if flow.guard is not None),
        *(print_expr(rule.from_expr) for rule in mapping.rules),
        *(obj.name for obj in diagram.objects),
        *(f"{store.id}.{entity.name}.{fld.name}" for entity in store.entities for fld in entity.fields),
    }


def test_escaped_text_equals_elementtree():
    diagram = hostile_diagram()
    assert validator.validate(diagram) == []
    model_strings = _written_model_strings(diagram)
    for translate in TRANSLATORS:
        text, _ = translate(diagram)
        # ElementTree writes a carriage return in element text raw, which a parser reads as a line feed
        assert text == reference_text(read_back(text)).replace("\r", "&#13;")
        assert '="d&amp;&lt;&gt;&quot;\'&#10;&#09;&#13; é"' in text
        assert "&amp;&lt;&gt;\"\\'\n\t&#13; é" in text  # a guard, as element text
        root = read_back(text)
        written = [value for el in root.iter() for value in (el.text, *el.attrib.values()) if value and "é" in value]
        assert written and set(written) <= model_strings
    bpel, _ = codegen_bpel.to_bpel(diagram)
    assert "<!-- store-backed variable, element type number -->" in bpel


def test_an_element_without_children_or_text_is_self_closing():
    out = XmlWriter()
    out.open("a", {"k": "v"})
    out.open("b")
    out.close()
    out.comment(" c ")
    out.leaf("d", text="t")
    out.leaf("e", {"k": ""}, "")
    out.close()
    assert out.text() == '<?xml version="1.0" encoding="UTF-8"?>\n<a k="v">\n  <b />\n  <!-- c -->\n  <d>t</d>\n  <e k="" />\n</a>\n'


NOT_IN_XML = [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF]


@pytest.mark.parametrize("code", NOT_IN_XML, ids=lambda c: f"U+{c:04X}")
@pytest.mark.parametrize("place", ["attribute", "text"])
def test_a_character_xml_cannot_carry_is_refused(code, place):
    out = XmlWriter()
    out.open("process")
    if place == "attribute":
        out.leaf("step", {"name": f"bad{chr(code)}name"})
    else:
        out.leaf("step", {"name": "ok"}, f"bad{chr(code)}name")
    out.close()
    with pytest.raises(GenerationError, match=rf"U\+{code:04X} \(output line 3: '<step "):
        out.text()


@pytest.mark.parametrize("code", [0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000], ids=lambda c: f"U+{c:04X}")
def test_a_character_xml_carries_is_written(code):
    out = XmlWriter()
    out.leaf("process", {"name": f"a{chr(code)}b"}, f"a{chr(code)}b")
    root = ET.fromstring(out.text().encode("utf-8"))
    assert root.get("name") == root.text == f"a{chr(code)}b"


def test_the_package_does_not_import_elementtree():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m == "xml.etree" or m.startswith("xml.etree.") for m in modules), path.name
