"""The translators' one-pass XML writer against the ElementTree serialization
it replaced: the same bytes for every tree either translator builds."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from bpdmn import codegen_bpel, codegen_xpdl, validator
from bpdmn.codegen_bpel import xml_text
from bpdmn.expr import parse_expr
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


def reference_text(root: ET.Element) -> str:
    """The replaced serialization: ``ET.indent`` and ``ET.tostring``."""
    ET.indent(root, space="  ")
    text = ET.tostring(root, encoding="unicode", xml_declaration=False)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n"


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


def _assert_same_as_elementtree(diagram: Diagram, monkeypatch) -> list[str]:
    texts = []
    for module, translate in ((codegen_bpel, codegen_bpel.to_bpel), (codegen_xpdl, codegen_xpdl.to_xpdl)):
        trees = []

        def keep_tree(root: ET.Element) -> str:
            trees.append(root)
            return xml_text(root)

        monkeypatch.setattr(module, "xml_text", keep_tree)
        text, _ = translate(diagram)
        assert len(trees) == 1
        assert text == reference_text(trees[0])
        texts.append(text)
    return texts


@pytest.mark.parametrize("relpath", VALID_FIXTURES)
def test_fixture_text_equals_elementtree(relpath, monkeypatch):
    _assert_same_as_elementtree(load(relpath), monkeypatch)


@pytest.mark.parametrize("seed", VALID_RANDOM_SEEDS)
def test_random_diagram_text_equals_elementtree(seed, monkeypatch):
    _assert_same_as_elementtree(random_diagram(seed), monkeypatch)


def test_escaped_text_equals_elementtree(monkeypatch):
    diagram = hostile_diagram()
    assert validator.validate(diagram) == []
    bpel, xpdl = _assert_same_as_elementtree(diagram, monkeypatch)
    assert "<!-- store-backed variable, element type number -->" in bpel
    for text in (bpel, xpdl):
        assert '="d&amp;&lt;&gt;&quot;\'&#10;&#09;&#13; é"' in text
        assert "&amp;&lt;&gt;\"\\'\n\t\r é" in text  # a guard, as element text
        ET.fromstring(text.encode("utf-8"))  # raises if malformed


NOT_IN_XML = [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF]


@pytest.mark.parametrize("code", NOT_IN_XML, ids=lambda c: f"U+{c:04X}")
@pytest.mark.parametrize("place", ["attribute", "text"])
def test_a_character_xml_cannot_carry_is_refused(code, place):
    root = ET.Element("process")
    child = ET.SubElement(root, "step", name="ok")
    if place == "attribute":
        child.set("name", f"bad{chr(code)}name")
    else:
        child.text = f"bad{chr(code)}name"
    with pytest.raises(codegen_bpel.GenerationError, match=rf"U\+{code:04X} \(output line 3: '<step "):
        xml_text(root)


@pytest.mark.parametrize("code", [0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000], ids=lambda c: f"U+{c:04X}")
def test_a_character_xml_carries_is_written(code):
    root = ET.Element("process", name=f"a{chr(code)}b")
    root.text = f"a{chr(code)}b"
    assert ET.fromstring(xml_text(root).encode("utf-8")).get("name") == f"a{chr(code)}b"
