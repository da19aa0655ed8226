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
from bpdmn.codegen_bpel import GenerationError, XmlWriter, element, escape_attribute, escape_attributes, escape_text
from bpdmn.expr import BoolOp, Cmp, Lit, Ref, print_expr
from bpdmn.format import ParseError
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    Entity,
    MessageFlow,
    Node,
    ObjectAttachment,
    Pool,
    Scope,
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
    """A valid diagram whose every id, name, variable name and expression
    holds ``ODD``. Its BPEL has the store-field comment, a flow of two pools,
    a condition, copies from a variable part and from an expression, and an
    invoke, a receive starting the second pool, a reply and a receive of an
    intermediate message event. Its XPDL has a condition, assignment targets
    and expressions, actual parameters, a message carrying an object, and a
    sub-process declaring the fields of the store scoped to it."""
    s, t1, w, x, t2, t3, sp, e, ms, r, me = (
        prefix + ODD for prefix in ("s", "t1", "w", "x", "t2", "t3", "sp", "e", "ms", "r", "me")
    )
    a, b, c, vs, vn, vt = (prefix + ODD for prefix in ("A", "B", "C", "s", "n", "t"))
    # the parser reads no such identifier: the expressions are built, not parsed
    guard = BoolOp("and", Cmp("=", Ref((a, vs)), Lit(ODD)), Cmp(">", Ref((a, vn)), Lit(1)))
    nodes = [
        Node(s, "start " + ODD, "start_event_none"),
        Node(t1, "task one " + ODD, "task"),
        Node(w, "wait " + ODD, "intermediate_message"),
        Node(x, "split " + ODD, "gateway_exclusive_data"),
        Node(t2, "task two " + ODD, "task"),
        Node(t3, "task three " + ODD, "task"),
        Node(sp, "block " + ODD, "sub_process"),
        Node(e, "end " + ODD, "end_event"),
    ]
    flows = [
        SequenceFlow("f1" + ODD, s, t1),
        SequenceFlow("f2" + ODD, t1, w, [ObjectAttachment(a, "output")]),
        SequenceFlow("f3" + ODD, w, x),
        SequenceFlow("f4" + ODD, x, t2, [ObjectAttachment(b, "input")], guard=guard),
        SequenceFlow("f5" + ODD, x, t3),
        SequenceFlow("f6" + ODD, t2, sp),
        SequenceFlow("f7" + ODD, t3, sp),
        SequenceFlow("f8" + ODD, sp, e),
    ]
    # the second pool answers the first: started by t1's message, it replies to w
    answer = [
        Node(ms, "request " + ODD, "start_event_message"),
        Node(r, "answer " + ODD, "task"),
        Node(me, "end " + ODD, "end_event"),
    ]
    answer_flows = [
        SequenceFlow("g1" + ODD, ms, r, [ObjectAttachment(c, "output")]),
        SequenceFlow("g2" + ODD, r, me, [ObjectAttachment(c, "output")]),
    ]
    objects = [
        DataObject(a, "object " + ODD, variables=[Variable(vs, "string"), Variable(vn, "number")]),
        DataObject(b, "object " + ODD, variables=[Variable(vs, "string"), Variable(vt, "string")]),
        DataObject(c, "object " + ODD, variables=[Variable(vs, "string")]),
    ]
    mapping = DataMapping("m" + ODD, a, b, [CopyRule(Ref((a, vs)), vs), CopyRule(Lit(ODD), vt)])
    stores = [
        DataStore("st" + ODD, "store " + ODD, entities=[Entity("E" + ODD, [Variable("v" + ODD, "number")])]),
        DataStore(
            "ls" + ODD,
            "local " + ODD,
            entities=[Entity("L" + ODD, [Variable("u" + ODD, "string")])],
            scope=Scope("sub_process", sp),
        ),
    ]
    return Diagram(
        "d" + ODD,
        pools=[Pool("p" + ODD, "pool " + ODD, nodes, flows), Pool("q" + ODD, "pool " + ODD, answer, answer_flows)],
        stores=stores,
        objects=objects,
        mappings=[mapping],
        message_flows=[
            MessageFlow("mf1" + ODD, t1, ms, [ObjectAttachment(c, "output")]),
            MessageFlow("mf2" + ODD, r, w),
        ],
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
    value or element text: ids, names, variable names and printed
    expressions, and the strings composed of them (a store field's variable,
    a task's application, an object's parameter, an assignment's target)."""
    nodes = [node for pool in diagram.pools for node in pool.iter_nodes()]
    flows = [flow for pool in diagram.pools for flow in pool.sequence_flows]
    return {
        diagram.id,
        *(string for pool in diagram.pools for string in (pool.id, pool.name)),
        *(string for node in nodes for string in (node.id, node.name, f"{node.id}_application")),
        *(flow.id for flow in (*flows, *diagram.message_flows)),
        *(print_expr(flow.guard) for flow in flows if flow.guard is not None),
        *(string for obj in diagram.objects for string in (obj.id, obj.name)),
        *(string for obj in diagram.objects for var in obj.variables for string in (var.name, f"{obj.id}.{var.name}")),
        *(mapping.id for mapping in diagram.mappings),
        *(print_expr(rule.from_expr) for mapping in diagram.mappings for rule in mapping.rules),
        *(f"{mapping.target_object}.{rule.to}" for mapping in diagram.mappings for rule in mapping.rules),
        *(
            string
            for store in diagram.stores
            for entity in store.entities
            for fld in entity.fields
            for string in (fld.name, f"{store.id}.{entity.name}.{fld.name}")
        ),
    }


# where the hostile diagram's strings land, as the element's path of up to
# three tags, then @attribute, or nothing for element text: every place either
# translator writes a string of the model
HOSTILE_SITES = {
    codegen_bpel.to_bpel: {
        "process@name",
        "process/variables/variable@name",
        "process/variables/variable@messageType",
        "process/flow/sequence@name",
        "flow/sequence/invoke@name",
        "flow/sequence/invoke@outputVariable",
        "flow/sequence/receive@name",
        "flow/sequence/receive@variable",
        "flow/sequence/reply@name",
        "flow/sequence/reply@variable",
        "flow/sequence/if@name",
        "sequence/if/condition",
        "if/sequence/assign@name",
        "assign/copy/from@variable",
        "assign/copy/from@part",
        "assign/copy/from@expression",
        "assign/copy/to@variable",
        "assign/copy/to@part",
        "if/sequence/invoke@name",
        "if/sequence/invoke@inputVariable",
        "else/sequence/invoke@name",
    },
    codegen_xpdl.to_xpdl: {
        "Package@Id",
        "Package@Name",
        "Package/DataFields/DataField@Id",
        "Package/DataFields/DataField@Name",
        "Package/DataObjects/DataObject@Id",
        "Package/DataObjects/DataObject@Name",
        "DataObject/DataFields/DataField@Id",
        "Package/Messages/Message@Id",
        "Package/Messages/Message@From",
        "Package/Messages/Message@To",
        "Messages/Message/DataObject@Id",
        "Package/WorkflowProcesses/WorkflowProcess@Id",
        "Package/WorkflowProcesses/WorkflowProcess@Name",
        "WorkflowProcess/Activities/Activity@Id",
        "WorkflowProcess/Activities/Activity@Name",
        "Activity/DataFields/DataField@Id",
        "Activity/DataFields/DataField@Name",
        "InputSets/InputSet/Input@ArtifactId",
        "OutputSets/OutputSet/Output@ArtifactId",
        "Implementation/Task/TaskApplication@Id",
        "TaskApplication/ActualParameters/ActualParameter",
        "Activities/Activity/Assignments@Id",
        "Assignments/Assignment/Target",
        "Assignments/Assignment/Expression",
        "WorkflowProcess/Transitions/Transition@Id",
        "WorkflowProcess/Transitions/Transition@From",
        "WorkflowProcess/Transitions/Transition@To",
        "Transitions/Transition/Condition",
    },
}


def _sites_holding(root: ET.Element, mark: str) -> set[str]:
    """The places in *root*, keyed as in ``HOSTILE_SITES``, whose attribute
    value or text holds *mark*."""
    sites = set()

    def walk(el: ET.Element, path: str) -> None:
        sites.update(f"{path}@{key}" for key, value in el.attrib.items() if mark in value)
        if el.text and mark in el.text:
            sites.add(path)
        for child in el:
            if child.tag is not ET.Comment:
                walk(child, "/".join([*path.split("/")[-2:], child.tag]))

    walk(root, root.tag)
    return sites


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
        assert _sites_holding(root, "é") == HOSTILE_SITES[translate]
    bpel, _ = codegen_bpel.to_bpel(diagram)
    assert "<!-- store-backed variable, element type number -->" in bpel


def _replace_chain(value: str, escapes: tuple[tuple[str, str], ...]) -> str:
    for char, reference in escapes:
        value = value.replace(char, reference)
    return value


@pytest.mark.parametrize(
    "value", [*(f"a{char}b" for char, _ in codegen_bpel._ATTRIBUTE_ESCAPES), ODD, "t001", ""], ids=repr
)
def test_escaping_writes_what_the_replace_chain_of_its_table_writes(value):
    assert escape_attribute(value) == _replace_chain(value, codegen_bpel._ATTRIBUTE_ESCAPES)
    assert escape_text(value) == _replace_chain(value, codegen_bpel._TEXT_ESCAPES)
    assert escape_attributes(["t002", value]) == {"t002": "t002", value: escape_attribute(value)}
    if value.isalnum():  # nothing to escape: the string itself comes back
        assert escape_attribute(value) is value and escape_text(value) is value


def test_an_element_without_children_or_text_is_self_closing():
    out = XmlWriter()
    out.open("a", ' k="v"')
    out.open("b")
    out.close()
    i = out.indent
    out.run(f"{i}<d>t</d>")
    out.open("e", ' k=""')
    out.close()
    out.open("f")
    out.run("")  # an empty run adds no child
    out.close()
    out.run(element(i, "g", ' k="v"', "") + element(i, "h", "", element(i + "  ", "j", "", "")))
    out.close()
    assert out.text() == (
        '<?xml version="1.0" encoding="UTF-8"?>\n<a k="v">\n  <b />\n  <d>t</d>\n  <e k="" />\n'
        '  <f />\n  <g k="v" />\n  <h>\n    <j />\n  </h>\n</a>\n'
    )


NOT_IN_XML = [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF]


@pytest.mark.parametrize("code", NOT_IN_XML, ids=lambda c: f"U+{c:04X}")
@pytest.mark.parametrize("place", ["attribute", "text"])
def test_a_character_xml_cannot_carry_is_refused(code, place):
    out = XmlWriter()
    out.open("process")
    if place == "attribute":
        out.open("step", f' name="{escape_attribute(f"bad{chr(code)}name")}"')
        out.close()
    else:
        out.run(f'{out.indent}<step name="ok">{escape_text(f"bad{chr(code)}name")}</step>')
    out.close()
    with pytest.raises(GenerationError, match=rf"U\+{code:04X} \(output line 3: '<step "):
        out.text()


@pytest.mark.parametrize("code", [0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000], ids=lambda c: f"U+{c:04X}")
def test_a_character_xml_carries_is_written(code):
    value = f"a{chr(code)}b"
    out = XmlWriter()
    out.run(f'{out.indent}<process name="{escape_attribute(value)}">{escape_text(value)}</process>')
    root = ET.fromstring(out.text().encode("utf-8"))
    assert root.get("name") == root.text == value


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
