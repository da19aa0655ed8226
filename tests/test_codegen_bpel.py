from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from bpdmn import validator
from bpdmn.codegen_bpel import GenerationError, to_bpel
from bpdmn.codegen_xpdl import to_xpdl
from bpdmn.expr import parse_expr
from bpdmn.format import ParseError, parse_diagram, serialize_diagram
from bpdmn.model import DataObject, DataStore, Diagram, Entity, ModelError, Node, Pool, SequenceFlow, Variable
from bpdmn.simulator import run

from conftest import load, run_cli
from randgen import random_regions


@pytest.fixture
def travel_bpel(travel):
    xml, warnings = to_bpel(travel)
    return ET.fromstring(xml), warnings


def test_output_is_well_formed(travel, eco):
    for diagram in (travel, eco):
        xml, _ = to_bpel(diagram)
        assert xml.startswith('<?xml version="1.0"')
        ET.fromstring(xml)  # raises if malformed


def test_variables_use_message_names(travel_bpel):
    root, _ = travel_bpel
    variables = {
        v.get("name"): v.get("messageType")
        for v in root.find("variables")
        if v.get("messageType")
    }
    assert variables["input"] == "input"
    assert variables["request"] == "doCreditCardCheckingRequest"
    assert variables["response"] == "doCreditCardCheckingResponse"


def test_store_fields_become_element_variables(travel_bpel):
    root, _ = travel_bpel
    names = {v.get("name") for v in root.find("variables")}
    assert {"arch_db.Reservation.hotel", "arch_db.Reservation.car", "arch_db.Reservation.flight"} <= names


def test_mapping_becomes_assign_with_copies(travel_bpel):
    root, _ = travel_bpel
    assign = root.find(".//assign[@name='dm1']")
    assert assign is not None
    copies = assign.findall("copy")
    assert len(copies) == 2
    pairs = {
        (c.find("from").get("part"), c.find("to").get("part")) for c in copies
    }
    assert pairs == {("cardNumber", "cardNumber"), ("cardType", "cardType")}
    for c in copies:
        assert c.find("from").get("variable") == "input"
        assert c.find("to").get("variable") == "request"


def test_task_becomes_invoke_with_io_variables(travel_bpel):
    root, _ = travel_bpel
    invoke = root.find(".//invoke[@name='Check Credit Card']")
    assert invoke is not None
    assert invoke.get("inputVariable") == "request"
    assert invoke.get("outputVariable") == "response"


def test_assign_precedes_its_invoke(travel_bpel):
    root, _ = travel_bpel
    seq = root.find("sequence")
    names = [child.get("name") for child in seq]
    assert names.index("dm1") < names.index("Check Credit Card")


def test_parallel_gateway_becomes_flow(travel_bpel):
    root, _ = travel_bpel
    flow = root.find(".//flow[@name='Split']")
    assert flow is not None
    invokes = {i.get("name") for i in flow.iter("invoke")}
    assert invokes == {
        "Check Hotel Reservation",
        "Check Car Reservation",
        "Check Flight Reservation",
    }


def test_exclusive_gateway_becomes_if(travel_bpel):
    root, _ = travel_bpel
    if_el = root.find(".//if")
    assert if_el is not None
    assert if_el.find("condition").text == "response.valid"
    assert if_el.find("else") is not None


def test_message_start_becomes_receive(travel_bpel):
    root, _ = travel_bpel
    receive = root.find(".//receive[@name='Receive Travel Request']")
    assert receive is not None
    assert receive.get("createInstance") == "yes"
    assert receive.get("variable") == "input"


def test_message_flow_objects_warn(eco):
    _, warnings = to_bpel(eco)
    assert any("Order_ID" in w and "mf1" in w for w in warnings)
    assert len(warnings) == len(set(warnings))


def test_invalid_diagram_is_refused():
    with pytest.raises(GenerationError):
        to_bpel(load("validator/bad_v1.bpdmn.json"))


def _pool_diagram(kinds: dict[str, str], edges: list[tuple[str, ...]]) -> Diagram:
    """One pool whose nodes are the endpoints of *edges*, each ``(source,
    target)`` or ``(source, target, guard)``; a node not named in *kinds* is
    a task."""
    ids = list(dict.fromkeys(n for edge in edges for n in edge[:2]))
    nodes = [Node(i, i, kinds.get(i, "task")) for i in ids]
    flows = [
        SequenceFlow(f"f{k}", a, b, guard=parse_expr(guard[0]) if guard else None)
        for k, (a, b, *guard) in enumerate(edges)
    ]
    return Diagram("diagram", pools=[Pool("p", "P", nodes, flows)])


def _one_pool(kinds: dict[str, str], edges: list[tuple[str, ...]]) -> Diagram:
    """:func:`_pool_diagram`, which must validate clean."""
    diagram = _pool_diagram(kinds, edges)
    assert validator.validate(diagram) == []
    return diagram


def test_task_chosen_as_join_follows_the_flow():
    # a and b join at g2 before d, c goes straight to d: d is the split's join
    diagram = _one_pool(
        {"s": "start_event_none", "g1": "gateway_parallel", "g2": "gateway_parallel", "end": "end_event"},
        [("s", "g1"), ("g1", "a"), ("g1", "b"), ("g1", "c"), ("a", "g2"), ("b", "g2"), ("g2", "d"), ("c", "d"), ("d", "e"), ("e", "end")],
    )
    xml, warnings = to_bpel(diagram)
    root = ET.fromstring(xml)
    assert len(root.findall(".//invoke[@name='d']")) == 1
    assert [(child.tag, child.get("name")) for child in root.find("sequence")] == [
        ("flow", "g1"),
        ("invoke", "d"),
        ("invoke", "e"),
    ]
    assert warnings == []


def test_task_left_out_of_the_skeleton_is_named():
    # no start reaches b, so the skeleton, which follows the flows from a start, leaves it out
    diagram = _one_pool(
        {"s": "start_event_none", "e1": "end_event", "e2": "end_event"},
        [("s", "a"), ("a", "e1"), ("b", "e2")],
    )
    xml, warnings = to_bpel(diagram)
    assert ET.fromstring(xml).find(".//invoke[@name='b']") is None
    assert warnings == ["task b of pool p is not reached by the BPEL control skeleton; skipped"]


def test_sub_process_child_left_out_of_the_skeleton_is_named():
    # the skeleton writes sp as one invoke: the task inside it is not in the BPEL
    sub_process = Node("sp", "sp", "sub_process", children=[Node("c1", "c1", "task")])
    nodes = [Node("s", "s", "start_event_none"), sub_process, Node("e", "e", "end_event")]
    flows = [SequenceFlow("f0", "s", "sp"), SequenceFlow("f1", "sp", "e")]
    diagram = Diagram("diagram", pools=[Pool("p", "P", nodes, flows)])
    assert validator.validate(diagram) == []
    xml, warnings = to_bpel(diagram)
    assert ET.fromstring(xml).find(".//invoke[@name='c1']") is None
    assert warnings == ["task c1 of pool p is not reached by the BPEL control skeleton; skipped"]


def _unreached_intermediate_message() -> Diagram:
    # m1 starts no chain and no flow reaches it
    nodes = [
        Node("s", "s", "start_event_none"),
        Node("e", "e", "end_event"),
        Node("m1", "m1", "intermediate_message"),
        Node("e2", "e2", "end_event"),
    ]
    flows = [SequenceFlow("f0", "s", "e"), SequenceFlow("f1", "m1", "e2")]
    return Diagram("diagram", pools=[Pool("p", "P", nodes, flows)])


def _intermediate_message_in_a_sub_process() -> Diagram:
    # the skeleton writes sp as one invoke, not the receive inside it
    sub_process = Node("sp", "sp", "sub_process", children=[Node("m1", "m1", "intermediate_message")])
    nodes = [Node("s", "s", "start_event_none"), sub_process, Node("e", "e", "end_event")]
    flows = [SequenceFlow("f0", "s", "sp"), SequenceFlow("f1", "sp", "e")]
    return Diagram("diagram", pools=[Pool("p", "P", nodes, flows)])


@pytest.mark.parametrize("build", [_unreached_intermediate_message, _intermediate_message_in_a_sub_process])
def test_intermediate_message_left_out_of_the_skeleton_is_named(build):
    diagram = build()
    assert validator.validate(diagram) == []
    xml, warnings = to_bpel(diagram)
    assert ET.fromstring(xml).find(".//receive[@name='m1']") is None
    assert warnings == ["intermediate-message m1 of pool p is not reached by the BPEL control skeleton; skipped"]


def test_second_default_flow_of_an_exclusive_gateway_is_refused(tmp_path):
    # BPEL has one <else> and the simulator takes one default: b would never run
    diagram = _pool_diagram(
        {"s": "start_event_none", "x": "gateway_exclusive_data", "e1": "end_event", "e2": "end_event"},
        [("s", "x"), ("x", "a"), ("x", "b"), ("a", "e1"), ("b", "e2")],
    )
    model = tmp_path / "two_defaults.bpdmn.json"
    model.write_text(serialize_diagram(diagram), encoding="utf-8")
    result = run_cli("validate", str(model))
    assert result.code == 1
    assert result.out == "V7 error x: exclusive gateway has more than one unguarded flow: f1, f2\n"
    assert result.err == ""
    result = run_cli("translate", str(model), "--to", "bpel")
    assert result.code == 1
    assert "Traceback" not in result.out + result.err


EXCLUSIVE, PARALLEL = "gateway_exclusive_data", "gateway_parallel"


def _body(diagram: Diagram) -> list[tuple[str, str | None]]:
    """The tag and name of each activity of the pool's top-level sequence."""
    xml, warnings = to_bpel(diagram)
    assert warnings == []
    return [(child.tag, child.get("name")) for child in ET.fromstring(xml).find("sequence")]


def _translate(tmp_path, diagram: Diagram):
    model = tmp_path / "model.bpdmn.json"
    model.write_text(serialize_diagram(diagram), encoding="utf-8")
    return run_cli("translate", str(model), "--to", "bpel")


def _depth(element: ET.Element) -> int:
    return 1 + max((_depth(child) for child in element), default=0)


def test_exclusive_merge_writes_nothing_and_every_if_opens_with_its_condition():
    diagram = _one_pool(
        {"s": "start_event_none", "x": EXCLUSIVE, "m": EXCLUSIVE, "e": "end_event"},
        [("s", "x"), ("x", "a", "true"), ("x", "b"), ("a", "m"), ("b", "m"), ("m", "d"), ("d", "e")],
    )
    assert _body(diagram) == [("if", "x"), ("invoke", "d")]
    root = ET.fromstring(to_bpel(diagram)[0])
    assert [el.get("name") for el in root.iter("if")] == ["x"]
    if_el = root.find(".//if")
    assert [child.tag for child in if_el] == ["condition", "sequence", "else"]
    assert if_el.find("sequence/invoke").get("name") == "a"
    assert if_el.find("else/sequence/invoke").get("name") == "b"


def _diamonds(count: int) -> Diagram:
    """*count* exclusive split/merge diamonds in a row."""
    edges, kinds, previous = [], {"s": "start_event_none", "e": "end_event"}, "s"
    for i in range(count):
        x, m = f"x{i}", f"m{i}"
        kinds[x] = kinds[m] = EXCLUSIVE
        edges += [(previous, x), (x, f"a{i}", "true"), (x, f"b{i}"), (f"a{i}", m), (f"b{i}", m)]
        previous = m
    return _pool_diagram(kinds, [*edges, (previous, "e")])


def test_sequential_diamonds_grow_the_output_linearly_at_a_fixed_depth(tmp_path):
    results = [_translate(tmp_path, _diamonds(count)) for count in (100, 200)]
    assert [result.code for result in results] == [0, 0]
    assert [result.err for result in results] == ["", ""]
    hundred, two_hundred = (result.out for result in results)
    assert len(two_hundred) <= 2.1 * len(hundred)
    assert _depth(ET.fromstring(two_hundred)) == _depth(ET.fromstring(hundred))


def test_what_follows_a_parallel_join_comes_after_the_flow_not_inside_a_branch():
    diagram = _one_pool(
        {"s": "start_event_none", "g": PARALLEL, "x": EXCLUSIVE, "m": EXCLUSIVE, "j": PARALLEL, "e": "end_event"},
        [
            ("s", "g"), ("g", "x"), ("g", "c"), ("x", "a", "true"), ("x", "b"), ("a", "m"), ("b", "m"),
            ("m", "j"), ("c", "j"), ("j", "d"), ("d", "e"),
        ],
    )
    assert _body(diagram) == [("flow", "g"), ("invoke", "d")]
    assert len(ET.fromstring(to_bpel(diagram)[0]).findall(".//invoke[@name='d']")) == 1


def test_a_join_that_splits_again_writes_a_second_flow():
    diagram = _one_pool(
        {"s": "start_event_none", "g": PARALLEL, "j": PARALLEL, "k": PARALLEL, "e": "end_event"},
        [("s", "g"), ("g", "a"), ("g", "b"), ("a", "j"), ("b", "j"), ("j", "c"), ("j", "d"), ("c", "k"), ("d", "k"), ("k", "e")],
    )
    assert _body(diagram) == [("flow", "g"), ("flow", "j")]
    flows = ET.fromstring(to_bpel(diagram)[0]).findall(".//flow")
    assert [{i.get("name") for i in flow.iter("invoke")} for flow in flows] == [{"a", "b"}, {"c", "d"}]


def test_a_three_way_exclusive_split_writes_elseif():
    diagram = _one_pool(
        {"s": "start_event_none", "x": EXCLUSIVE, "m": EXCLUSIVE, "e": "end_event"},
        [("s", "x"), ("x", "a", "false"), ("x", "b", "true"), ("x", "c"), ("a", "m"), ("b", "m"), ("c", "m"), ("m", "e")],
    )
    if_el = ET.fromstring(to_bpel(diagram)[0]).find(".//if")
    assert [child.tag for child in if_el] == ["condition", "sequence", "elseif", "else"]
    assert [(c.find("condition").text, c.find("sequence/invoke").get("name")) for c in if_el.iter("elseif")] == [("true", "b")]
    assert if_el.find("else/sequence/invoke").get("name") == "c"


def _nested_splits(depth: int, kind: str) -> Diagram:
    """*depth* splits of *kind*, each into a task and the next split (the
    innermost into a task and ``c``), each closed by a join of its own."""
    guard = ("true",) if kind == EXCLUSIVE else ()
    kinds = {"s": "start_event_none", "e": "end_event"}
    edges = [("s", "g0"), ("j0", "e")]
    for i in range(depth):
        kinds[f"g{i}"] = kinds[f"j{i}"] = kind
        inner, inner_exit = (f"g{i + 1}", f"j{i + 1}") if i + 1 < depth else ("c", "c")
        edges += [(f"g{i}", f"t{i}", *guard), (f"g{i}", inner), (f"t{i}", f"j{i}"), (inner_exit, f"j{i}")]
    return _pool_diagram(kinds, edges)


@pytest.mark.parametrize("kind", [EXCLUSIVE, PARALLEL])
def test_four_hundred_nested_splits_translate(tmp_path, kind):
    result = _translate(tmp_path, _nested_splits(400, kind))
    assert (result.code, result.err) == (0, "")
    assert result.out.count("<invoke ") == 401


def test_splits_nested_past_the_recursion_limit_are_refused_without_a_traceback(tmp_path):
    result = _translate(tmp_path, _nested_splits(1200, PARALLEL))
    assert result.code == 1
    assert result.out == ""
    assert result.err == "error: pool p: splits nest too deeply for the BPEL control skeleton\n"


def test_variable_name_collision_is_refused():
    # field f of entity E.x of store s and field f of entity x of store s.E
    # would both map to the variable 's.E.x.f', so a store id and an entity
    # name, like an object id, may hold no dot: built in code and read from
    # text, the model is refused before any translator sees it
    with pytest.raises(ModelError, match=r"entity E\.x: an entity name may not contain '\.'"):
        Entity("E.x", [Variable("f", "string")])
    with pytest.raises(ModelError, match=r"store s\.E: a store id may not contain '\.'"):
        DataStore("s.E", "S2", entities=[Entity("x", [Variable("f", "string")])])
    stores = [
        DataStore("s", "S", entities=[Entity("Ex", [Variable("f", "string")])]),
        DataStore("sE", "S2", entities=[Entity("x", [Variable("f", "string")])]),
    ]
    text = serialize_diagram(Diagram("d", stores=stores))
    for old, new, message in (
        ('"name": "Ex"', '"name": "E.x"', "entity E.x: an entity name may not contain '.'"),
        ('"id": "sE"', '"id": "s.E"', "store s.E: a store id may not contain '.'"),
    ):
        assert text.count(old) == 1
        with pytest.raises(ParseError) as err:
            parse_diagram(text.replace(old, new))
        assert [d.message for d in err.value.diagnostics] == [message]


def test_both_translators_write_chained_mappings_in_the_order_a_firing_applies_them():
    from test_simulator import _mapping_chain

    diagram = _mapping_chain(("m1", "b", "c"), ("m2", "a", "b"))
    bpel, _ = to_bpel(diagram)
    assert [a.get("name") for a in ET.fromstring(bpel).iter("assign")] == ["m2", "m1"]
    xpdl, _ = to_xpdl(diagram)
    assert [a.get("Id") for a in ET.fromstring(xpdl).iter("Assignments")] == ["m2", "m1"]


def test_record_variables_hold_no_value_so_no_rule_or_translator_names_them():
    from bpdmn.model import ObjectAttachment

    store = DataStore("st", "St", entities=[Entity("E", [Variable("addr", "record"), Variable("addr.city")])])
    # info is a record: V8 does not look it up in the store, and no translator writes it
    obj = DataObject("o", "O", variables=[Variable("E.info", "record"), Variable("E.addr.city")], origin_store="st")
    handed_on = [ObjectAttachment("o", "output"), ObjectAttachment("o", "input")]
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "S", "start_event_message"), Node("t", "T", "task"), Node("e", "E", "end_event")],
        sequence_flows=[SequenceFlow("f1", "s", "t", attachments=handed_on), SequenceFlow("f2", "t", "e")],
    )
    diagram = Diagram("d", pools=[pool], stores=[store], objects=[obj])
    assert validator.validate(diagram) == []
    bpel = ET.fromstring(to_bpel(diagram)[0])
    assert [v.get("name") for v in bpel.find("variables") if v.get("name").startswith("st.")] == ["st.E.addr.city"]
    xpdl = ET.fromstring(to_xpdl(diagram)[0])
    assert [f.get("Id") for f in xpdl.iterfind("DataFields/DataField")] == ["st.E.addr.city"]
    assert [p.text for p in xpdl.iter("ActualParameter")] == ["o.E.addr.city"]


@pytest.mark.parametrize("seed", range(40))
def test_sound_regions_validate_run_and_translate_whole(seed):
    diagram = random_regions(seed)
    assert validator.validate(diagram) == []
    assert run(diagram).status == "completed"
    xml, warnings = to_bpel(diagram)
    assert warnings == []
    root = ET.fromstring(xml)
    names = [el.get("name") for el in root.iter()]
    nodes = diagram.pools[0].nodes
    for node in nodes:
        if node.kind == "task":
            assert names.count(node.name) == 1, node.id
    for if_el in root.iter("if"):
        assert if_el[0].tag == "condition"
    xpdl, _ = to_xpdl(diagram)
    named = {value for el in ET.fromstring(xpdl).iter() for value in el.attrib.values()}
    assert {node.id for node in nodes} <= named
