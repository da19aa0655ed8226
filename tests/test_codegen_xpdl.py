from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from bpdmn import validator
from bpdmn.codegen_xpdl import GenerationError, to_xpdl
from bpdmn.expr import parse_expr, print_expr
from bpdmn.format import parse_diagram
from bpdmn.model import (
    DataObject,
    DataStore,
    Diagram,
    Entity,
    ExplicitDataFlow,
    Node,
    ObjectAttachment,
    Pool,
    SequenceFlow,
    Variable,
    node_inputs,
)

from conftest import fixture_text, load
from randgen import random_diagram, random_regions
from test_fixtures import PATHS, expected_diagnostics

# the fixtures with no validation error, which to_xpdl translates
TRANSLATABLE = [p for p in PATHS if all(severity != "error" for _, severity in expected_diagnostics(p))]


@pytest.fixture
def eco_xpdl(eco):
    xml, warnings = to_xpdl(eco)
    return ET.fromstring(xml), warnings


def test_output_is_well_formed(travel, eco):
    for diagram in (travel, eco):
        xml, _ = to_xpdl(diagram)
        ET.fromstring(xml)


def test_store_fields_become_data_fields(eco_xpdl):
    root, _ = eco_xpdl
    field = root.find("DataFields/DataField[@Id='OracleDB.Device.deviceID']")
    assert field is not None
    assert field.get("Name") == "deviceID"
    assert field.find("DataType/BasicType").get("Type") == "STRING"


def test_data_field_ids_are_injective(eco_xpdl, travel):
    root, _ = eco_xpdl
    ids = [f.get("Id") for f in root.findall("DataFields/DataField")]
    assert len(ids) == len(set(ids))
    t_root = ET.fromstring(to_xpdl(travel)[0])
    t_ids = [f.get("Id") for f in t_root.findall("DataFields/DataField")]
    assert len(t_ids) == len(set(t_ids))


def test_object_becomes_data_object_with_field_refs(eco_xpdl):
    root, _ = eco_xpdl
    data_object = root.find("DataObjects/DataObject[@Id='ECO_Data']")
    assert data_object is not None
    assert data_object.get("Name") == "Eco Data"
    refs = {f.get("Id") for f in data_object.findall("DataFields/DataField")}
    assert refs == {"Device.deviceID", "Device.description"}


def test_activity_has_input_output_sets_and_parameters(eco_xpdl):
    root, _ = eco_xpdl
    activity = root.find(".//Activity[@Name='Check ECO Data']")
    assert activity is not None
    inputs = {i.get("ArtifactId") for i in activity.findall("InputSets/InputSet/Input")}
    assert "ECO_Data" in inputs
    outputs = {o.get("ArtifactId") for o in activity.findall("OutputSets/OutputSet/Output")}
    assert outputs == {"Checked_Data"}
    params = [p.text for p in activity.iter("ActualParameter")]
    assert "ECO_Data.Device.deviceID" in params


def test_mapping_becomes_assignment_in_consuming_activity(eco_xpdl):
    root, _ = eco_xpdl
    activity = root.find(".//Activity[@Name='Check ECO Data']")
    assignment = activity.find("Assignments/Assignment")
    assert assignment.find("Target").text == "Input.device"
    assert assignment.find("Expression").text == "ECO_Data.Device.deviceID"


def test_message_flows_become_messages(eco_xpdl):
    root, _ = eco_xpdl
    message = root.find("Messages/Message[@Id='mf1']")
    assert message is not None
    assert message.get("From") == "t_send" and message.get("To") == "m_start"
    assert message.find("DataObject").get("Id") == "Order_ID"


def test_message_names_each_attached_object_once(eco_xpdl):
    root, _ = eco_xpdl
    # eco's mf1 attaches Order_ID in both directions
    assert [o.get("Id") for o in root.findall("Messages/Message[@Id='mf1']/DataObject")] == ["Order_ID"]
    # p17's mf1 attaches o as an input only; the message still carries it
    p17 = ET.fromstring(to_xpdl(load("patterns/p17.bpdmn.json"))[0])
    assert [o.get("Id") for o in p17.findall("Messages/Message[@Id='mf1']/DataObject")] == ["o"]


def test_transitions_carry_guards(eco_xpdl):
    root, _ = eco_xpdl
    transition = root.find(".//Transition[@Id='g3']")
    assert transition.find("Condition").text == "Checked_Data.ok"
    assert root.find(".//Transition[@Id='g4']").find("Condition") is None


def test_no_data_construct_is_lost(eco, eco_xpdl):
    root, _ = eco_xpdl
    assert len(root.findall("DataObjects/DataObject")) == len(eco.objects)
    assert len(root.findall("Messages/Message")) == len(eco.message_flows)
    transitions = root.findall(".//Transition")
    assert len(transitions) == sum(len(p.sequence_flows) for p in eco.pools)
    scalar_fields = sum(
        sum(1 for f in e.fields if f.vtype != "record")
        for s in eco.stores
        for e in s.entities
    )
    assert len(root.findall(".//DataField[@Name]")) == scalar_fields
    mapping_rules = sum(len(m.rules) for m in eco.mappings)
    assert len(root.findall(".//Assignment")) == mapping_rules


@pytest.mark.parametrize("relpath", TRANSLATABLE)
def test_every_transition_joins_activities_of_its_process(relpath):
    root = ET.fromstring(to_xpdl(load(relpath))[0])
    for process in root.iter("WorkflowProcess"):
        activities = {activity.get("Id") for activity in process.iter("Activity")}
        ends = {t.get(end) for t in process.iter("Transition") for end in ("From", "To")}
        assert ends <= activities


def test_gateways_and_events_become_routes_and_events():
    root = ET.fromstring(to_xpdl(load("travel.bpdmn.json"))[0])
    assert root.find(".//Activity[@Id='gw']/Route").attrib == {"GatewayType": "Exclusive"}
    assert root.find(".//Activity[@Id='join']/Route").attrib == {"GatewayType": "Parallel"}
    assert root.find(".//Activity[@Id='n_start']/Event/StartEvent").attrib == {"Trigger": "Message"}
    assert root.find(".//Activity[@Id='n_end']/Event/EndEvent").attrib == {"Result": "None"}
    p9 = ET.fromstring(to_xpdl(load("patterns/p9.bpdmn.json"))[0])
    assert p9.find(".//Activity[@Id='s']/Event/StartEvent").attrib == {"Trigger": "None"}
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "S", "start_event_none"), Node("m1", "M1", "intermediate_message"), Node("e", "E", "end_event")],
        sequence_flows=[SequenceFlow("f1", "s", "m1"), SequenceFlow("f2", "m1", "e")],
    )
    waits = ET.fromstring(to_xpdl(Diagram("d", pools=[pool]))[0])
    assert waits.find(".//Activity[@Id='m1']/Event/IntermediateEvent").attrib == {"Trigger": "Message"}


def test_what_a_gateway_or_event_loses_is_named_in_one_warning_per_node():
    _, warnings = to_xpdl(load("travel.bpdmn.json"))
    assert warnings == [
        "end-event n_end of pool travel_agency: its data inputs plan left out of the XPDL",
        "start-event-message n_start of pool travel_agency: its data outputs input left out of the XPDL",
    ]
    pool = Pool(
        "p",
        "P",
        nodes=[
            Node("s", "S", "start_event_none"),
            Node("g", "G", "gateway_exclusive_data", condition=parse_expr("o.v = 1")),
            Node("a", "A", "task"),
            Node("b", "B", "task"),
            Node("e", "E", "end_event"),
        ],
        sequence_flows=[
            SequenceFlow("f1", "s", "g"),
            SequenceFlow("f2", "g", "a", guard=parse_expr("true")),
            SequenceFlow("f3", "g", "b"),
            SequenceFlow("f4", "a", "e"),
            SequenceFlow("f5", "b", "e"),
        ],
    )
    assert to_xpdl(Diagram("d", pools=[pool]))[1] == ["gateway-exclusive-data g of pool p: its condition left out of the XPDL"]


def test_one_workflow_process_per_modeled_pool(eco_xpdl):
    root, _ = eco_xpdl
    processes = root.findall("WorkflowProcesses/WorkflowProcess")
    assert {p.get("Id") for p in processes} == {"pool_tech", "pool_maint"}


def test_sub_process_store_declared_locally():
    d = load("patterns/p2.bpdmn.json")
    root = ET.fromstring(to_xpdl(d)[0])
    assert root.find("DataFields") is None  # no diagram-scoped stores
    activity = root.find(".//Activity[@Id='sp']")
    assert activity.find("DataFields/DataField[@Id='st.E.f']") is not None


def test_every_store_scoped_to_one_sub_process_is_declared():
    data = json.loads(fixture_text("patterns/p2.bpdmn.json"))
    data["stores"].append({**data["stores"][0], "id": "st2", "name": "Second"})
    d = parse_diagram(json.dumps(data))
    assert validator.validate(d) == []
    activity = ET.fromstring(to_xpdl(d)[0]).find(".//Activity[@Id='sp']")
    assert [f.get("Id") for f in activity.findall("DataFields/DataField")] == ["st.E.f", "st2.E.f"]


def test_invalid_diagram_is_refused():
    with pytest.raises(GenerationError):
        to_xpdl(load("validator/bad_v4.bpdmn.json"))


def test_both_translators_raise_one_error_class():
    from bpdmn import codegen_bpel

    assert GenerationError is codegen_bpel.GenerationError


def test_an_object_read_over_two_channels_is_one_set_of_parameters():
    # t reads o over the flow from a and again from the store, b from the store only
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "S", "start_event_none"), Node("a", "A", "task"), Node("t", "T", "task"), Node("e", "E", "end_event")],
        sequence_flows=[
            SequenceFlow("f1", "s", "a"),
            SequenceFlow("f2", "a", "t", [ObjectAttachment("o", "input")]),
            SequenceFlow("f3", "t", "e"),
        ],
        explicit_data_flows=[ExplicitDataFlow("ef1", "st", "t", "o"), ExplicitDataFlow("ef2", "st", "t", "b")],
    )
    diagram = Diagram(
        "d",
        pools=[pool],
        stores=[DataStore("st", "Store", entities=[Entity("E", [Variable("f", "string")])])],
        objects=[
            DataObject("o", "O", variables=[Variable("w", "string"), Variable("r", "record"), Variable("v", "number")]),
            DataObject("b", "B", variables=[Variable("x", "string")]),
        ],
    )
    assert validator.validate(diagram) == []
    activity = ET.fromstring(to_xpdl(diagram)[0]).find(".//Activity[@Id='t']")
    assert [i.get("ArtifactId") for i in activity.iter("Input")] == ["b", "o"]
    assert [p.text for p in activity.iter("ActualParameter")] == ["b.x", "o.v", "o.w"]


def _content_cases() -> list:
    """Every translatable fixture, and the valid ones of ``random_diagram``
    seeds 0-199 (170 reads an object over two channels) and of
    ``random_regions`` seeds 0-39."""
    cases = [(relpath, load(relpath)) for relpath in TRANSLATABLE]
    cases += [(f"random{seed}", random_diagram(seed)) for seed in range(200)]
    cases += [(f"regions{seed}", random_regions(seed)) for seed in range(40)]
    return [pytest.param(d, id=name) for name, d in cases if not validator.has_errors(validator.validate(d))]


@pytest.mark.parametrize("diagram", _content_cases())
def test_xpdl_holds_every_node_flow_and_assignment(diagram):
    """Read back with ElementTree: each node of a modeled pool is one
    Activity, each sequence flow one Transition with its guard as its
    Condition, each rule of a mapping into a node one Assignment of that
    node's Activity, and each input object's variables one set of actual
    parameters."""
    text, warnings = to_xpdl(diagram)
    root = ET.fromstring(text)
    processes = {p.get("Id"): p for p in root.iterfind("WorkflowProcesses/WorkflowProcess")}
    assert sorted(processes) == sorted(pool.id for pool in diagram.pools if pool.nodes)
    for pool in diagram.pools:
        if not pool.nodes:
            continue
        process = processes[pool.id]
        activities = {}
        for activity in process.iterfind("Activities/Activity"):
            assert activities.setdefault(activity.get("Id"), activity) is activity, activity.get("Id")
        assert sorted(activities) == sorted(node.id for node in pool.iter_nodes())
        transitions = process.findall("Transitions/Transition")
        assert sorted((t.get("Id"), t.get("From"), t.get("To")) for t in transitions) == sorted(
            (flow.id, flow.source, flow.target) for flow in pool.sequence_flows
        )
        guards = {flow.id: flow.guard for flow in pool.sequence_flows}
        for transition in transitions:
            guard = guards[transition.get("Id")]
            assert [c.text for c in transition.findall("Condition")] == ([] if guard is None else [print_expr(guard)])
        for node in pool.iter_nodes():
            activity = activities[node.id]
            mappings = diagram.index.mappings_into(node.id)
            if node.kind not in ("task", "sub_process"):
                # a route or an event holds no Assignments: its warning names
                # each mapping into it and the object it maps
                assert activity.find("Assignments") is None
                if mappings:
                    (warning,) = [w for w in warnings if f" {node.id} of pool {pool.id}: " in w]
                    assert all(m.target_object in warning and m.id in warning for m in mappings)
                continue
            assignments = [
                (block.get("Id"), a.findtext("Target"), a.findtext("Expression"))
                for block in activity.findall("Assignments")
                for a in block.findall("Assignment")
            ]
            assert assignments == [
                (m.id, f"{m.target_object}.{rule.to}", print_expr(rule.from_expr)) for m in mappings for rule in m.rules
            ]
            objects = sorted({io.object for io in node_inputs(diagram, node.id)})
            assert [p.text for p in activity.iter("ActualParameter")] == [
                f"{obj}.{var.name}"
                for obj in objects
                for var in sorted(diagram.object(obj).variables, key=lambda v: v.name)
                if var.vtype != "record"
            ]
