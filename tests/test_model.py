from __future__ import annotations

import dataclasses
import re

import pytest

from bpdmn import expr, format as fmt, model, validator
from bpdmn.expr import parse_expr
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    Effect,
    Entity,
    ExplicitDataFlow,
    Generalization,
    LinkKind,
    MessageFlow,
    ModelError,
    Node,
    ObjectAttachment,
    Pool,
    Scope,
    SequenceFlow,
    TaskBehavior,
    Variable,
    node_inputs,
    node_outputs,
    reaches,
    resolve_scope,
)

from conftest import load


def test_duplicate_ids_rejected():
    with pytest.raises(ModelError, match="duplicate identifier"):
        Diagram("d", objects=[DataObject("o", "O"), DataObject("o", "O2")])


def test_dangling_flow_endpoint_rejected():
    pool = Pool(
        "p",
        "P",
        nodes=[Node("a", "A", "task")],
        sequence_flows=[SequenceFlow("f", "a", "ghost")],
    )
    with pytest.raises(ModelError, match="endpoint 'ghost'"):
        Diagram("d", pools=[pool])


def test_self_loop_flow_rejected():
    with pytest.raises(ModelError, match="source equals target"):
        SequenceFlow("f", "a", "a")


def test_store_to_store_explicit_flow_rejected():
    pool = Pool("p", "P", explicit_data_flows=[ExplicitDataFlow("ef", "s1", "s2", "o")])
    with pytest.raises(ModelError, match="both endpoints are stores"):
        Diagram(
            "d",
            pools=[pool],
            stores=[DataStore("s1", "S1"), DataStore("s2", "S2")],
            objects=[DataObject("o", "O")],
        )


def test_condition_only_on_exclusive_gateways():
    with pytest.raises(ModelError):
        Node("t", "T", "task", condition=object())  # type: ignore[arg-type]


def test_multi_instance_only_on_tasks():
    with pytest.raises(ModelError):
        Node("g", "G", "gateway_parallel", multi_instance=True)


def test_unknown_attachment_direction_rejected():
    with pytest.raises(ModelError):
        ObjectAttachment("o", "sideways")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Variable("a..b"), "invalid variable name 'a..b'"),
        (lambda: MessageFlow("m", "x", "x"), "message flow m: source equals target"),
        (lambda: ExplicitDataFlow("d", "x", "x", "o"), "data flow d: source equals target"),
        (lambda: Node("n", "N", "task", children=[Node("c", "C", "task")]), "only sub-processes may have children"),
        (lambda: Node("n", "N", "task", local_stores=["st"]), "only sub-processes may declare local stores"),
        (lambda: Entity("E", [Variable("f"), Variable("f")]), "entity E: duplicate field names"),
        (lambda: Generalization("A", "A"), "A cannot generalize itself"),
        (lambda: Scope("diagram", "n"), "diagram scope names no node"),
        (
            lambda: Diagram("d", stores=[DataStore("st", "S", scope=Scope("sub_process", "nope"))]),
            "unknown scope node 'nope'",
        ),
    ],
)
def test_an_element_that_cannot_exist_is_refused_when_built(build, message):
    with pytest.raises(ModelError, match=message):
        build()


def _gateway(objects, outputs, inputs, guard, *, mappings=(), effects=()) -> Diagram:
    """s -> t1 -> g, then g -> e1 when *guard* holds, else g -> e2: t1
    outputs the objects *outputs*, and both flows out of g take *inputs*."""
    taken = [ObjectAttachment(o, "input") for o in inputs]
    nodes = [
        Node("s", "S", "start_event_none"),
        Node("t1", "T1", "task"),
        Node("g", "G", "gateway_exclusive_data"),
        Node("e1", "E1", "end_event"),
        Node("e2", "E2", "end_event"),
    ]
    flows = [
        SequenceFlow("f1", "s", "t1"),
        SequenceFlow("f2", "t1", "g", [ObjectAttachment(o, "output") for o in outputs]),
        SequenceFlow("f3", "g", "e1", taken, parse_expr(guard)),
        SequenceFlow("f4", "g", "e2", list(taken)),
    ]
    behaviors = {"t1": TaskBehavior([Effect(o, path, parse_expr(e)) for o, path, e in effects])}
    return Diagram("d", [Pool("p", "P", nodes, flows)], objects=objects, mappings=list(mappings), behaviors=behaviors)


@pytest.mark.parametrize(
    "build",
    [
        # a with variable b.c and a.b with variable c both bind the path a.b.c
        lambda: _gateway(
            [
                DataObject("a", "A", variables=[Variable("b.c", "number")]),
                DataObject("a.b", "AB", variables=[Variable("c", "number")]),
            ],
            ["a", "a.b"],
            ["a", "a.b"],
            "a.b.c = 1",
            effects=[("a", "b.c", "1"), ("a.b", "c", "2")],
        ),
        # a copy rule can name no variable of a.b: a.b.c is variable b.c of a
        lambda: _gateway(
            [DataObject("a.b", "AB", variables=[Variable("c")]), DataObject("b", "B", variables=[Variable("y")])],
            ["a.b"],
            ["b"],
            "b.y = 'x'",
            mappings=[DataMapping("m1", "a.b", "b", [CopyRule(parse_expr("a.b.c"), "y")])],
        ),
        # an effect on a.b is written as the target a.b.c, which reads back as object a
        lambda: _gateway(
            [DataObject("a.b", "AB", variables=[Variable("c")])],
            ["a.b"],
            ["a.b"],
            "a.b.c = 'x'",
            effects=[("a.b", "c", "'x'")],
        ),
    ],
    ids=["shared-path", "copy-source", "effect-target"],
)
def test_an_object_id_with_a_dot_is_refused(build):
    with pytest.raises(ModelError, match=r"object a\.b: an object id may not contain '\.'"):
        build()


@pytest.mark.parametrize(
    "elements, message",
    [
        ({"pools": [Pool("x", "X")], "objects": [DataObject("x", "O")]}, "duplicate identifier 'x' (object)"),
        ({"pools": [Pool("p", "P", nodes=[Node("p", "N", "task")])]}, "duplicate identifier 'p' (node)"),
        (
            {"pools": [Pool("p", "P", nodes=[Node("sp", "SP", "sub_process", children=[Node("sp", "C", "task")])])]},
            "duplicate identifier 'sp' (node)",
        ),
    ],
)
def test_duplicate_ids_are_named_with_the_kind_of_their_second_use(elements, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        Diagram("d", **elements)


def test_a_sequence_flow_may_not_end_at_a_pool_or_at_a_node_of_another_pool():
    other = Pool("q", "Q", nodes=[Node("b", "B", "task")])
    for end in ("p", "b"):
        pool = Pool("p", "P", nodes=[Node("a", "A", "task")], sequence_flows=[SequenceFlow("f", "a", end)])
        with pytest.raises(ModelError, match=f"endpoint '{end}' is not a node of pool p"):
            Diagram("d", pools=[pool, other])


def test_the_id_tables_are_built_with_the_diagram_and_shared_by_its_index(travel):
    assert "index" not in vars(travel)
    assert travel.node("check_cc").name == "Check Credit Card"
    assert travel.pool_of("check_cc").id == travel.pool_of("travel_agency").id == "travel_agency"
    assert "index" not in vars(travel)  # a lookup by id does not build the index
    index = travel.index
    assert list(index.nodes) == [n.id for pool in travel.pools for n in pool.iter_nodes()]
    for node_id in index.nodes:
        assert travel.node(node_id) is index.nodes[node_id]
        assert travel.pool_of(node_id) is index.pool_of[node_id]
    assert {s.id for s in travel.stores} == set(index.stores)
    assert {o.id for o in travel.objects} == set(index.objects)


def test_resolve_scope_of_an_unknown_store_raises_key_error():
    with pytest.raises(KeyError):
        resolve_scope(Diagram("d"), "nope")


def test_start_objects_are_what_message_starts_output_on_sequence_flows(eco):
    assert eco.start_objects() == {"ECO_Request"}
    assert Diagram("d").start_objects() == set()


def test_travel_object_sources_and_targets(travel):
    index = travel.index
    src = index.sources["input"]
    assert {(l.kind, l.element) for l in src} == {(LinkKind.MESSAGE_START, "n_start")}
    tgt = index.targets["input"]
    assert {(l.kind, l.element) for l in tgt} == {(LinkKind.ACTIVITY_INPUT, "check_cc")}
    assert {(l.kind, l.element) for l in index.targets["plan"]} == {
        (LinkKind.STORE_INSERTION, "arch_db"),
        (LinkKind.ACTIVITY_INPUT, "n_end"),
    }


def test_eco_store_extraction_is_a_source(eco):
    src = eco.index.sources["ECO_Data"]
    assert {(l.kind, l.element) for l in src} == {(LinkKind.STORE_EXTRACTION, "OracleDB")}


def test_node_inputs_channels(eco):
    channels = {(io.object, io.channel) for io in node_inputs(eco, "m_check")}
    assert channels == {
        ("Input", "sequence"),
        ("Order_ID", "sequence"),
        ("ECO_Data", "store"),
    }


def test_node_outputs(travel):
    assert {io.object for io in node_outputs(travel, "archive")} == {"plan"}


def test_store_readers_and_writers(eco):
    assert eco.index.readers["OracleDB"] == {"m_check"}
    assert eco.index.writers["OracleDB"] == {"t_submit"}


def test_reaches_follows_all_flow_kinds(eco):
    assert reaches(eco, "t_start", "t_end")
    assert reaches(eco, "t_send", "m_process")  # across the message flow
    assert not reaches(eco, "m_process", "t_start")
    assert reaches(eco, "m_gw", "m_gw")  # reflexive


def test_resolve_scope_diagram_and_sub_process():
    sub = Node("sp", "SP", "sub_process", children=[Node("inner", "I", "task")])
    pool = Pool("p", "P", nodes=[sub, Node("outside", "O", "task")])
    d = Diagram(
        "d",
        pools=[pool],
        stores=[
            DataStore("global", "G"),
            DataStore("local", "L", scope=Scope("sub_process", "sp")),
        ],
    )
    assert resolve_scope(d, "global") == {"sp", "inner", "outside"}
    assert resolve_scope(d, "local") == {"sp", "inner"}


def test_store_scope_must_name_a_sub_process():
    pool = Pool("p", "P", nodes=[Node("s", "S", "start_event_none"), Node("e", "E", "end_event")])
    with pytest.raises(ModelError, match="scope node 'e' is not a sub-process"):
        Diagram("d", pools=[pool], stores=[DataStore("st", "S", scope=Scope("sub_process", "e"))])


def test_qualified_field_names_include_generalization():
    store = DataStore(
        "st",
        "S",
        entities=[
            Entity("Base", [Variable("common")]),
            Entity("Derived", [Variable("own")]),
        ],
        generalizations=[Generalization("Base", "Derived")],
    )
    assert store.qualified_field_names() == {
        "Base.common",
        "Derived.own",
        "Derived.common",
    }


def test_black_box_pool_detection(travel):
    d = Diagram("d", pools=[Pool("env", "Env"), Pool("full", "F", nodes=[Node("t", "T", "task")])])
    assert d.index.black_boxes == {"env"}
    assert "travel_agency" not in travel.index.black_boxes


def test_iter_nodes_covers_sub_process_children():
    sub = Node("sp", "SP", "sub_process", children=[Node("inner", "I", "task")])
    d = Diagram("d", pools=[Pool("p", "P", nodes=[sub])])
    assert {n.id for n in d.pools[0].iter_nodes()} == set(d.index.nodes) == {"sp", "inner"}


def test_iter_nodes_is_pre_order_through_nested_sub_processes():
    inner = Node("sp2", "SP2", "sub_process", children=[Node("c", "C", "task")])
    outer = Node(
        "sp1", "SP1", "sub_process", children=[Node("b", "B", "task"), inner, Node("d", "D", "task")]
    )
    pool = Pool("p", "P", nodes=[Node("a", "A", "task"), outer, Node("e", "E", "task")])
    order = ["a", "sp1", "b", "sp2", "c", "d", "e"]
    assert [n.id for n in pool.iter_nodes()] == order
    assert list(Diagram("diag", pools=[pool]).index.nodes) == order


def test_travel_fixture_is_loaded(travel):
    assert travel.id == "travel"
    assert travel.node("check_cc").name == "Check Credit Card"
    assert travel.pool_of("archive").id == "travel_agency"
    assert load("eco.bpdmn.json").store("OracleDB").name == "OracleDB"


# the immutable records, which are tuples: each keeps the fields, field order
# and repr it had as a frozen dataclass
RECORDS = [
    (expr.Ref, ("path",)),
    (expr.Lit, ("value",)),
    (expr.Cmp, ("op", "left", "right")),
    (expr.BoolOp, ("op", "left", "right")),
    (expr.Not, ("operand",)),
    (model.NodeIO, ("object", "optional", "via", "channel")),
    (model.ObjectLink, ("kind", "element", "via")),
    (fmt.SourceSpan, ("line", "column")),
    (fmt.ParseDiagnostic, ("span", "message")),
    (validator.Diagnostic, ("rule", "severity", "element", "message")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_a_record_is_built_by_position_or_by_keyword(cls, fields):
    assert cls._fields == fields
    values = [f"{name}-value" for name in fields]
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values))) == tuple(values)
    assert [getattr(record, name) for name in fields] == values
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(fields, values))})"
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def test_every_element_class_but_the_diagram_has_slots():
    classes = [c for c in vars(model).values() if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert [c.__name__ for c in classes if "__slots__" not in vars(c)] == ["Diagram"]
    assert not hasattr(Variable("x"), "__dict__")
