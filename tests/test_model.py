from __future__ import annotations

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bpdmn import expr, format as fmt, model, patterns, simulator, validator
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
    MessageFlow,
    ModelError,
    Node,
    ObjectAttachment,
    Pool,
    Relationship,
    Scope,
    SequenceFlow,
    StoreInsert,
    StoreRead,
    TaskBehavior,
    Variable,
    node_inputs,
    node_outputs,
    reaches,
    resolve_scope,
)

from conftest import FIXTURES, load

SRC = Path(__file__).resolve().parent.parent / "src"


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


@pytest.mark.parametrize(
    "start_inputs, message",
    [
        ({"nosuch": {}}, "start input nosuch: unknown object"),
        ({"o": {}}, "start input o: no message start event produces it"),
        ({"m": {"a..b": 1}}, "start input m: invalid variable path 'a..b'"),
        ({"m": {"v": {"x": 1}}}, "start input m: 'v' must be a string, number, boolean or null"),
        ({"m": {"v": float("nan")}}, "start input m: 'v' must be a string, number, boolean or null"),
        ({"m": {"v": float("-inf")}}, "start input m: 'v' must be a string, number, boolean or null"),
    ],
    ids=["unknown-object", "not-produced", "path", "value", "nan", "minus-infinity"],
)
def test_a_start_input_breaking_a_rule_is_rejected(start_inputs, message):
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "S", "start_event_message"), Node("e", "E", "end_event")],
        sequence_flows=[SequenceFlow("f", "s", "e", [ObjectAttachment("m", "output")])],
    )
    objects = [DataObject("m", "M"), DataObject("o", "O")]
    assert Diagram("d", pools=[pool], objects=objects, start_inputs={"m": {"v": 1}}).start_objects() == {"m"}
    with pytest.raises(ModelError, match=re.escape(message)):
        Diagram("d", pools=[pool], objects=objects, start_inputs=start_inputs)


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
        (lambda: Effect("o", "", parse_expr("1")), "effect on o: invalid target path ''"),
        (lambda: Effect("o", "a..b", parse_expr("1")), "effect on o: invalid target path 'a..b'"),
        (lambda: Effect("o", "a.", parse_expr("1")), "effect on o: invalid target path 'a.'"),
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
    # (endpoint, flow) pairs, as the validator reads them off inputs and outputs
    produced, consumed, _ = validator._object_links(travel.index, {"input", "plan"})
    assert produced["input"] == [("n_start", "f01")]
    assert consumed["input"] == [("check_cc", "f01")]
    assert set(consumed["plan"]) == {("arch_db", "ef1"), ("n_end", "f11")}


def test_eco_store_extraction_is_a_source(eco):
    produced, _, _ = validator._object_links(eco.index, {"ECO_Data"})
    assert produced["ECO_Data"] == [("OracleDB", "ef_read")]


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
# and repr it had as a dataclass
RECORDS = [
    (expr.Ref, ("path",)),
    (expr.Lit, ("value",)),
    (expr.Cmp, ("op", "left", "right")),
    (expr.BoolOp, ("op", "left", "right")),
    (expr.Not, ("operand",)),
    (model.NodeIO, ("object", "optional", "via", "channel")),
    (fmt.SourceSpan, ("line", "column")),
    (fmt.ParseDiagnostic, ("span", "message")),
    (validator.Diagnostic, ("rule", "severity", "element", "message")),
    (simulator.Message, ("step", "objects")),
    (simulator.RunResult, ("trace", "status", "state")),
    (patterns.Pattern, ("key", "name", "group", "bpmn", "detector")),
    (patterns.PatternReport, ("instances",)),
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


def _element_classes() -> set[type]:
    """The model's element classes and the simulator's records: those
    listing their ``_fields``, which are not the named tuples."""
    return {
        c
        for module in (model, simulator)
        for c in vars(module).values()
        if isinstance(c, type) and hasattr(c, "_fields") and not issubclass(c, tuple)
    }


def test_every_element_class_but_the_diagram_has_slots():
    classes = _element_classes()
    assert [c.__name__ for c in classes if "__slots__" not in vars(c)] == ["Diagram"]
    assert not hasattr(Variable("x"), "__dict__")


# for each element class, a value of each of its fields, in order, which no
# default equals
ELEMENTS = {
    Variable: ("x", "number"),
    ObjectAttachment: ("o", "input", True),
    SequenceFlow: ("f", "a", "b", [ObjectAttachment("o", "input")], parse_expr("o.v = 1")),
    MessageFlow: ("m", "a", "b", [ObjectAttachment("o", "output")]),
    ExplicitDataFlow: ("d", "st", "t", "o", True),
    Node: ("sp", "SP", "sub_process", [Node("t", "T", "task")], ["st"], None, False),
    Pool: ("p", "P", [Node("t", "T", "task")], [SequenceFlow("f", "a", "b")], [ExplicitDataFlow("d", "a", "b", "o")]),
    Entity: ("E", [Variable("f")]),
    Relationship: ("r", "E", "F"),
    Generalization: ("E", "F"),
    Scope: ("sub_process", "sp"),
    DataStore: (
        "st",
        "St",
        "folder",
        [Entity("E")],
        [Relationship("r", "E", "F")],
        [Generalization("E", "F")],
        Scope("sub_process", "sp"),
        True,
    ),
    DataObject: ("o", "O", "form", "physical", [Variable("v")], "http://o", "filled", "st"),
    CopyRule: (parse_expr("a.v"), "v"),
    DataMapping: ("m", "a", "b", [CopyRule(parse_expr("a.v"), "v")]),
    Effect: ("o", "v", parse_expr("1")),
    StoreInsert: ("st", "E", {"f": parse_expr("1")}),
    StoreRead: ("st", "E", "o", parse_expr("E.f = 1")),
    TaskBehavior: ([Effect("o", "v", parse_expr("1"))], [StoreRead("st", "E", "o")], 2),
    Diagram: ("d", [Pool("p", "P")], [], [], [], [], {}, {}),
    simulator.NodeFired: (1, "t"),
    simulator.ObjectBound: (1, "o", "v", 2),
    simulator.StoreChanged: (1, "st", "E", (("E.f", 2),)),
    simulator.MessageSent: (1, "m"),
    simulator.MessageReceived: (1, "m"),
}


def test_the_record_semantics_cover_every_element_class():
    # a state takes no argument: test_a_state_compares_and_shows_its_fields_not_its_caches
    assert set(ELEMENTS) | {simulator.ExecutionState} == _element_classes()


@pytest.mark.parametrize("cls", ELEMENTS, ids=lambda cls: cls.__name__)
def test_an_element_is_a_mutable_record_of_its_fields(cls):
    values = ELEMENTS[cls]
    element = cls(*values)
    assert len(cls._fields) == len(values)
    assert [getattr(element, name) for name in cls._fields] == list(values)
    assert element == cls(**dict(zip(cls._fields, values)))
    changed = cls(*values)
    setattr(changed, cls._fields[-1], "other")
    assert element != changed
    assert element != tuple(values)
    with pytest.raises(TypeError):
        hash(element)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(element) == f"{cls.__name__}({fields})"
    assert hasattr(element, "__dict__") == (cls is Diagram)


@pytest.mark.parametrize(
    "first, second",
    [
        (Relationship("a", "b", "c"), Effect("a", "b", "c")),
        (simulator.MessageSent(1, "m"), simulator.MessageReceived(1, "m")),
        (simulator.NodeFired(1, "m"), simulator.MessageSent(1, "m")),
    ],
    ids=["model", "messages", "events"],
)
def test_elements_of_two_classes_with_equal_fields_differ(first, second):
    assert [getattr(first, f) for f in first._fields] == [getattr(second, f) for f in second._fields]
    assert first != second
    assert not first == second


def test_a_state_compares_and_shows_its_fields_not_its_caches():
    state, other = simulator.ExecutionState(), simulator.ExecutionState()
    other.marked["t"] = 1
    other.reads[("t", 0)] = ((), 0, None)
    assert state == other
    assert repr(state) == repr(other) == (
        "ExecutionState(tokens={}, bindings={}, stores={}, inbox={}, completed=set(), step_count=0)"
    )
    for name in simulator.ExecutionState._fields:
        changed = simulator.ExecutionState()
        setattr(changed, name, 1)
        assert state != changed, name
    assert state != tuple(getattr(state, name) for name in state._fields)
    with pytest.raises(TypeError):
        hash(state)
    assert not hasattr(state, "__dict__")


def test_an_element_repr_is_the_one_a_dataclass_gave():
    assert repr(Variable("x")) == "Variable(name='x', vtype='string')"
    sub = Node("sp", "SP", "sub_process", children=[Node("t", "T", "task", multi_instance=True)], local_stores=["st"])
    assert repr(sub) == (
        "Node(id='sp', name='SP', kind='sub_process', children=[Node(id='t', name='T', kind='task', "
        "children=[], local_stores=[], condition=None, multi_instance=True)], local_stores=['st'], "
        "condition=None, multi_instance=False)"
    )
    assert repr(simulator.ObjectBound(0, "o", "v", 1)) == "ObjectBound(step=0, object='o', variable='v', value=1)"
    assert repr(simulator.StoreChanged(2, "st", "E", (("E.f", 1),))) == (
        "StoreChanged(step=2, store='st', entity='E', record=(('E.f', 1),))"
    )


# neither a mapping's rules nor the node of a sub-process scope, the scope
# ELEMENTS holds, may be omitted
@pytest.mark.parametrize("cls", [c for c in ELEMENTS if c not in (DataMapping, Scope)], ids=lambda cls: cls.__name__)
def test_each_element_gets_its_own_default_of_an_omitted_list_or_map(cls):
    required = sum(p.default is p.empty for p in inspect.signature(cls).parameters.values())
    first, second = cls(*ELEMENTS[cls][:required]), cls(*ELEMENTS[cls][:required])
    assert first == second
    for name in cls._fields[required:]:
        value = getattr(first, name)
        if not isinstance(value, (str, int, type(None))):  # bool is an int
            assert value is not getattr(second, name), name


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["translate", "--to", "bpel"], ["translate", "--to", "xpdl"], ["simulate"], ["patterns"], ["render"]],
    ids=["validate", "translate-bpel", "translate-xpdl", "simulate", "patterns", "render"],
)
def test_a_cold_call_loads_neither_dataclasses_nor_inspect(argv):
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n"
        "runpy.run_module('bpdmn.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, argv[0], str(FIXTURES / "travel.bpdmn.json"), *argv[1:]],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    if argv == ["validate"]:
        assert proc.stdout.splitlines() == ["ok", "[]"]
