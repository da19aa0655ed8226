from __future__ import annotations

import pytest

from bpdmn import validator
from bpdmn.expr import parse_expr
from bpdmn.model import (
    DataObject,
    Diagram,
    Effect,
    Node,
    ObjectAttachment,
    Pool,
    SequenceFlow,
    TaskBehavior,
    Variable,
)
from bpdmn.simulator import (
    ExecutionState,
    InitializationError,
    SimulationError,
    NodeFired,
    ObjectBound,
    check_data_gating,
    enabled,
    explore_interleavings,
    init,
    render_trace,
    run,
    step,
)

from conftest import built_state, load

CHECKS = {"check_hotel", "check_car", "check_flight"}


def _with_card(travel, number):
    si = {k: dict(v) for k, v in travel.start_inputs.items()}
    si["input"]["cardNumber"] = number
    return si


def test_travel_valid_card_runs_all_checks(travel):
    result = run(travel)
    assert result.status == "completed"
    assert CHECKS <= result.fired_nodes()
    assert "archive" in result.fired_nodes()
    records = result.state.stores["arch_db"]
    assert len(records) == 1
    assert records[0]["Reservation.hotel"] == "Hilton"


def test_travel_invalid_card_skips_checks(travel):
    result = run(travel, start_inputs=_with_card(travel, "00000000"))
    assert result.status == "completed"
    assert result.fired_nodes() & CHECKS == set()
    assert "n_end_invalid" in result.fired_nodes()
    assert "arch_db" not in result.state.stores


def test_travel_mapping_binds_request(travel):
    result = run(travel)
    bound = [e for e in result.trace if isinstance(e, ObjectBound) and e.object == "request"]
    assert {(e.variable, e.value) for e in bound} == {
        ("cardNumber", "12345678"),
        ("cardType", "VISA"),
    }


def test_eco_success_processes_eco(eco):
    result = run(eco)
    assert result.status == "completed"
    assert "m_process" in result.fired_nodes()
    assert "m_notify" not in result.fired_nodes()


def test_eco_failure_ends_without_process(eco):
    si = {k: dict(v) for k, v in eco.start_inputs.items()}
    si["ECO_Request"]["deviceID"] = "D999"
    result = run(eco, start_inputs=si)
    assert result.status == "completed"
    assert "m_process" not in result.fired_nodes()
    assert "m_notify" in result.fired_nodes()


def test_eco_message_start_waits_for_order(eco):
    state = init(eco)
    assert "m_start" in state.pending_starts
    assert "m_start" not in enabled(state, eco)


def test_eco_store_read_binds_extracted_object(eco):
    result = run(eco)
    bound = {
        (e.object, e.variable): e.value for e in result.trace if isinstance(e, ObjectBound)
    }
    assert bound[("ECO_Data", "Device.deviceID")] == "D100"
    assert bound[("Input", "device")] == "D100"


def test_deadlock_detected():
    result = run(load("deadlock.bpdmn.json"))
    assert result.status == "deadlocked"
    assert result.fired_nodes() == set()
    assert result.state.token_total() > 0


def test_step_limit_status(travel):
    result = run(travel, max_steps=2)
    assert result.status == "step_limit"
    assert result.state.step_count == 2


def test_smallest_policy_is_deterministic(travel):
    t1 = [str(e) for e in run(travel).trace]
    t2 = [str(e) for e in run(travel).trace]
    assert t1 == t2


def test_random_policy_reproducible_per_seed(travel):
    a = [str(e) for e in run(travel, policy="random", seed=7).trace]
    b = [str(e) for e in run(travel, policy="random", seed=7).trace]
    assert a == b


def test_no_nodes_raises():
    with pytest.raises(InitializationError):
        init(Diagram("d"), {})


def test_missing_start_inputs_raise(travel):
    with pytest.raises(InitializationError, match="missing required start input"):
        init(travel, {})


def test_startless_pool_deadlocks_immediately():
    pool = Pool(
        "p",
        "P",
        nodes=[Node("a", "A", "task"), Node("e", "E", "end_event")],
        sequence_flows=[SequenceFlow("f", "a", "e")],
    )
    result = run(Diagram("d", pools=[pool]))
    assert result.status == "completed"
    assert result.fired_nodes() == set()


def test_step_consumes_and_produces_tokens(travel):
    state = init(travel)
    assert state.tokens == {"f01": 1}
    state, trace = step(state, travel, "check_cc")
    assert state.tokens == {"f02": 1}
    assert isinstance(trace[0], NodeFired) and trace[0].node == "check_cc"


def test_trace_rendering(travel):
    result = run(travel)
    text = render_trace(result.trace)
    assert text.splitlines()[0].startswith("step 0: bound input.")
    assert any(line.startswith("step 1: fired") for line in text.splitlines())
    assert "check_cc" in text


def test_data_gating_clean_on_all_runs(travel, eco):
    for diagram in (travel, eco):
        for seed in range(20):
            result = run(diagram, policy="random", seed=seed)
            assert check_data_gating(result.trace, diagram) == []


def test_data_gating_catches_fabricated_violation(travel):
    # a trace firing check_cc at step 1 with nothing bound violates gating
    fake = [NodeFired(1, "check_cc")]
    violations = check_data_gating(fake, travel)
    assert violations and "check_cc" in violations[0]


@pytest.mark.parametrize("name", ["direct", "shared_store", "global_store"])
def test_oracle_agrees_with_scheduler(name):
    diagram = load(f"handoff/{name}.bpdmn.json")
    oracle = explore_interleavings(diagram)
    for policy, seed in [("smallest", 0)] + [("random", s) for s in range(10)]:
        result = run(diagram, policy=policy, seed=seed)
        assert result.status == "completed"
        assert frozenset(result.fired_nodes()) in oracle


def _race() -> Diagram:
    """``s -> split (parallel) -> {a, b} -> join (parallel) -> gw
    (exclusive)``; a sets ``o.v := 1`` and b sets ``o.v := 2``, each
    outputting o to the join; ``join -> gw`` inputs o; gw goes to x when
    ``o.v = 1`` and to y when ``o.v = 2``. Which of a and b fires last
    decides the branch."""
    kinds = {
        "s": "start_event_none",
        "split": "gateway_parallel",
        "a": "task",
        "b": "task",
        "join": "gateway_parallel",
        "gw": "gateway_exclusive_data",
        "x": "task",
        "y": "task",
        "ex": "end_event",
        "ey": "end_event",
    }
    out, into = [ObjectAttachment("o", "output")], [ObjectAttachment("o", "input")]
    flows = [
        SequenceFlow("f0", "s", "split"),
        SequenceFlow("f1", "split", "a"),
        SequenceFlow("f2", "split", "b"),
        SequenceFlow("f3", "a", "join", list(out)),
        SequenceFlow("f4", "b", "join", list(out)),
        SequenceFlow("f5", "join", "gw", into),
        SequenceFlow("f6", "gw", "x", guard=parse_expr("o.v = 1")),
        SequenceFlow("f7", "gw", "y", guard=parse_expr("o.v = 2")),
        SequenceFlow("f8", "x", "ex"),
        SequenceFlow("f9", "y", "ey"),
    ]
    return Diagram(
        "race",
        pools=[Pool("p", "P", [Node(i, i, kind) for i, kind in kinds.items()], flows)],
        objects=[DataObject("o", "o", variables=[Variable("v", "number")])],
        behaviors={
            "a": TaskBehavior(effects=[Effect("o", "v", parse_expr("1"))]),
            "b": TaskBehavior(effects=[Effect("o", "v", parse_expr("2"))]),
        },
    )


def test_the_race_is_valid_and_runs_reach_both_branches():
    diagram = _race()
    assert validator.validate(diagram) == []
    both = {"split", "a", "b", "join", "gw"}
    fired = {frozenset(run(diagram, policy="random", seed=k).fired_nodes()) for k in range(40)}
    assert fired == {frozenset(both | {"x", "ex"}), frozenset(both | {"y", "ey"})}


@pytest.mark.xfail(
    strict=True,
    reason="the oracle's key holds the names of bound objects, not their values, so the state "
    "after a then b merges with the one after b then a (ROADMAP item 1)",
)
def test_the_oracle_lists_both_outcomes_of_the_race():
    both = {"split", "a", "b", "join", "gw"}
    assert explore_interleavings(_race()) == {frozenset(both | {"x", "ex"}), frozenset(both | {"y", "ey"})}


def test_an_insert_in_a_clone_leaves_the_store_lists_it_was_cloned_from(travel):
    """A clone shares the records, which are never changed once stored, and
    not the lists that hold them."""
    from bpdmn.simulator import _clone

    state = init(travel)
    ready = enabled(state, travel)
    while "archive" not in ready:
        state, _ = step(state, travel, min(ready))
        ready = enabled(state, travel)
    old = {"__entity__": "Reservation", "Reservation.hotel": "Ritz"}
    state.stores["arch_db"] = [old]
    clone, _ = step(_clone(state), travel, "archive")
    assert state.stores == {"arch_db": [old]}
    assert state.stores["arch_db"][0] is old
    assert clone.stores["arch_db"][0] is old
    assert clone.stores["arch_db"][1]["Reservation.hotel"] == "Hilton"


def test_shared_store_reader_waits_for_writer():
    diagram = load("handoff/shared_store.bpdmn.json")
    oracle = explore_interleavings(diagram)
    # in every interleaving both tasks complete: B can never starve A out
    assert all("t_a" in fired and "t_b" in fired for fired in oracle)


def test_multi_instance_behavior_runs_n_times():
    import dataclasses

    from bpdmn.expr import parse_expr
    from bpdmn.model import Effect, TaskBehavior

    behaviors = {
        "t1": TaskBehavior(effects=[Effect("o", "v", parse_expr("instance.index"))], instances=3)
    }
    diagram = dataclasses.replace(load("patterns/p13.bpdmn.json"), behaviors=behaviors)
    result = run(diagram)
    binds = [e for e in result.trace if isinstance(e, ObjectBound) and e.object == "o"]
    assert [e.value for e in binds] == [1, 2, 3]


def test_store_read_matching_no_record_blocks_the_reader():
    # t_write inserts E.f = 1 and t_read reads E.f = 2: its input never
    # becomes available, so it never fires
    from bpdmn.expr import parse_expr
    from bpdmn.model import (
        DataObject,
        DataStore,
        Entity,
        ExplicitDataFlow,
        StoreInsert,
        StoreRead,
        TaskBehavior,
        Variable,
    )

    pool = Pool(
        "p",
        "P",
        nodes=[
            Node("s", "Start", "start_event_none"),
            Node("t_write", "Write", "task"),
            Node("t_read", "Read", "task"),
            Node("e", "End", "end_event"),
        ],
        sequence_flows=[
            SequenceFlow("f1", "s", "t_write"),
            SequenceFlow("f2", "t_write", "t_read"),
            SequenceFlow("f3", "t_read", "e"),
        ],
        explicit_data_flows=[ExplicitDataFlow("ef", "st", "t_read", "o")],
    )
    diagram = Diagram(
        "d",
        pools=[pool],
        stores=[DataStore("st", "St", entities=[Entity("E", [Variable("f", "number")])])],
        objects=[DataObject("o", "O", variables=[Variable("E.f", "number")], origin_store="st")],
        behaviors={
            "t_write": TaskBehavior(store_actions=[StoreInsert("st", "E", {"f": parse_expr("1")})]),
            "t_read": TaskBehavior(store_actions=[StoreRead("st", "E", "o", parse_expr("E.f = 2"))]),
        },
    )
    result = run(diagram)
    assert result.status == "deadlocked"
    assert "t_read" not in result.fired_nodes()
    assert explore_interleavings(diagram) == {frozenset({"t_write"})}


def test_unknown_policy_is_rejected(travel):
    with pytest.raises(ValueError, match="bogus"):
        run(travel, policy="bogus")


def test_state_built_from_bindings_is_seen_by_guards_and_filters():
    # the expression environment of a state made by a caller comes from the
    # bindings it was given: the filter of r and the guard of gw read X.v
    from bpdmn.expr import parse_expr
    from bpdmn.model import (
        DataObject,
        DataStore,
        Entity,
        ExplicitDataFlow,
        StoreRead,
        TaskBehavior,
        Variable,
    )

    pool = Pool(
        "p",
        "P",
        nodes=[
            Node("s", "Start", "start_event_none"),
            Node("r", "Read", "task"),
            Node("gw", "Route", "gateway_exclusive_data"),
            Node("e1", "E1", "end_event"),
            Node("e2", "E2", "end_event"),
            Node("e3", "E3", "end_event"),
        ],
        sequence_flows=[
            SequenceFlow("fr", "s", "r"),
            SequenceFlow("fg", "s", "gw"),
            SequenceFlow("f_two", "gw", "e1", guard=parse_expr("X.v = 2")),
            SequenceFlow("f_else", "gw", "e2"),
            SequenceFlow("fe", "r", "e3"),
        ],
        explicit_data_flows=[ExplicitDataFlow("dr", "st", "r", "Y")],
    )
    diagram = Diagram(
        "d",
        pools=[pool],
        stores=[DataStore("st", "St", entities=[Entity("E", [Variable("v", "number")])])],
        objects=[DataObject(o, o, variables=[Variable("v", "number")]) for o in ("X", "Y")],
        behaviors={"r": TaskBehavior(store_actions=[StoreRead("st", "E", "Y", parse_expr("E.v = X.v"))])},
    )
    for value, matches, route in [(2, True, "f_two"), (3, False, "f_else")]:
        state = built_state(
            diagram, ("fr", "fg"), bindings={"X": {"v": value}}, stores={"st": [{"__entity__": "E", "E.v": 2}]}
        )
        assert ("r" in enabled(state, diagram)) is matches
        state, _ = step(state, diagram, "gw")
        assert route in state.tokens


def test_messages_are_received_in_the_order_they_were_sent():
    # r receives on m_a and m_b, listed in that order, but t1 sends on m_b a
    # step before t2 sends on m_a: r takes the messages in the order they were
    # sent, so o keeps the value of the later message, the one on m_a
    from bpdmn.expr import parse_expr
    from bpdmn.model import DataObject, Effect, MessageFlow, ObjectAttachment, TaskBehavior, Variable

    def pool(pool_id: str, task: str) -> Pool:
        start, end = f"s_{pool_id}", f"e_{pool_id}"
        return Pool(
            pool_id,
            pool_id.upper(),
            nodes=[Node(start, "Start", "start_event_none"), Node(task, task, "task"), Node(end, "End", "end_event")],
            sequence_flows=[SequenceFlow(f"{task}_in", start, task), SequenceFlow(f"{task}_out", task, end)],
        )

    def carries(*objects: str) -> list[ObjectAttachment]:
        return [ObjectAttachment(o, d) for o in objects for d in ("output", "input")]

    diagram = Diagram(
        "d",
        pools=[pool("pa", "t2"), pool("pb", "t1"), pool("pc", "r")],
        objects=[DataObject(o, o, variables=[Variable("v", "number")]) for o in ("o", "x")],
        message_flows=[MessageFlow("m_a", "t2", "r", carries("o", "x")), MessageFlow("m_b", "t1", "r", carries("o"))],
        behaviors={
            "t1": TaskBehavior(effects=[Effect("o", "v", parse_expr("2"))]),
            "t2": TaskBehavior(effects=[Effect("o", "v", parse_expr("1")), Effect("x", "v", parse_expr("1"))]),
        },
    )
    result = run(diagram)
    assert result.status == "completed"
    fired = {e.node: e.step for e in result.trace if isinstance(e, NodeFired)}
    assert fired["t1"] < fired["t2"] < fired["r"]
    assert [str(e) for e in result.trace if e.step == fired["r"]] == [
        f"step {fired['r']}: fired r",
        f"step {fired['r']}: message received on m_b",
        f"step {fired['r']}: bound o.v = 2",
        f"step {fired['r']}: message received on m_a",
        f"step {fired['r']}: bound o.v = 1",
        f"step {fired['r']}: bound x.v = 1",
    ]
    assert result.state.bindings["o"] == {"v": 1}


def test_a_message_carries_the_objects_its_flow_attaches_as_input():
    # the message flow snd -> rcv attaches o only as input: rcv waits for o
    # in the message, so the message must carry it, not only output attachments
    from bpdmn.model import DataObject, MessageFlow, ObjectAttachment, Variable

    def pool(pool_id: str, task: str) -> Pool:
        start, end = f"s_{pool_id}", f"e_{pool_id}"
        return Pool(
            pool_id,
            pool_id.upper(),
            nodes=[Node(start, "Start", "start_event_none"), Node(task, task, "task"), Node(end, "End", "end_event")],
            sequence_flows=[SequenceFlow(f"{task}_in", start, task), SequenceFlow(f"{task}_out", task, end)],
        )

    diagram = Diagram(
        "d",
        pools=[pool("pa", "snd"), pool("pb", "rcv")],
        objects=[DataObject("o", "o", variables=[Variable("v", "number")])],
        message_flows=[MessageFlow("m", "snd", "rcv", [ObjectAttachment("o", "input")])],
    )
    result = run(diagram)
    assert result.status == "completed"
    assert "rcv" in result.fired_nodes()
    fired = {e.node: e.step for e in result.trace if isinstance(e, NodeFired)}
    assert fired["snd"] < fired["rcv"]


def _store_reader(filter_text: str) -> Diagram:
    """A start, then task r that reads x from store st by *filter_text*."""
    from bpdmn.expr import parse_expr
    from bpdmn.model import DataObject, DataStore, Entity, ExplicitDataFlow, StoreRead, TaskBehavior, Variable

    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "Start", "start_event_none"), Node("r", "Read", "task"), Node("e", "End", "end_event")],
        sequence_flows=[SequenceFlow("fr", "s", "r"), SequenceFlow("fe", "r", "e")],
        explicit_data_flows=[ExplicitDataFlow("dr", "st", "r", "x")],
    )
    fields = [Variable("slot", "number"), Variable("val", "string")]
    return Diagram(
        "d",
        pools=[pool],
        stores=[DataStore("st", "St", entities=[Entity("Rec", fields)])],
        objects=[
            DataObject("o", "O", variables=[Variable("v", "number")]),
            DataObject("x", "X", variables=[Variable(f"Rec.{f.name}", f.vtype) for f in fields]),
        ],
        behaviors={"r": TaskBehavior(store_actions=[StoreRead("st", "Rec", "x", parse_expr(filter_text))])},
    )


def _reader_state(diagram: Diagram, *records: dict) -> ExecutionState:
    """A token before r, o.v bound to 2, and *records* of entity Rec in st."""
    return built_state(
        diagram,
        ("fr",),
        bindings={"o": {"v": 2}},
        stores={"st": [{"__entity__": "Rec", **record} for record in records]},
    )


def test_a_filter_reads_record_fields_over_bindings_and_takes_the_first_match():
    diagram = _store_reader("Rec.slot = o.v")
    state = _reader_state(
        diagram, {"Rec.slot": 1, "Rec.val": "a"}, {"Rec.slot": 2, "Rec.val": "b"}, {"Rec.slot": 2, "Rec.val": "c"}
    )
    assert enabled(state, diagram) == {"r"}
    state, _ = step(state, diagram, "r")
    assert state.bindings["x"] == {"Rec.slot": 2, "Rec.val": "b"}


def test_a_filter_on_an_unbound_path_skips_the_record():
    # the first record has no Rec.val, so the filter cannot read it there
    diagram = _store_reader("Rec.val = 'c' or Rec.slot = o.v")
    state = _reader_state(diagram, {"Rec.slot": 2}, {"Rec.slot": 3, "Rec.val": "c"})
    state, _ = step(state, diagram, "r")
    assert state.bindings["x"] == {"Rec.slot": 3, "Rec.val": "c"}
    other = _store_reader("Rec.val = 'c'")
    assert "r" not in enabled(_reader_state(other, {"Rec.slot": 2}), other)


def test_a_filter_never_sees_the_entity_key():
    diagram = _store_reader("__entity__ = 'Rec'")
    assert "r" not in enabled(_reader_state(diagram, {"Rec.slot": 2, "Rec.val": "b"}), diagram)


def test_an_effect_on_instance_index_shadows_the_counter_for_its_instance():
    import dataclasses

    from bpdmn.expr import parse_expr
    from bpdmn.model import DataObject, Effect, TaskBehavior, Variable

    effects = [
        Effect("o", "a", parse_expr("instance.index")),
        Effect("instance", "index", parse_expr("'set'")),
        Effect("o", "b", parse_expr("instance.index")),
    ]
    p13 = load("patterns/p13.bpdmn.json")
    diagram = dataclasses.replace(
        p13,
        objects=[*p13.objects, DataObject("instance", "Instance", variables=[Variable("index", "string")])],
        behaviors={"t1": TaskBehavior(effects=effects, instances=2)},
    )
    binds = [(e.variable, e.value) for e in run(diagram).trace if isinstance(e, ObjectBound) and e.object == "o"]
    # each instance starts from its own counter, and reads the effect once made
    assert binds == [("a", 1), ("b", "set"), ("a", 2), ("b", "set")]


def _line(behavior=None, **diagram) -> Diagram:
    """s -> t -> e in one pool, t running *behavior*."""
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "Start", "start_event_none"), Node("t", "T", "task"), Node("e", "End", "end_event")],
        sequence_flows=[SequenceFlow("f1", "s", "t"), SequenceFlow("f2", "t", "e")],
    )
    return Diagram("d", pools=[pool], behaviors={"t": behavior} if behavior else {}, **diagram)


def test_an_effect_whose_expression_raises_names_the_behavior():
    from bpdmn.expr import parse_expr
    from bpdmn.model import DataObject, Effect, TaskBehavior, Variable

    behavior = TaskBehavior(effects=[Effect("o", "v", parse_expr("1 < 'a'"))])
    diagram = _line(behavior, objects=[DataObject("o", "O", variables=[Variable("v", "number")])])
    with pytest.raises(SimulationError, match="^behavior of t: "):
        run(diagram)


def test_an_insert_whose_assignment_raises_names_the_inserting_node():
    from bpdmn.expr import parse_expr
    from bpdmn.model import DataStore, Entity, StoreInsert, TaskBehavior, Variable

    behavior = TaskBehavior(store_actions=[StoreInsert("st", "E", {"f": parse_expr("nosuch.x")})])
    diagram = _line(behavior, stores=[DataStore("st", "St", entities=[Entity("E", [Variable("f", "number")])])])
    with pytest.raises(SimulationError, match="^insert by t: "):
        run(diagram)


def test_a_flow_can_hold_two_tokens_and_gives_them_up_one_at_a_time():
    # the exclusive merge m fires once per branch, so m -> t holds two tokens
    kinds = {"s": "start_event_none", "g": "gateway_parallel", "m": "gateway_exclusive_data", "e": "end_event"}
    edges = [("s", "g"), ("g", "a"), ("g", "b"), ("a", "m"), ("b", "m"), ("m", "t"), ("t", "e")]
    pool = Pool(
        "p",
        "P",
        nodes=[Node(i, i, kinds.get(i, "task")) for i in dict.fromkeys(n for edge in edges for n in edge)],
        sequence_flows=[SequenceFlow(f"{a}{b}", a, b) for a, b in edges],
    )
    diagram = Diagram("d", pools=[pool])
    state = init(diagram)
    for node_id in ("g", "a", "b", "m", "m"):  # init fires the start
        state, _ = step(state, diagram, node_id)
    assert state.tokens["mt"] == 2
    state, _ = step(state, diagram, "t")
    assert state.tokens["mt"] == 1
    assert enabled(state, diagram) == {"t", "e"}


def test_objects_mapped_to_each_other_with_neither_bound_do_not_enable_their_reader():
    from bpdmn.expr import parse_expr
    from bpdmn.model import CopyRule, DataMapping, DataObject, ObjectAttachment, Variable

    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "Start", "start_event_none"), Node("t", "T", "task"), Node("e", "End", "end_event")],
        sequence_flows=[
            SequenceFlow("f1", "s", "t", attachments=[ObjectAttachment("a", "input"), ObjectAttachment("b", "input")]),
            SequenceFlow("f2", "t", "e"),
        ],
    )
    diagram = Diagram(
        "d",
        pools=[pool],
        objects=[DataObject(o, o.upper(), variables=[Variable("v", "number")]) for o in ("a", "b")],
        mappings=[
            DataMapping("ab", "a", "b", [CopyRule(parse_expr("a.v"), "v")]),
            DataMapping("ba", "b", "a", [CopyRule(parse_expr("b.v"), "v")]),
        ],
    )
    state = init(diagram)  # the token is on f1, but neither input is there
    assert state.tokens == {"f1": 1}
    assert enabled(state, diagram) == set()


def _mapping_chain(*mappings: tuple[str, str, str]) -> Diagram:
    """s (message start) -> t -> e; s -> t outputs a and inputs b and c, each
    object holding a number x, and each (id, source, target) mapping copies x;
    the start input is a.x = 1."""
    from bpdmn.expr import parse_expr
    from bpdmn.model import CopyRule, DataMapping, DataObject, ObjectAttachment, Variable

    attachments = [ObjectAttachment("a", "output"), ObjectAttachment("b", "input"), ObjectAttachment("c", "input")]
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "S", "start_event_message"), Node("t", "T", "task"), Node("e", "E", "end_event")],
        sequence_flows=[SequenceFlow("f1", "s", "t", attachments=attachments), SequenceFlow("f2", "t", "e")],
    )
    return Diagram(
        "d",
        pools=[pool],
        objects=[DataObject(o, o.upper(), variables=[Variable("x", "number")]) for o in ("a", "b", "c")],
        mappings=[DataMapping(m, src, dst, [CopyRule(parse_expr(f"{src}.x"), "x")]) for m, src, dst in mappings],
        start_inputs={"a": {"x": 1}},
    )


def test_a_chain_of_mappings_into_one_node_fires_in_the_order_enablement_assumes():
    from bpdmn.validator import validate

    diagram = _mapping_chain(("m1", "b", "c"), ("m2", "a", "b"))
    assert validate(diagram) == []
    assert [m.id for m in diagram.index.mappings_into("t")] == ["m2", "m1"]
    result = run(diagram)
    assert result.status == "completed"
    assert check_data_gating(result.trace, diagram) == []
    assert result.state.bindings["c"] == {"x": 1}


def test_mappings_into_a_node_keep_id_order_unless_chained_and_a_cycle_falls_back_to_it():
    unchained = _mapping_chain(("m2", "a", "c"), ("m1", "a", "b"))
    assert [m.id for m in unchained.index.mappings_into("t")] == ["m1", "m2"]
    # m3 depends on no mapping; m1 and m2 produce each other's source
    cycle = _mapping_chain(("m1", "b", "c"), ("m2", "c", "b"), ("m3", "a", "b"))
    assert [m.id for m in cycle.index.mappings_into("t")] == ["m3", "m1", "m2"]
    result = run(cycle)
    assert result.status == "completed"
    assert check_data_gating(result.trace, cycle) == []


def test_a_start_event_with_a_flow_in_never_fires_again():
    edges = [("s", "t"), ("t", "s"), ("t", "e")]
    kinds = {"s": "start_event_none", "t": "task", "e": "end_event"}
    pool = Pool(
        "p",
        "P",
        nodes=[Node(i, i, kind) for i, kind in kinds.items()],
        sequence_flows=[SequenceFlow(f"{a}{b}", a, b) for a, b in edges],
    )
    result = run(Diagram("d", pools=[pool]))
    assert result.status == "deadlocked"
    assert result.fired_nodes() == {"t", "e"}
    assert result.state.tokens == {"ts": 1}
