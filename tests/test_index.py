"""The index-backed derived views against the scans they replaced.

Each reference below is the scan over every pool and flow that the view
used before the views were built once into :class:`bpdmn.model.DiagramIndex`.
"""

from __future__ import annotations

import copy

import pytest

from bpdmn import simulator, validator
from bpdmn.expr import expr_refs, parse_expr
from bpdmn.format import parse_diagram, serialize_diagram
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    DiagramIndex,
    Effect,
    Entity,
    ExplicitDataFlow,
    MessageFlow,
    Node,
    NodeIO,
    ObjectAttachment,
    Pool,
    SequenceFlow,
    StoreInsert,
    StoreRead,
    TaskBehavior,
    Variable,
    node_inputs,
    node_outputs,
    reaches,
)
from bpdmn.render import to_dot

from conftest import FIXTURES
from randgen import random_diagram, random_regions

FIXTURE_PATHS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))
RANDOM_SEEDS = range(60)


def _fork(w_out=(), **diagram_parts) -> Diagram:
    """One pool: s -> g (parallel split) -> n, which waits for object W, and
    g -> w -> e1 (carrying the attachments *w_out*); n -> e2. The firing of w
    is what makes W available."""
    nodes = [
        Node("s", "s", "start_event_none"),
        Node("g", "g", "gateway_parallel"),
        Node("n", "n", "task"),
        Node("w", "w", "task"),
        Node("e1", "e1", "end_event"),
        Node("e2", "e2", "end_event"),
    ]
    flows = [
        SequenceFlow("f1", "s", "g"),
        SequenceFlow("f2", "g", "n", [ObjectAttachment("W", "input")]),
        SequenceFlow("f3", "g", "w"),
        SequenceFlow("f4", "w", "e1", list(w_out)),
        SequenceFlow("f5", "n", "e2"),
    ]
    objects = [DataObject(o, o, variables=[Variable("v", "number")]) for o in ("W", "S")]
    return Diagram("fork", pools=[Pool("P", "P", nodes, flows)], objects=objects, **diagram_parts)


def _rebound_filter() -> Diagram:
    """One pool: s -> w0 -> g (parallel split) -> a -> e1 and g -> r -> e2.
    w0 binds K.v = 1 and inserts E{v: 1} into store D; a sets K.v := 2; r
    reads D over an explicit data flow with the filter E.v = K.v. Once a has
    fired, no record matches and r is disabled."""
    nodes = [
        Node("s", "s", "start_event_none"),
        Node("w0", "w0", "task"),
        Node("g", "g", "gateway_parallel"),
        Node("a", "a", "task"),
        Node("r", "r", "task"),
        Node("e1", "e1", "end_event"),
        Node("e2", "e2", "end_event"),
    ]
    edges = [("s", "w0"), ("w0", "g"), ("g", "a"), ("g", "r"), ("a", "e1"), ("r", "e2")]
    flows = [SequenceFlow(f"f{k}", source, target) for k, (source, target) in enumerate(edges)]
    store = DataStore("D", "D", entities=[Entity("E", [Variable("v", "number")])])
    return Diagram(
        "rebound_filter",
        pools=[Pool("P", "P", nodes, flows, [ExplicitDataFlow("d1", "D", "r", "R")])],
        stores=[store],
        objects=[DataObject(o, o, variables=[Variable("v", "number")]) for o in ("K", "R")],
        behaviors={
            "w0": TaskBehavior(
                effects=[Effect("K", "v", parse_expr("1"))],
                store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})],
            ),
            "a": TaskBehavior(effects=[Effect("K", "v", parse_expr("2"))]),
            "r": TaskBehavior(store_actions=[StoreRead("D", "E", "R", parse_expr("E.v = K.v"))]),
        },
    )


def firing_cases() -> list:
    """Diagrams in which one firing changes whether another node is enabled:
    a waiting node becomes enabled by a message to a pending start, by a
    mapping's source, by an effect's target or by a store read's object, or
    an enabled store reader becomes disabled when the binding its filter
    reads is rebound."""
    one = parse_expr("1")
    message_start = Diagram(
        "message_start",
        pools=[
            Pool(
                "P1",
                "P1",
                [Node("s1", "s1", "start_event_none"), Node("a", "a", "task"), Node("e1", "e1", "end_event")],
                [SequenceFlow("f1", "s1", "a"), SequenceFlow("f2", "a", "e1")],
            ),
            Pool(
                "P2",
                "P2",
                [Node("s2", "s2", "start_event_message"), Node("b", "b", "task"), Node("e2", "e2", "end_event")],
                [SequenceFlow("f3", "s2", "b"), SequenceFlow("f4", "b", "e2")],
            ),
        ],
        message_flows=[MessageFlow("m1", "a", "s2")],
    )
    mapped = _fork(
        w_out=[ObjectAttachment("S", "output")],
        mappings=[DataMapping("map", "S", "W", [CopyRule(parse_expr("S.v"), "v")])],
        behaviors={"w": TaskBehavior(effects=[Effect("S", "v", one)])},
    )
    effect = _fork(behaviors={"w": TaskBehavior(effects=[Effect("W", "v", one)])})
    store = DataStore("D", "D", entities=[Entity("E", [Variable("v", "number")])])
    read = _fork(
        stores=[store],
        behaviors={
            "g": TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": one})]),
            "w": TaskBehavior(store_actions=[StoreRead("D", "E", "W")]),
        },
    )
    return [
        pytest.param(message_start, id="watch-message-to-pending-start"),
        pytest.param(mapped, id="watch-mapping-source"),
        pytest.param(effect, id="watch-effect-target"),
        pytest.param(read, id="watch-store-read-object"),
        pytest.param(_rebound_filter(), id="store-filter-rebound"),
    ]


def flows_out_of_id_order() -> Diagram:
    """A parallel split and join whose flows the pool lists out of id order;
    canonical documents and generated diagrams list them in id order."""
    kinds = {"s": "start_event_none", "g": "gateway_parallel", "a": "task", "b": "task", "j": "gateway_parallel"}
    nodes = [Node(i, i, kind) for i, kind in {**kinds, "e": "end_event"}.items()]
    edges = (("f5", "b", "j"), ("f1", "s", "g"), ("f3", "g", "b"), ("f6", "j", "e"), ("f2", "g", "a"), ("f4", "a", "j"))
    return Diagram("d", pools=[Pool("p", "P", nodes, [SequenceFlow(*edge) for edge in edges])])


def message_data(send: bool = True, receive: bool = True, ext_inside: bool = False) -> Diagram:
    """Data on message flows, both ways and to and from a black-box pool X,
    and on explicit data flows into and out of a store D; generated diagrams
    have none of these.

    - Pool A: ``sA -> a -> eA``. sA outputs S to a; a sends S to pool B's
      message start sB over m1 (*send*) and inserts W into D over ef1.
    - Pool B: ``sB -> b -> eB``. b receives Q from a over m2 (*receive*) and
      hands it to eB; b extracts W from D over ef2.
    - X sends Ext to pool B over m3, and a sends Out to X over m4: each is
      carried only on messages to or from a black-box pool. With
      *ext_inside*, sA also outputs Ext to a.
    """
    objects = [DataObject(o, o, variables=[Variable("v", "number")]) for o in ("S", "Q", "W", "Ext", "Out")]
    pool_a = Pool(
        "A",
        "A",
        [Node("sA", "sA", "start_event_none"), Node("a", "a", "task"), Node("eA", "eA", "end_event")],
        [
            SequenceFlow(
                "fa1",
                "sA",
                "a",
                [ObjectAttachment("S", "output")] + [ObjectAttachment("Ext", "output")] * ext_inside,
            ),
            SequenceFlow("fa2", "a", "eA"),
        ],
        [ExplicitDataFlow("ef1", "a", "D", "W")],
    )
    pool_b = Pool(
        "B",
        "B",
        [Node("sB", "sB", "start_event_message"), Node("b", "b", "task"), Node("eB", "eB", "end_event")],
        [SequenceFlow("fb1", "sB", "b"), SequenceFlow("fb2", "b", "eB", [ObjectAttachment("Q", "input")])],
        [ExplicitDataFlow("ef2", "D", "b", "W")],
    )
    message_flows = [
        MessageFlow("m1", "a", "sB", [ObjectAttachment("S", "output")] * send),
        MessageFlow("m2", "a", "b", [ObjectAttachment("Q", "input")] * receive),
        MessageFlow("m3", "X", "B", [ObjectAttachment("Ext", "input")]),
        MessageFlow("m4", "a", "X", [ObjectAttachment("Out", "output")]),
    ]
    store = DataStore("D", "D", entities=[Entity("E", [Variable("v", "number")])])
    return Diagram(
        "message_data",
        pools=[pool_a, pool_b, Pool("X", "X")],
        stores=[store],
        objects=objects,
        message_flows=message_flows,
    )


DIAGRAMS = (
    [
        pytest.param(parse_diagram((FIXTURES / relpath).read_text(encoding="utf-8")), id=relpath)
        for relpath in FIXTURE_PATHS
    ]
    + [pytest.param(random_diagram(seed), id=f"random{seed}") for seed in RANDOM_SEEDS]
    + firing_cases()
    + [
        pytest.param(flows_out_of_id_order(), id="flows-out-of-id-order"),
        pytest.param(message_data(), id="message-data"),
        pytest.param(message_data(send=False, receive=False, ext_inside=True), id="message-data-one-way"),
    ]
)


# ---------------------------------------------------------------------------
# Scan-based references


def ref_nodes(d: Diagram) -> list[Node]:
    return [n for pool in d.pools for n in pool.iter_nodes()]


def ref_node(d: Diagram, node_id: str):
    for n in ref_nodes(d):
        if n.id == node_id:
            return n
    return None


def ref_pool_of(d: Diagram, element_id: str):
    for pool in d.pools:
        if pool.id == element_id:
            return pool
        for n in pool.iter_nodes():
            if n.id == element_id:
                return pool
    return None


def ref_store(d: Diagram, store_id: str):
    return next((s for s in d.stores if s.id == store_id), None)


def ref_object(d: Diagram, object_id: str):
    return next((o for o in d.objects if o.id == object_id), None)


def ref_node_inputs(d: Diagram, node_id: str) -> list[NodeIO]:
    store_ids = {s.id for s in d.stores}
    out = []
    for pool in d.pools:
        for flow in pool.sequence_flows:
            if flow.target != node_id:
                continue
            for att in flow.attachments:
                if att.direction == "input":
                    out.append(NodeIO(att.object, att.optional, flow.id, "sequence"))
        for flow in pool.explicit_data_flows:
            if flow.target != node_id:
                continue
            channel = "store" if flow.source in store_ids else "explicit"
            out.append(NodeIO(flow.object, flow.optional, flow.id, channel))
    for flow in d.message_flows:
        if flow.target != node_id:
            continue
        for att in flow.attachments:
            if att.direction == "input":
                out.append(NodeIO(att.object, att.optional, flow.id, "message"))
    return out


def ref_node_outputs(d: Diagram, node_id: str) -> list[NodeIO]:
    store_ids = {s.id for s in d.stores}
    out = []
    for pool in d.pools:
        for flow in pool.sequence_flows:
            if flow.source != node_id:
                continue
            for att in flow.attachments:
                if att.direction == "output":
                    out.append(NodeIO(att.object, False, flow.id, "sequence"))
        for flow in pool.explicit_data_flows:
            if flow.source != node_id:
                continue
            channel = "store" if flow.target in store_ids else "explicit"
            out.append(NodeIO(flow.object, False, flow.id, channel))
    for flow in d.message_flows:
        if flow.source != node_id:
            continue
        for att in flow.attachments:
            if att.direction == "output":
                out.append(NodeIO(att.object, False, flow.id, "message"))
    return out


def ref_object_sources(d: Diagram, object_id: str) -> list[tuple[str, str]]:
    """Where the object is produced, as ``(node or store or pool, flow id)``."""
    store_ids = {s.id for s in d.stores}
    out = []
    for pool in d.pools:
        for flow in pool.sequence_flows:
            for att in flow.attachments:
                if att.object != object_id or att.direction != "output":
                    continue
                out.append((flow.source, flow.id))
        for flow in pool.explicit_data_flows:
            if flow.object != object_id:
                continue
            if flow.source in store_ids or flow.target not in store_ids:
                out.append((flow.source, flow.id))
    for flow in d.message_flows:
        for att in flow.attachments:
            if att.object == object_id and att.direction == "input":
                out.append((flow.target, flow.id))
    return out


def ref_object_targets(d: Diagram, object_id: str) -> list[tuple[str, str]]:
    """Where the object is consumed, as ``(node or store or pool, flow id)``."""
    store_ids = {s.id for s in d.stores}
    out = []
    for pool in d.pools:
        for flow in pool.sequence_flows:
            for att in flow.attachments:
                if att.object == object_id and att.direction == "input":
                    out.append((flow.target, flow.id))
        for flow in pool.explicit_data_flows:
            if flow.object != object_id:
                continue
            if flow.target in store_ids or flow.source not in store_ids:
                out.append((flow.target, flow.id))
    for flow in d.message_flows:
        for att in flow.attachments:
            if att.object == object_id and att.direction == "output":
                out.append((flow.source, flow.id))
    return out


def ref_store_accessors(d: Diagram, store_id: str, action_type: type, reading: bool) -> set[str]:
    """Readers (*reading*) or writers of the store, over explicit data flows
    and behaviors."""
    out = set()
    for pool in d.pools:
        for flow in pool.explicit_data_flows:
            if (flow.source if reading else flow.target) == store_id:
                out.add(flow.target if reading else flow.source)
    for node_id, behavior in d.behaviors.items():
        for action in behavior.store_actions:
            if isinstance(action, action_type) and action.store == store_id:
                out.add(node_id)
    return out


def ref_reaches(d: Diagram, source: str, target: str) -> bool:
    if source == target:
        return True
    edges: dict[str, set[str]] = {}
    for pool in d.pools:
        for flow in [*pool.sequence_flows, *pool.explicit_data_flows]:
            edges.setdefault(flow.source, set()).add(flow.target)
    for flow in d.message_flows:
        edges.setdefault(flow.source, set()).add(flow.target)
    seen = {source}
    stack = [source]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def ref_only_on_external_messages(d: Diagram, object_id: str) -> bool:
    black_boxes = {p.id for p in d.pools if not p.nodes}
    appearances = 0
    external = 0
    for pool in d.pools:
        for flow in pool.sequence_flows:
            appearances += sum(1 for a in flow.attachments if a.object == object_id)
        for flow in pool.explicit_data_flows:
            if flow.object == object_id:
                appearances += 1
    for flow in d.message_flows:
        for att in flow.attachments:
            if att.object != object_id:
                continue
            appearances += 1
            if flow.source in black_boxes or flow.target in black_boxes:
                external += 1
    return appearances > 0 and appearances == external


def ref_consumers(d: Diagram, object_id: str) -> list[str]:
    return [
        n.id for n in ref_nodes(d) if any(io.object == object_id for io in ref_node_inputs(d, n.id))
    ]


def ref_store_reads(d: Diagram, node_id: str) -> list:
    behavior = d.behaviors.get(node_id)
    actions = [] if behavior is None else behavior.store_actions
    return [
        (a, () if a.filter is None else tuple(sorted(expr_refs(a.filter))))
        for a in actions
        if isinstance(a, StoreRead)
    ]


def ref_mappings_to(d: Diagram, object_id: str) -> list:
    return [m for m in sorted(d.mappings, key=lambda m: m.id) if m.target_object == object_id]


def ref_message_starts(d: Diagram) -> set[str]:
    fed = {f.target for f in d.message_flows}
    return {n.id for n in ref_nodes(d) if n.kind == "start_event_message" and n.id in fed}


def ref_mappings_into(d: Diagram, node_id: str) -> list:
    input_objects = {io.object for io in ref_node_inputs(d, node_id)}
    return [m for m in sorted(d.mappings, key=lambda m: m.id) if m.target_object in input_objects]


def ref_enabled(state, d: Diagram) -> set[str]:
    """The enablement rule applied to every node of the diagram."""
    ready = set()
    for node in ref_nodes(d):
        incoming = [f for p in d.pools for f in p.sequence_flows if f.target == node.id]
        if not incoming:
            flow_ids = {f.id for f in d.message_flows if f.target == node.id}
            pending = node.kind == "start_event_message" and flow_ids and node.id not in state.completed
            if pending and any(state.inbox.get(f) for f in flow_ids):
                ready.add(node.id)
            continue
        if node.id in state.completed and node.kind in ("start_event_none", "start_event_message"):
            continue
        marked = [state.tokens.get(f.id, 0) > 0 for f in incoming]
        if not (any(marked) if node.kind == "gateway_exclusive_data" else all(marked)):
            continue
        if all(
            io.optional or simulator._input_available(state, d, node, io, frozenset())
            for io in ref_node_inputs(d, node.id)
        ):
            ready.add(node.id)
    return ready


# ---------------------------------------------------------------------------
# Views


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_views_equal_scan_references(diagram):
    node_ids = [n.id for n in ref_nodes(diagram)]
    pool_ids = [p.id for p in diagram.pools]
    store_ids = [s.id for s in diagram.stores]
    object_ids = [o.id for o in diagram.objects]
    ids = node_ids + pool_ids + store_ids + object_ids + ["no-such-element"]
    sequence_flows = sorted((f for p in diagram.pools for f in p.sequence_flows), key=lambda f: f.id)

    for ident in ids:
        assert diagram.index.in_flows.get(ident, []) == [f for f in sequence_flows if f.target == ident]
        assert diagram.index.out_flows.get(ident, []) == [f for f in sequence_flows if f.source == ident]
        assert diagram.node(ident) is ref_node(diagram, ident)
        assert diagram.pool_of(ident) is ref_pool_of(diagram, ident)
        assert diagram.store(ident) is ref_store(diagram, ident)
        assert diagram.object(ident) is ref_object(diagram, ident)
        assert node_inputs(diagram, ident) == ref_node_inputs(diagram, ident)
        assert node_outputs(diagram, ident) == ref_node_outputs(diagram, ident)
        assert diagram.index.mappings_into(ident) == ref_mappings_into(diagram, ident)
        assert diagram.index.message_in.get(ident, []) == [f for f in diagram.message_flows if f.target == ident]
        assert diagram.index.message_out.get(ident, []) == [f for f in diagram.message_flows if f.source == ident]
        fed = any(io.channel == "store" for io in ref_node_inputs(diagram, ident))
        assert (ident in diagram.index.store_fed) == fed
        assert diagram.index.store_reads.get(ident, []) == ref_store_reads(diagram, ident)
    assert diagram.index.message_starts == ref_message_starts(diagram)
    # a plain tuple of the same fields would compare equal to a record
    index = diagram.index
    for table in (index.inputs, index.outputs):
        assert all(type(entry) is NodeIO for entries in table.values() for entry in entries)
    # the validator's links of each object, which it reads off inputs and
    # outputs: as sets for V1, and as lists for the objects it asks for
    produced, consumed, takers = validator._object_links(index, set(object_ids))
    assert validator._object_sets(index) == (set(produced), set(consumed), set(takers))
    for object_id in object_ids:
        assert diagram.index.mappings_to.get(object_id, []) == ref_mappings_to(diagram, object_id)
        assert sorted(produced.get(object_id, [])) == sorted(ref_object_sources(diagram, object_id))
        assert sorted(consumed.get(object_id, [])) == sorted(ref_object_targets(diagram, object_id))
        assert takers.get(object_id, []) == ref_consumers(diagram, object_id)
        assert validator._only_on_external_messages(
            index, produced, consumed, object_id
        ) == ref_only_on_external_messages(diagram, object_id)
        only = validator._object_links(index, {object_id})
        assert only == tuple({k: v for k, v in table.items() if k == object_id} for table in (produced, consumed, takers))
    assert {*produced, *consumed, *takers} <= set(object_ids)
    for store_id in [*store_ids, "no-such-element"]:
        readers = diagram.index.readers.get(store_id, set())
        writers = diagram.index.writers.get(store_id, set())
        assert readers == ref_store_accessors(diagram, store_id, StoreRead, True)
        assert writers == ref_store_accessors(diagram, store_id, StoreInsert, False)
    graph = node_ids + pool_ids + store_ids
    for a in graph:
        for b in graph:
            assert reaches(diagram, a, b) == ref_reaches(diagram, a, b), (a, b)


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_black_box_views_equal_scan_references(diagram):
    black_boxes = [p.id for p in diagram.pools if not p.nodes]
    ids = [n.id for n in ref_nodes(diagram)] + [p.id for p in diagram.pools] + ["no-such-element"]
    assert [ident for ident in ids if ident in diagram.index.black_boxes] == black_boxes
    external = [f for f in diagram.message_flows if f.source in black_boxes or f.target in black_boxes]
    assert list(diagram.index.external_flows.items()) == [(f.id, f) for f in external]


def test_views_hand_out_fresh_lists(travel):
    first = node_inputs(travel, "check_cc")
    first.clear()
    assert node_inputs(travel, "check_cc") == ref_node_inputs(travel, "check_cc") != []


def test_index_is_built_on_first_use_only():
    text = (FIXTURES / "eco.bpdmn.json").read_text(encoding="utf-8")
    diagram = parse_diagram(text)
    serialize_diagram(diagram)
    to_dot(diagram)
    assert "index" not in vars(diagram)
    index = diagram.index
    node_inputs(diagram, "m_check")
    assert diagram.index is index


# ---------------------------------------------------------------------------
# Candidate-only and incremental enablement


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_enabled_equals_all_nodes_reference(diagram, monkeypatch):
    """A run calls `enabled()` once to start and once after each firing,
    passing the set it had less the fired node. Each result must equal the
    rule applied to every node, at every step."""
    original_enabled, original_step = simulator.enabled, simulator.step
    checked = []
    calls = [0, 0]  # enabled() calls, firings

    def enabled_checked(state, d, prior=frozenset()):
        ready = original_enabled(state, d, prior)
        assert ready == ref_enabled(state, d), f"step {state.step_count}"
        checked.append(state.step_count)
        calls[0] += 1
        return ready

    def step_counted(state, d, node_id, **options):
        result = original_step(state, d, node_id, **options)
        calls[1] += 1
        return result

    monkeypatch.setattr(simulator, "enabled", enabled_checked)
    monkeypatch.setattr(simulator, "step", step_counted)
    try:
        simulator.init(diagram)
    except simulator.InitializationError:
        pytest.skip("the diagram cannot start without further start inputs")
    for policy, seed in [("smallest", 0), ("random", 1), ("random", 2)]:
        calls[:] = [0, 0]
        try:
            simulator.run(diagram, max_steps=200, policy=policy, seed=seed)
        except simulator.SimulationError:
            pass  # a failing guard ends the run; every earlier step was checked
        assert calls[0] == calls[1] + 1, (policy, seed)
    assert checked


def test_rebinding_a_filtered_binding_disables_a_store_reader():
    result = simulator.run(_rebound_filter())
    assert [e.node for e in result.trace if isinstance(e, simulator.NodeFired)] == ["w0", "g", "a", "e1"]
    assert result.status == "deadlocked"


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_step_accepts_exactly_the_enabled_nodes(diagram, monkeypatch):
    """`step(state, diagram, X)` checks only X; at every transition of the
    oracle it must accept exactly the nodes `enabled()` returns."""
    original_step = simulator.step
    candidates = [n.id for n in ref_nodes(diagram)] + ["no-such-node"]
    checked = []

    def step_checked(state, d, choose, **options):
        accepted = set()
        for node_id in candidates:
            try:
                original_step(copy.deepcopy(state), d, node_id)
            except simulator.SimulationError as exc:
                if str(exc).startswith(f"node {node_id} is not enabled: "):
                    continue  # refused before anything changed
            accepted.add(node_id)
        assert accepted == simulator.enabled(state, d), f"step {state.step_count}"
        checked.append(state.step_count)
        return original_step(state, d, choose, **options)

    monkeypatch.setattr(simulator, "step", step_checked)
    try:
        simulator.explore_interleavings(diagram)
    except simulator.InitializationError:
        pytest.skip("the diagram cannot start without further start inputs")
    except simulator.SimulationError:
        pass  # a failing guard ends the exploration; earlier transitions were checked
    assert checked or not simulator.enabled(simulator.init(diagram), diagram)


# ---------------------------------------------------------------------------
# Iterative oracle


def ref_key(state: simulator.ExecutionState) -> tuple:
    """The oracle's state key as sorted tuples, rebuilt from the whole state:
    tokens, the names of bound objects, store and inbox sizes and the
    completed set."""
    return (
        tuple(sorted(state.tokens.items())),
        tuple(sorted(state.bindings)),
        tuple(sorted((s, len(r)) for s, r in state.stores.items())),
        tuple(sorted((f, len(q)) for f, q in state.inbox.items() if q)),
        tuple(sorted(state.completed)),
    )


def ref_explore(d: Diagram, max_steps: int = 50, skip_errors: bool = False) -> set[frozenset[str]]:
    """The recursive depth-first search the oracle made before it kept its
    own stack: one `enabled()` per new state, one `step()` per transition,
    each state keyed by :func:`ref_key`. A firing that raises
    `SimulationError` ends the search, or with *skip_errors* is left out
    while the search goes on."""
    results: set[frozenset[str]] = set()
    seen: set = set()

    def explore(state, fired: frozenset[str]) -> None:
        key = (ref_key(state), fired)
        if key in seen:
            return
        seen.add(key)
        ready = simulator.enabled(state, d)
        if not ready or state.step_count >= max_steps:
            results.add(fired)
            return
        for choice in sorted(ready):
            try:
                child, _ = simulator.step(simulator._clone(state), d, choice)
            except simulator.SimulationError:
                if not skip_errors:
                    raise
                continue
            explore(child, fired | {choice})

    explore(simulator.init(d), frozenset())
    return results


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_oracle_equals_recursive_reference(diagram, monkeypatch):
    """The oracle's search without stubborn sets, which it falls back on
    where `max_steps` cuts a path, against the reference: the same outcome
    set and the same `enabled()` and `step()` calls in the same order, so its
    state and transition counts are the reference's.
    `tests/test_reduced_oracle.py` holds the reduced search to the
    reference."""
    calls: list = []
    original_enabled, original_step = simulator.enabled, simulator.step

    def enabled_logged(state, d, prior=frozenset()):
        calls.append(("enabled", state.step_count))
        return original_enabled(state, d, prior)

    def step_logged(state, d, choose, **options):
        calls.append(("step", state.step_count, choose))
        return original_step(state, d, choose, **options)

    monkeypatch.setattr(simulator, "enabled", enabled_logged)
    monkeypatch.setattr(simulator, "step", step_logged)

    def outcome(explore):
        calls.clear()
        try:
            result = explore(diagram)
        except simulator.InitializationError:
            pytest.skip("the diagram cannot start without further start inputs")
        except simulator.SimulationError as exc:
            result = repr(exc)  # a failing guard ends both searches alike
        return result, list(calls)

    def unreduced(d: Diagram) -> set[frozenset[str]]:
        return simulator._search(d, 50, simulator._Reduction(d), False)

    (result, calls_made), (expected, reference) = outcome(unreduced), outcome(ref_explore)
    assert result == expected
    assert calls_made == reference


def _branch_by_order() -> Diagram:
    """``s -> w0 -> split (parallel)``, then ``gw (exclusive) -> p | q -> m
    (exclusive merge) -> join`` beside ``c -> join``, and ``join -> e``. w0
    sets o.v := 0 and c sets o.v := 1; gw goes to p while o.v = 0, else to
    q. Once both branches reach the join, the two orders differ only in
    which of p and q completed."""
    kinds = {"s": "start_event_none", "w0": "task", "split": "gateway_parallel", "gw": "gateway_exclusive_data"}
    kinds |= {"p": "task", "q": "task", "m": "gateway_exclusive_data", "c": "task"}
    kinds |= {"join": "gateway_parallel", "e": "end_event"}
    edges = [("s", "w0"), ("w0", "split"), ("split", "gw"), ("split", "c"), ("gw", "p"), ("gw", "q")]
    edges += [("p", "m"), ("q", "m"), ("m", "join"), ("c", "join"), ("join", "e")]
    flows = [SequenceFlow(f"f{k}", source, target) for k, (source, target) in enumerate(edges)]
    flows[4].guard = parse_expr("o.v = 0")
    return Diagram(
        "branch_by_order",
        pools=[Pool("P", "P", [Node(i, i, kind) for i, kind in kinds.items()], flows)],
        objects=[DataObject("o", "o", variables=[Variable("v", "number")])],
        behaviors={
            "w0": TaskBehavior(effects=[Effect("o", "v", parse_expr("0"))]),
            "c": TaskBehavior(effects=[Effect("o", "v", parse_expr("1"))]),
        },
    )


def _read_after_write() -> Diagram:
    """``s -> split (parallel) -> {w, r} -> join -> e``: w inserts a record
    into store D, and r reads one into R, which is not among its inputs.
    Once both fired, the two orders differ only in whether R is bound."""
    kinds = {"s": "start_event_none", "split": "gateway_parallel", "w": "task", "r": "task"}
    kinds |= {"join": "gateway_parallel", "e": "end_event"}
    edges = [("s", "split"), ("split", "w"), ("split", "r"), ("w", "join"), ("r", "join"), ("join", "e")]
    flows = [SequenceFlow(f"f{k}", source, target) for k, (source, target) in enumerate(edges)]
    return Diagram(
        "read_after_write",
        pools=[Pool("P", "P", [Node(i, i, kind) for i, kind in kinds.items()], flows)],
        stores=[DataStore("D", "D", entities=[Entity("E", [Variable("v", "number")])])],
        objects=[DataObject("R", "R", variables=[Variable("E.v", "number")])],
        behaviors={
            "w": TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})]),
            "r": TaskBehavior(store_actions=[StoreRead("D", "E", "R", None)]),
        },
    )


@pytest.mark.parametrize(
    "diagram",
    DIAGRAMS
    + [pytest.param(random_regions(seed), id=f"regions{seed}") for seed in range(30)]
    + [
        pytest.param(_branch_by_order(), id="branch-by-order"),
        pytest.param(_read_after_write(), id="read-after-write"),
    ],
)
def test_oracle_keys_are_equal_exactly_when_reference_keys_are(diagram, monkeypatch):
    """The oracle keys a state by masks it carries along the path; along
    every path of one search, two of its keys must be equal exactly when
    the keys rebuilt from the whole state (:func:`ref_key`) are."""
    original = simulator._freeze_state
    references: dict = {}  # oracle key -> reference key
    keys: dict = {}  # reference key -> oracle key

    def freeze_checked(state, done, bound):
        key, reference = original(state, done, bound), ref_key(state)
        assert references.setdefault(key, reference) == reference, f"step {state.step_count}"
        assert keys.setdefault(reference, key) == key, f"step {state.step_count}"
        return key

    monkeypatch.setattr(simulator, "_freeze_state", freeze_checked)
    try:
        simulator.explore_interleavings(diagram)
    except simulator.InitializationError:
        pytest.skip("the diagram cannot start without further start inputs")
    except simulator.SimulationError:
        pass  # a failing guard ends the exploration; earlier keys were checked
    assert references


def test_oracle_explores_a_chain_longer_than_the_recursion_limit(monkeypatch):
    """It also builds no footprint: with one enabled node per state, no
    stubborn set is built."""
    import sys

    asked = []
    original = DiagramIndex.footprint
    monkeypatch.setattr(DiagramIndex, "footprint", lambda index, node_id: asked.append(node_id) or original(index, node_id))
    n = sys.getrecursionlimit() + 200
    tasks = [f"t{i}" for i in range(n)]
    order = ["s", *tasks, "e"]
    pool = Pool(
        "p",
        "P",
        nodes=[Node("s", "s", "start_event_none"), *(Node(t, t, "task") for t in tasks), Node("e", "e", "end_event")],
        sequence_flows=[SequenceFlow(f"f{i}", a, b) for i, (a, b) in enumerate(zip(order, order[1:]))],
    )
    diagram = Diagram("chain", pools=[pool])
    # the start event fires in `init`, outside the search
    assert simulator.explore_interleavings(diagram, max_steps=n + 1) == {frozenset(order[1:])}
    assert asked == []
