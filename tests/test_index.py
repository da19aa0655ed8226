"""The index-backed derived views against the scans they replaced.

Each reference below is the scan over every pool and flow that the view
used before the views were built once into :class:`bpdmn.model.DiagramIndex`.
"""

from __future__ import annotations

import pytest

from bpdmn import simulator, validator
from bpdmn.format import parse_diagram, serialize_diagram
from bpdmn.model import (
    Diagram,
    LinkKind,
    NodeIO,
    NotFoundError,
    ObjectLink,
    node_inputs,
    node_outputs,
    object_sources,
    object_targets,
    reaches,
)
from bpdmn.render import to_dot

from conftest import FIXTURES
from randgen import random_diagram

FIXTURE_PATHS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))
RANDOM_SEEDS = range(60)
DIAGRAMS = [
    pytest.param(parse_diagram((FIXTURES / relpath).read_text(encoding="utf-8")), id=relpath)
    for relpath in FIXTURE_PATHS
] + [pytest.param(random_diagram(seed), id=f"random{seed}") for seed in RANDOM_SEEDS]


# ---------------------------------------------------------------------------
# Scan-based references


def ref_node(d: Diagram, node_id: str):
    for n in d.iter_nodes():
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


def ref_object_sources(d: Diagram, object_id: str) -> list[ObjectLink]:
    store_ids = {s.id for s in d.stores}
    out = []
    for pool in d.pools:
        for flow in pool.sequence_flows:
            for att in flow.attachments:
                if att.object != object_id or att.direction != "output":
                    continue
                src = ref_node(d, flow.source)
                if src is not None and src.kind == "start_event_message":
                    out.append(ObjectLink(LinkKind.MESSAGE_START, flow.source, flow.id))
                else:
                    out.append(ObjectLink(LinkKind.ACTIVITY_OUTPUT, flow.source, flow.id))
        for flow in pool.explicit_data_flows:
            if flow.object != object_id:
                continue
            if flow.source in store_ids:
                out.append(ObjectLink(LinkKind.STORE_EXTRACTION, flow.source, flow.id))
            elif flow.target not in store_ids:
                out.append(ObjectLink(LinkKind.ACTIVITY_OUTPUT, flow.source, flow.id))
    for flow in d.message_flows:
        for att in flow.attachments:
            if att.object == object_id and att.direction == "input":
                out.append(ObjectLink(LinkKind.MESSAGE_RECEIPT, flow.target, flow.id))
    return out


def ref_object_targets(d: Diagram, object_id: str) -> list[ObjectLink]:
    store_ids = {s.id for s in d.stores}
    out = []
    for pool in d.pools:
        for flow in pool.sequence_flows:
            for att in flow.attachments:
                if att.object == object_id and att.direction == "input":
                    out.append(ObjectLink(LinkKind.ACTIVITY_INPUT, flow.target, flow.id))
        for flow in pool.explicit_data_flows:
            if flow.object != object_id:
                continue
            if flow.target in store_ids:
                out.append(ObjectLink(LinkKind.STORE_INSERTION, flow.target, flow.id))
            elif flow.source not in store_ids:
                out.append(ObjectLink(LinkKind.ACTIVITY_INPUT, flow.target, flow.id))
    for flow in d.message_flows:
        for att in flow.attachments:
            if att.object == object_id and att.direction == "output":
                out.append(ObjectLink(LinkKind.MESSAGE_SEND, flow.source, flow.id))
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
            if d.is_black_box_pool(flow.source) or d.is_black_box_pool(flow.target):
                external += 1
    return appearances > 0 and appearances == external


def ref_consumers(d: Diagram, object_id: str) -> list[str]:
    return [
        n.id for n in d.iter_nodes() if any(io.object == object_id for io in ref_node_inputs(d, n.id))
    ]


def ref_enabled(state, d: Diagram, behaviors) -> set[str]:
    """The enablement rule applied to every node of the diagram."""
    ready = set()
    for node in d.iter_nodes():
        incoming = [f for p in d.pools for f in p.sequence_flows if f.target == node.id]
        if not incoming:
            if node.id in state.pending_starts:
                pool = ref_pool_of(d, node.id)
                flow_ids = {f.id for f in d.message_flows if f.target == node.id}
                if pool is not None and any(m.flow in flow_ids for m in state.inbox.get(pool.id, [])):
                    ready.add(node.id)
            continue
        if node.id in state.completed and node.kind in ("start_event_none", "start_event_message"):
            continue
        marked = [state.tokens.get(f.id, 0) > 0 for f in incoming]
        if not (any(marked) if node.kind == "gateway_exclusive_data" else all(marked)):
            continue
        behavior = behaviors.get(node.id)
        if all(
            io.optional or simulator._input_available(state, d, node, io, behavior, frozenset())
            for io in ref_node_inputs(d, node.id)
        ):
            ready.add(node.id)
    return ready


# ---------------------------------------------------------------------------
# Views


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_views_equal_scan_references(diagram):
    node_ids = [n.id for n in diagram.iter_nodes()]
    pool_ids = [p.id for p in diagram.pools]
    store_ids = [s.id for s in diagram.stores]
    object_ids = [o.id for o in diagram.objects]
    ids = node_ids + pool_ids + store_ids + object_ids + ["no-such-element"]

    for ident in ids:
        assert diagram.node(ident) is ref_node(diagram, ident)
        assert diagram.pool_of(ident) is ref_pool_of(diagram, ident)
        assert diagram.store(ident) is ref_store(diagram, ident)
        assert diagram.object(ident) is ref_object(diagram, ident)
        assert node_inputs(diagram, ident) == ref_node_inputs(diagram, ident)
        assert node_outputs(diagram, ident) == ref_node_outputs(diagram, ident)
    for object_id in object_ids:
        assert object_sources(diagram, object_id) == ref_object_sources(diagram, object_id)
        assert object_targets(diagram, object_id) == ref_object_targets(diagram, object_id)
        assert diagram.index.consumers.get(object_id, []) == ref_consumers(diagram, object_id)
        assert validator._only_on_external_messages(diagram, object_id) == ref_only_on_external_messages(
            diagram, object_id
        )
    with pytest.raises(NotFoundError):
        object_sources(diagram, "no-such-element")
    with pytest.raises(NotFoundError):
        object_targets(diagram, "no-such-element")
    graph = node_ids + pool_ids + store_ids
    for a in graph:
        for b in graph:
            assert reaches(diagram, a, b) == ref_reaches(diagram, a, b), (a, b)


def test_views_hand_out_fresh_lists(travel):
    first = node_inputs(travel, "check_cc")
    first.clear()
    assert node_inputs(travel, "check_cc") == ref_node_inputs(travel, "check_cc") != []
    sources = object_sources(travel, "input")
    sources.clear()
    assert object_sources(travel, "input") == ref_object_sources(travel, "input") != []


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
# Candidate-only enablement


@pytest.mark.parametrize("diagram", DIAGRAMS)
def test_enabled_equals_all_nodes_reference(diagram, monkeypatch):
    original = simulator.enabled
    checked = []

    def enabled_checked(state, d, behaviors=None):
        ready = original(state, d, behaviors)
        expected = ref_enabled(state, d, d.behaviors if behaviors is None else behaviors)
        assert ready == expected, f"step {state.step_count}"
        checked.append(state.step_count)
        return ready

    monkeypatch.setattr(simulator, "enabled", enabled_checked)
    try:
        simulator.init(diagram)
    except simulator.InitializationError:
        pytest.skip("the diagram cannot start without further start inputs")
    for policy, seed in [("smallest", 0), ("random", 1), ("random", 2)]:
        try:
            simulator.run(diagram, max_steps=200, policy=policy, seed=seed)
        except simulator.SimulationError:
            pass  # a failing guard ends the run; every earlier step was checked
    assert checked
