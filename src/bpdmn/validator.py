"""Structural well-formedness checking over a parsed diagram.

Nine fixed rules, applied in order; the result is a diagnostic list sorted
by rule id then element id. All data-semantics rules are errors, the single
cosmetic rule (V9) is a warning. The validator never mutates its input.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import NamedTuple

from . import model
from .expr import expr_refs
from .model import (
    Diagram,
    DiagramIndex,
    reaches,
    resolve_scope,
    strong_components,
)


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    rule: str
    severity: Severity
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule} {self.severity.value} {self.element}: {self.message}"

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


def _error(rule: str, element: str, message: str) -> Diagnostic:
    return Diagnostic(rule, Severity.ERROR, element, message)


def validate(diagram: Diagram) -> list[Diagnostic]:
    """Apply the full rule catalog; an empty list means the model is valid."""
    diagnostics: list[Diagnostic] = []
    diagnostics += _v1_sources_and_targets(diagram)
    diagnostics += _v2_optional_inputs_only(diagram)
    diagnostics += _v3_mappings(diagram)
    diagnostics += _v4_store_structure(diagram)
    diagnostics += _v5_store_scope(diagram)
    diagnostics += _v6_message_objects_cross_pool(diagram)
    diagnostics += _v7_pool_shape(diagram)
    diagnostics += _v8_origin_store_variables(diagram)
    diagnostics += _v9_collapsed_empty_stores(diagram)
    diagnostics.sort(key=lambda d: (d.rule, d.element, d.message))
    return diagnostics


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def errors_text(diagram: Diagram) -> str | None:
    """Why the diagram may not be translated, analyzed or simulated: its
    validation errors joined into one message, or ``None`` when it has none."""
    errors = [str(d) for d in validate(diagram) if d.is_error]
    return "diagram has validation errors: " + "; ".join(errors) if errors else None


_Links = dict[str, list[tuple[str, str]]]  # object id -> (endpoint id, flow id) pairs
_DATA_CHANNELS = ("sequence", "explicit")


def _object_sets(index: DiagramIndex) -> tuple[set[str], set[str], set[str]]:
    """The objects with a link, read off ``index.outputs`` and
    ``index.inputs``: those produced somewhere (on an endpoint's sequence
    and explicit outputs, and its message inputs), those consumed somewhere
    (the mirror image), and those a node takes as an input over any channel.
    A store-channel entry, the node end of a flow from or to a store, is
    neither produced nor consumed: the store end is the link."""
    outputs, inputs = index.outputs.values(), index.inputs.values()
    produced = {obj for ios in outputs for obj, _, _, channel in ios if channel in _DATA_CHANNELS}
    produced.update(obj for ios in inputs for obj, _, _, channel in ios if channel == "message")
    consumed = {obj for ios in inputs for obj, _, _, channel in ios if channel in _DATA_CHANNELS}
    consumed.update(obj for ios in outputs for obj, _, _, channel in ios if channel == "message")
    nodes = index.nodes
    taken = {io.object for endpoint, ios in index.inputs.items() if endpoint in nodes for io in ios}
    return produced, consumed, taken


def _object_links(index: DiagramIndex, objects: set[str]) -> tuple[_Links, _Links, dict[str, list[str]]]:
    """The links of each of *objects* that has one, as :func:`_object_sets`
    finds them: where it is produced and where it is consumed, as (endpoint,
    flow) pairs in table order, and the nodes taking it as an input, in node
    order, so V3 asks ``reaches`` in a fixed order. Built only for the
    objects a rule reads more than membership of: those V1 would report, and
    the ends of the mappings, for V3."""
    produced: _Links = {}
    consumed: _Links = {}
    for endpoint, ios in index.outputs.items():
        for obj, _, via, channel in ios:
            if obj in objects and channel != "store":
                (consumed if channel == "message" else produced).setdefault(obj, []).append((endpoint, via))
    takers: dict[str, list[str]] = {}
    nodes = index.nodes
    for endpoint, ios in index.inputs.items():
        for obj, _, via, channel in ios:
            if obj in objects:
                if endpoint in nodes:
                    takers.setdefault(obj, []).append(endpoint)
                if channel != "store":
                    (produced if channel == "message" else consumed).setdefault(obj, []).append((endpoint, via))
    position: dict[str, int] = {}  # node id -> its place in node order, built on first need
    for obj, found in takers.items():
        if len(found) > 1:
            position = position or {node_id: k for k, node_id in enumerate(nodes)}
            takers[obj] = sorted(set(found), key=position.__getitem__)
    return produced, consumed, takers


def _only_on_external_messages(index: DiagramIndex, produced: _Links, consumed: _Links, object_id: str) -> bool:
    """True when the object has links and each one is carried by a message
    flow to or from a black-box pool (data received from or sent outside
    the modeled diagram)."""
    links = [*produced.get(object_id, ()), *consumed.get(object_id, ())]
    return bool(links) and all(via in index.external_flows for _, via in links)


def _v1_sources_and_targets(diagram: Diagram) -> list[Diagnostic]:
    """V1: every used object is produced somewhere and consumed somewhere."""
    index = diagram.index
    produced, consumed, taken = _object_sets(index)
    mapping_sources = {m.source_object for m in diagram.mappings}
    failing = []
    for object_id in sorted({*produced, *consumed, *index.mappings_to, *mapping_sources}):
        has_source = object_id in produced or object_id in index.mappings_to
        has_target = object_id in consumed or object_id in mapping_sources or object_id in taken
        if not (has_source and has_target):
            failing.append((object_id, has_source, has_target))
    if not failing:
        return []
    producing, consuming, _ = _object_links(index, {object_id for object_id, _, _ in failing})
    out = []
    for object_id, has_source, has_target in failing:
        if _only_on_external_messages(index, producing, consuming, object_id):
            continue
        if not has_source:
            out.append(_error("V1", object_id, "object is never produced (no source)"))
        if not has_target:
            out.append(_error("V1", object_id, "object is never consumed (no target)"))
    return out


def _v2_optional_inputs_only(diagram: Diagram) -> list[Diagnostic]:
    """V2: the optional marker is allowed on input attachments only."""
    out = []
    flows: list[tuple[str, list[model.ObjectAttachment]]] = []
    for pool in diagram.pools:
        flows += [(f.id, f.attachments) for f in pool.sequence_flows]
    flows += [(f.id, f.attachments) for f in diagram.message_flows]
    for flow_id, attachments in flows:
        for att in attachments:
            if att.optional and att.direction != "input":
                out.append(
                    _error("V2", flow_id, f"object {att.object}: optional marker on an output")
                )
    return out


def _v3_mappings(diagram: Diagram) -> list[Diagnostic]:
    """V3: mappings connect a produced object to a consumed one on a
    connected path, and every copy-rule path resolves."""
    out = []
    index = diagram.index
    if not diagram.mappings:
        return out
    ends = {end for m in diagram.mappings for end in (m.source_object, m.target_object)}
    produced, _, takers = _object_links(index, ends)
    for mapping in diagram.mappings:
        source = diagram.object(mapping.source_object)
        target = diagram.object(mapping.target_object)
        producers = [endpoint for endpoint, _ in produced.get(source.id, ())]
        if not producers and source.id not in index.mappings_to:
            out.append(
                _error("V3", mapping.id, f"source object {source.id} is never produced")
            )
        consumers = takers.get(target.id, ())
        if not consumers:
            out.append(
                _error("V3", mapping.id, f"target object {target.id} is not an input of any node")
            )
        elif producers and not any(
            reaches(diagram, p, c) for p in producers for c in consumers
        ):
            out.append(
                _error(
                    "V3",
                    mapping.id,
                    f"no path connects a producer of {source.id} to a consumer of {target.id}",
                )
            )
        source_vars = source.variable_names()
        target_scalars = {
            v.name for v in target.variables if v.vtype in model.SCALAR_VTYPES
        }
        for rule in mapping.rules:
            for ref in sorted(expr_refs(rule.from_expr)):
                head, _, rest = ref.partition(".")
                if head != source.id or (rest and rest not in source_vars):
                    out.append(
                        _error(
                            "V3",
                            mapping.id,
                            f"copy source {ref!r} does not resolve in object {source.id}",
                        )
                    )
            if rule.to not in target_scalars:
                out.append(
                    _error(
                        "V3",
                        mapping.id,
                        f"copy target {rule.to!r} does not resolve to a scalar of {target.id}",
                    )
                )
    return out


def _v4_store_structure(diagram: Diagram) -> list[Diagnostic]:
    """V4: entity graphs are well formed (unique entity names, existing
    relationship endpoints, acyclic generalizations)."""
    out = []
    for store in diagram.stores:
        names = [e.name for e in store.entities]
        for name in sorted(n for n, count in Counter(names).items() if count > 1):
            out.append(_error("V4", store.id, f"duplicate entity name {name!r}"))
        entity_names = set(names)
        for rel in store.relationships:
            for end in (rel.left, rel.right):
                if end not in entity_names:
                    out.append(
                        _error("V4", store.id, f"relationship {rel.name!r}: unknown entity {end!r}")
                    )
        parents: dict[str, list[str]] = {}
        for gen in store.generalizations:
            for end in (gen.parent, gen.child):
                if end not in entity_names:
                    out.append(
                        _error("V4", store.id, f"generalization endpoint {end!r} does not exist")
                    )
            parents.setdefault(gen.child, []).append(gen.parent)
        # a cycle is a component of two or more entities (no entity generalizes itself)
        if any(len(c) > 1 for c in strong_components(parents)):
            out.append(_error("V4", store.id, "generalization edges form a cycle"))
    return out


def _v5_store_scope(diagram: Diagram) -> list[Diagnostic]:
    """V5: every node reading or writing a store lies inside its scope."""
    out = []
    index = diagram.index
    for store in diagram.stores:
        allowed = resolve_scope(diagram, store.id)
        accessors = index.readers.get(store.id, set()) | index.writers.get(store.id, set())
        for node_id in sorted(accessors - allowed):
            out.append(
                _error("V5", node_id, f"node accesses store {store.id} outside its scope")
            )
    return out


def _v6_message_objects_cross_pool(diagram: Diagram) -> list[Diagnostic]:
    """V6: message-attached objects travel only between distinct pools."""
    out = []
    for flow in diagram.message_flows:
        if not flow.attachments:
            continue
        src_pool = diagram.pool_of(flow.source)
        dst_pool = diagram.pool_of(flow.target)
        if src_pool.id == dst_pool.id:
            out.append(
                _error("V6", flow.id, "message flow with objects connects a pool to itself")
            )
    return out


def _v7_pool_shape(diagram: Diagram) -> list[Diagnostic]:
    """V7: each (non-black-box) pool has at least one start and one end
    event, each exclusive gateway at most one unguarded (default) outgoing
    flow, and only flows out of exclusive gateways carry a guard; flow
    endpoint existence is enforced at construction."""
    out = []
    for pool in diagram.pools:
        if not pool.nodes:
            continue  # black-box pool: opaque external participant
        kinds = set()
        for node in pool.iter_nodes():
            kinds.add(node.kind)
            if node.kind != "gateway_exclusive_data":
                continue
            defaults = [f.id for f in diagram.index.out_flows.get(node.id, ()) if f.guard is None]
            if len(defaults) > 1:
                message = f"exclusive gateway has more than one unguarded flow: {', '.join(defaults)}"
                out.append(_error("V7", node.id, message))
        for flow in pool.sequence_flows:
            if flow.guard is not None and diagram.node(flow.source).kind != "gateway_exclusive_data":
                message = f"guard on a flow out of {flow.source}, which is not an exclusive gateway"
                out.append(_error("V7", flow.id, message))
        if not (kinds & model.START_KINDS):
            out.append(_error("V7", pool.id, "pool has no start event"))
        if "end_event" not in kinds:
            out.append(_error("V7", pool.id, "pool has no end event"))
    return out


def _v8_origin_store_variables(diagram: Diagram) -> list[Diagnostic]:
    """V8: an object extracted from a store carries only variables of that
    store's entity graph."""
    out = []
    for obj in diagram.objects:
        if obj.origin_store is None:
            continue
        store = diagram.store(obj.origin_store)
        known = store.qualified_field_names()
        for var in obj.variables:
            if var.vtype == "record":
                continue
            if var.name not in known:
                out.append(
                    _error(
                        "V8",
                        obj.id,
                        f"variable {var.name!r} does not exist in store {store.id}",
                    )
                )
    return out


def _v9_collapsed_empty_stores(diagram: Diagram) -> list[Diagnostic]:
    """V9 (warning): a store drawn collapsed/expandable but with no internal
    structure to expand."""
    out = []
    for store in diagram.stores:
        if store.collapsed and not store.entities:
            out.append(
                Diagnostic(
                    "V9",
                    Severity.WARNING,
                    store.id,
                    "collapsed store has no internal structure",
                )
            )
    return out
