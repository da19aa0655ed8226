"""XPDL package generation.

Store fields become ``DataField`` declarations (``<storeId>.<Entity>.<field>``),
objects become ``DataObject`` elements referencing their data fields, tasks
become ``Activity`` elements with ``InputSets``/``OutputSets`` and
``ActualParameter`` entries, data mappings become ``Assignments`` blocks, and
the objects attached to a message flow map to its ``Message`` element. Each
gateway is an ``Activity`` holding a ``Route`` and each event one holding an
``Event``, so every ``Transition`` names activities of its process.

A data-based gateway's condition, and the data inputs and outputs of
gateways and events, have no place in the package: they are left out with
one warning per node, naming what it loses. Some of the model is left out
without a warning: task behaviours (effects, store actions, instances) and
the multi-instance flag; a store's relationships, generalizations, icon and
collapsed flag; the diagram's start inputs; an object's stereotype,
physicality, url, state and origin store; and the ``optional`` flag of an
input.

Each task references a placeholder ``TaskApplication``; applications proper
are outside the scope of the generated fragment. The text is written from the
model in document order by :class:`bpdmn.codegen_bpel.XmlWriter`, the writer
both translators share.
"""

from __future__ import annotations

from . import validator
# GenerationError: one class for both translators, importable from either
from .codegen_bpel import GenerationError, XmlWriter
from .expr import print_expr
from .model import DataStore, Diagram, Node, node_inputs, node_outputs

_BASIC_TYPES = {"string": "STRING", "number": "FLOAT", "boolean": "BOOLEAN"}
# gateway and event kinds -> the Route, or the element inside an Event, that
# their Activity holds, and its attributes
_ROUTES_AND_EVENTS = {
    "gateway_exclusive_data": ("Route", {"GatewayType": "Exclusive"}),
    "gateway_parallel": ("Route", {"GatewayType": "Parallel"}),
    "start_event_none": ("StartEvent", {"Trigger": "None"}),
    "start_event_message": ("StartEvent", {"Trigger": "Message"}),
    "end_event": ("EndEvent", {"Result": "None"}),
    "intermediate_message": ("IntermediateEvent", {"Trigger": "Message"}),
}


def to_xpdl(diagram: Diagram) -> tuple[str, list[str]]:
    """Translate a valid diagram into an XPDL package fragment.

    Returns the XML text and a list of warnings. Raises
    :class:`GenerationError` when the diagram has validation errors.
    """
    problem = validator.errors_text(diagram)
    if problem is not None:
        raise GenerationError(problem)
    warnings: list[str] = []

    out = XmlWriter()
    out.open("Package", {"Id": diagram.id, "Name": diagram.id})

    diagram_stores: list[DataStore] = []
    scoped_stores: dict[str, list[DataStore]] = {}
    for store in sorted(diagram.stores, key=lambda s: s.id):
        if store.scope.kind == "diagram":
            diagram_stores.append(store)
        else:
            scoped_stores.setdefault(store.scope.sub_process, []).append(store)
    if diagram_stores:
        out.open("DataFields")
        for store in diagram_stores:
            _write_store_fields(out, store)
        out.close()

    if diagram.objects:
        out.open("DataObjects")
        for obj in sorted(diagram.objects, key=lambda o: o.id):
            out.open("DataObject", {"Id": obj.id, "Name": obj.name})
            out.open("DataFields")
            for var in sorted(obj.variables, key=lambda v: v.name):
                if var.vtype != "record":
                    out.leaf("DataField", {"Id": var.name})
            out.close()
            out.close()
        out.close()

    if diagram.message_flows:
        out.open("Messages")
        for flow in sorted(diagram.message_flows, key=lambda f: f.id):
            out.open("Message", {"Id": flow.id, "From": flow.source, "To": flow.target})
            # a message carries every attached object, whatever its direction
            for obj in sorted({att.object for att in flow.attachments}):
                out.leaf("DataObject", {"Id": obj})
            out.close()
        out.close()

    out.open("WorkflowProcesses")
    for pool in sorted(diagram.pools, key=lambda p: p.id):
        if not pool.nodes:
            continue  # black-box pools stay opaque
        out.open("WorkflowProcess", {"Id": pool.id, "Name": pool.name})
        out.open("Activities")
        for node in sorted(pool.iter_nodes(), key=lambda n: n.id):
            if node.kind in ("task", "sub_process"):
                _write_activity(out, diagram, node, scoped_stores)
            else:
                _write_route_or_event(out, node)
                left_out = _left_out(diagram, node)
                if left_out:
                    warnings.append(
                        f"{node.kind.replace('_', '-')} {node.id} of pool {pool.id}:"
                        f" {' and '.join(left_out)} left out of the XPDL"
                    )
        out.close()
        out.open("Transitions")
        for flow in sorted(pool.sequence_flows, key=lambda f: f.id):
            out.open("Transition", {"Id": flow.id, "From": flow.source, "To": flow.target})
            if flow.guard is not None:
                out.leaf("Condition", {"Type": "CONDITION"}, print_expr(flow.guard))
            out.close()
        out.close()
        out.close()
    out.close()
    out.close()
    return out.text(), warnings


def _write_store_fields(out: XmlWriter, store: DataStore) -> None:
    for entity in sorted(store.entities, key=lambda e: e.name):
        for fld in sorted(entity.fields, key=lambda f: f.name):
            if fld.vtype == "record":
                continue  # record leaves appear as their own dotted fields
            out.open("DataField", {"Id": f"{store.id}.{entity.name}.{fld.name}", "Name": fld.name})
            out.open("DataType")
            out.leaf("BasicType", {"Type": _BASIC_TYPES[fld.vtype]})
            out.close()
            out.close()


def _write_route_or_event(out: XmlWriter, node: Node) -> None:
    tag, attrs = _ROUTES_AND_EVENTS[node.kind]
    out.open("Activity", {"Id": node.id, "Name": node.name})
    if tag == "Route":
        out.leaf(tag, attrs)
    else:
        out.open("Event")
        out.leaf(tag, attrs)
        out.close()
    out.close()


def _left_out(diagram: Diagram, node: Node) -> list[str]:
    """What the Activity of gateway or event *node* cannot hold: its
    condition, and the objects it takes or gives."""
    left_out = ["its condition"] if node.condition is not None else []
    for what, links in (("inputs", node_inputs), ("outputs", node_outputs)):
        objects = sorted({io.object for io in links(diagram, node.id)})
        if objects:
            left_out.append(f"its data {what} {', '.join(objects)}")
    return left_out


def _actual_parameters(diagram: Diagram, node_id: str) -> list[str]:
    params = []
    for io in sorted(node_inputs(diagram, node_id), key=lambda io: (io.object, io.via)):
        obj = diagram.object(io.object)
        for var in sorted(obj.variables, key=lambda v: v.name):
            if var.vtype == "record":
                continue
            params.append(f"{obj.id}.{var.name}")
    return params


def _write_activity(
    out: XmlWriter, diagram: Diagram, node: Node, scoped_stores: dict[str, list[DataStore]]
) -> None:
    out.open("Activity", {"Id": node.id, "Name": node.name})

    stores = scoped_stores.get(node.id)
    if stores:
        # stores scoped to this sub-process declare their fields locally
        out.open("DataFields")
        for store in stores:
            _write_store_fields(out, store)
        out.close()

    inputs = sorted({io.object for io in node_inputs(diagram, node.id)})
    outputs = sorted({io.object for io in node_outputs(diagram, node.id) if io.channel != "store"})
    store_outputs = sorted(
        {io.object for io in node_outputs(diagram, node.id) if io.channel == "store"}
        - set(outputs)
    )
    for sets, one_set, item, objects in (
        ("InputSets", "InputSet", "Input", inputs),
        ("OutputSets", "OutputSet", "Output", outputs + store_outputs),
    ):
        if objects:
            out.open(sets)
            out.open(one_set)
            for obj in objects:
                out.leaf(item, {"ArtifactId": obj})
            out.close()
            out.close()

    out.open("Implementation")
    out.open("Task")
    out.open("TaskApplication", {"Id": f"{node.id}_application"})
    params = _actual_parameters(diagram, node.id)
    if params:
        out.open("ActualParameters")
        for param in params:
            out.leaf("ActualParameter", text=param)
        out.close()
    out.close()
    out.close()
    out.close()

    for mapping in diagram.index.mappings_into(node.id):
        out.open("Assignments", {"Id": mapping.id})
        for rule in mapping.rules:
            out.open("Assignment")
            out.leaf("Target", text=f"{mapping.target_object}.{rule.to}")
            out.leaf("Expression", text=print_expr(rule.from_expr))
            out.close()
        out.close()
    out.close()
