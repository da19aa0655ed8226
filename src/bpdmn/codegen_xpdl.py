"""XPDL package generation.

Store fields become ``DataField`` declarations (``<storeId>.<Entity>.<field>``),
objects become ``DataObject`` elements referencing their data fields, tasks
become ``Activity`` elements with ``InputSets``/``OutputSets`` and
``ActualParameter`` entries, data mappings become ``Assignments`` blocks, and
message-flow objects map to ``Message`` elements. Unlike BPEL, no data
construct is lost in the translation.

Each task references a placeholder ``TaskApplication``; applications proper
are outside the scope of the generated fragment. The text comes from
:func:`bpdmn.codegen_bpel.xml_text`, the writer both translators share.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from . import validator
# GenerationError: one class for both translators, importable from either
from .codegen_bpel import GenerationError, xml_text
from .expr import print_expr
from .model import DataStore, Diagram, Node, node_inputs, node_outputs

_BASIC_TYPES = {"string": "STRING", "number": "FLOAT", "boolean": "BOOLEAN"}


def to_xpdl(diagram: Diagram) -> tuple[str, list[str]]:
    """Translate a valid diagram into an XPDL package fragment.

    Returns the XML text and a list of warnings. Raises
    :class:`GenerationError` when the diagram has validation errors.
    """
    problem = validator.errors_text(diagram)
    if problem is not None:
        raise GenerationError(problem)
    warnings: list[str] = []

    package = ET.Element("Package", {"Id": diagram.id, "Name": diagram.id})

    diagram_stores = [s for s in diagram.stores if s.scope.kind == "diagram"]
    scoped_stores = {s.scope.sub_process: s for s in diagram.stores if s.scope.kind == "sub_process"}
    if diagram_stores:
        fields_el = ET.SubElement(package, "DataFields")
        for store in sorted(diagram_stores, key=lambda s: s.id):
            _emit_store_fields(fields_el, store)

    if diagram.objects:
        objects_el = ET.SubElement(package, "DataObjects")
        for obj in sorted(diagram.objects, key=lambda o: o.id):
            obj_el = ET.SubElement(objects_el, "DataObject", {"Id": obj.id, "Name": obj.name})
            refs = ET.SubElement(obj_el, "DataFields")
            for var in sorted(obj.variables, key=lambda v: v.name):
                if var.vtype == "record":
                    continue
                ET.SubElement(refs, "DataField", {"Id": var.name})

    if diagram.message_flows:
        messages_el = ET.SubElement(package, "Messages")
        for flow in sorted(diagram.message_flows, key=lambda f: f.id):
            msg = ET.SubElement(
                messages_el,
                "Message",
                {"Id": flow.id, "From": flow.source, "To": flow.target},
            )
            for att in sorted(flow.attachments, key=lambda a: (a.object, a.direction)):
                if att.direction == "output":
                    ET.SubElement(msg, "DataObject", {"Id": att.object})

    processes = ET.SubElement(package, "WorkflowProcesses")
    for pool in sorted(diagram.pools, key=lambda p: p.id):
        if not pool.nodes:
            continue  # black-box pools stay opaque
        proc = ET.SubElement(processes, "WorkflowProcess", {"Id": pool.id, "Name": pool.name})
        activities = ET.SubElement(proc, "Activities")
        for node in sorted(pool.iter_nodes(), key=lambda n: n.id):
            if node.kind in ("task", "sub_process"):
                activities.append(_emit_activity(diagram, node, scoped_stores))
        transitions = ET.SubElement(proc, "Transitions")
        for flow in sorted(pool.sequence_flows, key=lambda f: f.id):
            attrs = {"Id": flow.id, "From": flow.source, "To": flow.target}
            tr = ET.SubElement(transitions, "Transition", attrs)
            if flow.guard is not None:
                cond = ET.SubElement(tr, "Condition", {"Type": "CONDITION"})
                cond.text = print_expr(flow.guard)

    return xml_text(package), warnings


def _emit_store_fields(parent: ET.Element, store: DataStore) -> None:
    for entity in sorted(store.entities, key=lambda e: e.name):
        for fld in sorted(entity.fields, key=lambda f: f.name):
            if fld.vtype == "record":
                continue  # record leaves appear as their own dotted fields
            field_el = ET.SubElement(
                parent,
                "DataField",
                {"Id": f"{store.id}.{entity.name}.{fld.name}", "Name": fld.name},
            )
            dtype = ET.SubElement(field_el, "DataType")
            ET.SubElement(dtype, "BasicType", {"Type": _BASIC_TYPES[fld.vtype]})


def _actual_parameters(diagram: Diagram, node_id: str) -> list[str]:
    params = []
    for io in sorted(node_inputs(diagram, node_id), key=lambda io: (io.object, io.via)):
        obj = diagram.object(io.object)
        for var in sorted(obj.variables, key=lambda v: v.name):
            if var.vtype == "record":
                continue
            params.append(f"{obj.id}.{var.name}")
    return params


def _emit_activity(
    diagram: Diagram, node: Node, scoped_stores: dict[str, DataStore]
) -> ET.Element:
    activity = ET.Element("Activity", {"Id": node.id, "Name": node.name})

    store = scoped_stores.get(node.id)
    if store is not None:
        # stores scoped to this sub-process declare their fields locally
        local_fields = ET.SubElement(activity, "DataFields")
        _emit_store_fields(local_fields, store)

    inputs = sorted({io.object for io in node_inputs(diagram, node.id)})
    outputs = sorted({io.object for io in node_outputs(diagram, node.id) if io.channel != "store"})
    store_outputs = sorted(
        {io.object for io in node_outputs(diagram, node.id) if io.channel == "store"}
        - set(outputs)
    )
    if inputs:
        input_sets = ET.SubElement(activity, "InputSets")
        input_set = ET.SubElement(input_sets, "InputSet")
        for obj in inputs:
            ET.SubElement(input_set, "Input", {"ArtifactId": obj})
    if outputs or store_outputs:
        output_sets = ET.SubElement(activity, "OutputSets")
        output_set = ET.SubElement(output_sets, "OutputSet")
        for obj in outputs + store_outputs:
            ET.SubElement(output_set, "Output", {"ArtifactId": obj})

    implementation = ET.SubElement(activity, "Implementation")
    task = ET.SubElement(implementation, "Task")
    application = ET.SubElement(task, "TaskApplication", {"Id": f"{node.id}_application"})
    params = _actual_parameters(diagram, node.id)
    if params:
        params_el = ET.SubElement(application, "ActualParameters")
        for param in params:
            param_el = ET.SubElement(params_el, "ActualParameter")
            param_el.text = param

    for mapping in diagram.index.mappings_into(node.id):
        assignments = ET.SubElement(activity, "Assignments", {"Id": mapping.id})
        for rule in mapping.rules:
            assignment = ET.SubElement(assignments, "Assignment")
            target = ET.SubElement(assignment, "Target")
            target.text = f"{mapping.target_object}.{rule.to}"
            expression = ET.SubElement(assignment, "Expression")
            expression.text = print_expr(rule.from_expr)
    return activity
