"""XPDL package generation.

Store fields become ``DataField`` declarations (``<storeId>.<Entity>.<field>``),
objects become ``DataObject`` elements referencing their data fields, tasks
become ``Activity`` elements with ``InputSets``/``OutputSets`` and
``ActualParameter`` entries, data mappings become ``Assignments`` blocks, and
the objects attached to a message flow map to its ``Message`` element. Each
gateway is an ``Activity`` holding a ``Route`` and each event one holding an
``Event``, so every ``Transition`` names activities of its process.

A data-based gateway's condition, and the data inputs, outputs and mappings
of gateways and events, have no place in the package: they are left out with
one warning per node, naming what it loses. Some of the model is left out
without a warning: task behaviours (effects, store actions, instances) and
the multi-instance flag; a store's relationships, generalizations, icon and
collapsed flag; the diagram's start inputs; an object's stereotype,
physicality, url, state and origin store; and the ``optional`` flag of an
input.

Each task references a placeholder ``TaskApplication``; applications proper
are outside the scope of the generated fragment. The text is written from the
model in document order by :class:`bpdmn.codegen_bpel.XmlWriter`, the writer
both translators share. The package and its lists (``DataFields``,
``DataObjects``, ``Messages``, each process's ``Activities`` and
``Transitions``) are opened and closed on the writer; each fixed-shape block
inside them, a store's ``DataField`` entries, a ``DataObject``, a
``Message``, an ``Activity`` or a ``Transition``, is one run of text built
whole at its indentation (:meth:`~bpdmn.codegen_bpel.XmlWriter.run`).
"""

from __future__ import annotations

from . import validator
# GenerationError: one class for both translators, importable from either
from .codegen_bpel import GenerationError, XmlWriter, element, escape_attribute, escape_attributes, escape_text
from .expr import print_expr
from .model import DataStore, Diagram, MessageFlow, Node, SequenceFlow, node_inputs, node_outputs

_BASIC_TYPES = {"string": "STRING", "number": "FLOAT", "boolean": "BOOLEAN"}
# gateway and event kinds -> the Route, or the element inside an Event, that
# their Activity holds, with its attributes
_ROUTES_AND_EVENTS = {
    "gateway_exclusive_data": ("Route", 'GatewayType="Exclusive"'),
    "gateway_parallel": ("Route", 'GatewayType="Parallel"'),
    "start_event_none": ("StartEvent", 'Trigger="None"'),
    "start_event_message": ("StartEvent", 'Trigger="Message"'),
    "end_event": ("EndEvent", 'Result="None"'),
    "intermediate_message": ("IntermediateEvent", 'Trigger="Message"'),
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
    escaped = _escaped_ids(diagram)

    out = XmlWriter()
    package_id = escaped[diagram.id]
    out.open("Package", f' Id="{package_id}" Name="{package_id}"')

    diagram_stores: list[DataStore] = []
    scoped_stores: dict[str, list[DataStore]] = {}
    for store in sorted(diagram.stores, key=lambda s: s.id):
        if store.scope.kind == "diagram":
            diagram_stores.append(store)
        else:
            scoped_stores.setdefault(store.scope.sub_process, []).append(store)
    if diagram_stores:
        out.open("DataFields")
        out.run("".join(_store_fields(store, out.indent) for store in diagram_stores))
        out.close()

    if diagram.objects:
        out.open("DataObjects")
        i = out.indent
        for obj in sorted(diagram.objects, key=lambda o: o.id):
            fields = "".join(
                f'{i}    <DataField Id="{escape_attribute(var.name)}" />'
                for var in sorted(obj.variables, key=lambda v: v.name)
                if var.vtype != "record"
            )
            out.run(
                f'{i}<DataObject Id="{escaped[obj.id]}" Name="{escape_attribute(obj.name)}">'
                f'{element(i + "  ", "DataFields", "", fields)}{i}</DataObject>'
            )
        out.close()

    if diagram.message_flows:
        out.open("Messages")
        i = out.indent
        for flow in sorted(diagram.message_flows, key=lambda f: f.id):
            # a message carries every attached object, whatever its direction
            objects = "".join(
                f'{i}  <DataObject Id="{escaped[obj]}" />' for obj in sorted({att.object for att in flow.attachments})
            )
            out.run(element(i, "Message", _flow_attributes(flow, escaped), objects))
        out.close()

    out.open("WorkflowProcesses")
    for pool in sorted(diagram.pools, key=lambda p: p.id):
        if not pool.nodes:
            continue  # black-box pools stay opaque
        out.open("WorkflowProcess", f' Id="{escaped[pool.id]}" Name="{escape_attribute(pool.name)}"')
        out.open("Activities")
        i = out.indent
        for node in sorted(pool.iter_nodes(), key=lambda n: n.id):
            if node.kind in ("task", "sub_process"):
                out.run(_activity(diagram, node, scoped_stores, escaped, i))
            else:
                out.run(_route_or_event(node, escaped, i))
                left_out = _left_out(diagram, node)
                if left_out:
                    warnings.append(
                        f"{node.kind.replace('_', '-')} {node.id} of pool {pool.id}:"
                        f" {' and '.join(left_out)} left out of the XPDL"
                    )
        out.close()
        out.open("Transitions")
        i = out.indent
        for flow in sorted(pool.sequence_flows, key=lambda f: f.id):
            condition = (
                f'{i}  <Condition Type="CONDITION">{escape_text(print_expr(flow.guard))}</Condition>'
                if flow.guard is not None
                else ""
            )
            out.run(element(i, "Transition", _flow_attributes(flow, escaped), condition))
        out.close()
        out.close()
    out.close()
    out.close()
    return out.text(), warnings


def _escaped_ids(diagram: Diagram) -> dict[str, str]:
    """The id of the diagram and of each of its pools, nodes, sequence and
    message flows, objects and mappings, escaped once for an attribute
    value: a node id is written in its ``Activity`` and in each
    ``Transition`` that names it, an object id in each ``DataObject``,
    ``Input`` and ``Output``. A name is written once, and escaped where it
    is written."""
    index = diagram.index
    ids = [diagram.id, *index.pool_of, *index.flows, *index.objects]  # pool_of: pool and node ids
    ids += [flow.id for flow in diagram.message_flows]
    ids += [mapping.id for mapping in diagram.mappings]
    return escape_attributes(ids)


def _flow_attributes(flow: MessageFlow | SequenceFlow, escaped: dict[str, str]) -> str:
    """The ``Id``, ``From`` and ``To`` attributes of a ``Message`` or ``Transition``."""
    return f' Id="{escaped[flow.id]}" From="{escaped[flow.source]}" To="{escaped[flow.target]}"'


def _store_fields(store: DataStore, i: str) -> str:
    """A ``DataField`` at indentation *i* for each field of *store*."""
    store_id = escape_attribute(store.id)
    fields = []
    for entity in sorted(store.entities, key=lambda e: e.name):
        entity_name = escape_attribute(entity.name)
        for fld in sorted(entity.fields, key=lambda f: f.name):
            if fld.vtype == "record":
                continue  # record leaves appear as their own dotted fields
            name = escape_attribute(fld.name)
            fields.append(
                f'{i}<DataField Id="{store_id}.{entity_name}.{name}" Name="{name}">'
                f'{i}  <DataType>{i}    <BasicType Type="{_BASIC_TYPES[fld.vtype]}" />{i}  </DataType>{i}</DataField>'
            )
    return "".join(fields)


def _route_or_event(node: Node, escaped: dict[str, str], i: str) -> str:
    tag, attrs = _ROUTES_AND_EVENTS[node.kind]
    inner = f"<{tag} {attrs} />" if tag == "Route" else f"<Event>{i}    <{tag} {attrs} />{i}  </Event>"
    activity = f'<Activity Id="{escaped[node.id]}" Name="{escape_attribute(node.name)}">'
    return f"{i}{activity}{i}  {inner}{i}</Activity>"


def _left_out(diagram: Diagram, node: Node) -> list[str]:
    """What the Activity of gateway or event *node* cannot hold: its
    condition, the objects it takes or gives, and the mappings into it,
    since only a task's Activity holds ``Assignments``."""
    left_out = ["its condition"] if node.condition is not None else []
    for what, links in (("inputs", node_inputs), ("outputs", node_outputs)):
        objects = sorted({io.object for io in links(diagram, node.id)})
        if objects:
            left_out.append(f"its data {what} {', '.join(objects)}")
    mappings = sorted(mapping.id for mapping in diagram.index.mappings_into(node.id))
    if mappings:
        left_out.append(f"its data mappings {', '.join(mappings)}")
    return left_out


def _activity(
    diagram: Diagram, node: Node, scoped_stores: dict[str, list[DataStore]], escaped: dict[str, str], i: str
) -> str:
    """The ``Activity`` of task or sub-process *node* at indentation *i*."""
    node_id = escaped[node.id]
    lines = [f'{i}<Activity Id="{node_id}" Name="{escape_attribute(node.name)}">']

    stores = scoped_stores.get(node.id)
    if stores:
        # stores scoped to this sub-process declare their fields locally
        fields = "".join(_store_fields(store, i + "    ") for store in stores)
        lines.append(element(i + "  ", "DataFields", "", fields))

    inputs = sorted({io.object for io in node_inputs(diagram, node.id)})
    produced = node_outputs(diagram, node.id)
    outputs = sorted({io.object for io in produced if io.channel != "store"})
    store_outputs = sorted({io.object for io in produced if io.channel == "store"} - set(outputs))
    for sets, one_set, item, objects in (
        ("InputSets", "InputSet", "Input", inputs),
        ("OutputSets", "OutputSet", "Output", outputs + store_outputs),
    ):
        if objects:
            items = "".join(f'{i}      <{item} ArtifactId="{escaped[obj]}" />' for obj in objects)
            lines.append(f"{i}  <{sets}>{i}    <{one_set}>{items}{i}    </{one_set}>{i}  </{sets}>")

    # each input object's variables once, whatever the channels it comes over
    params = "".join(
        f"{i}          <ActualParameter>{escape_text(obj)}.{escape_text(var.name)}</ActualParameter>"
        for obj in inputs
        for var in sorted(diagram.object(obj).variables, key=lambda v: v.name)
        if var.vtype != "record"
    )
    if params:
        params = f"{i}        <ActualParameters>{params}{i}        </ActualParameters>"
    application = element(i + "      ", "TaskApplication", f' Id="{node_id}_application"', params)
    lines.append(f"{i}  <Implementation>{i}    <Task>{application}{i}    </Task>{i}  </Implementation>")

    for mapping in diagram.index.mappings_into(node.id):
        target = escape_text(mapping.target_object)
        rules = "".join(
            f"{i}    <Assignment>{i}      <Target>{target}.{escape_text(rule.to)}</Target>"
            f"{i}      <Expression>{escape_text(print_expr(rule.from_expr))}</Expression>{i}    </Assignment>"
            for rule in mapping.rules
        )
        lines.append(element(i + "  ", "Assignments", f' Id="{escaped[mapping.id]}"', rules))
    lines.append(f"{i}</Activity>")
    return "".join(lines)
