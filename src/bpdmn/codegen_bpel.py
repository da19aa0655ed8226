"""BPEL document generation.

Stores and objects become ``variable`` elements, data mappings become
``assign`` blocks with one ``copy`` per rule, tasks with attachments become
``invoke`` activities, message start events become ``receive``. The control
skeleton maps linear chains to ``sequence``, parallel gateway regions to
``flow`` and data-based exclusive gateways to ``if``/``else``.

Partner links, port types and WSDL definitions are emitted as fixed
placeholders; they carry no data semantics. Objects attached to message
flows have no BPEL counterpart and are skipped with a warning, and so is any
task or sub-process the control skeleton does not reach.

The text comes from :func:`xml_text`, the writer both translators share.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from . import validator
from .expr import Ref, print_expr
from .model import START_KINDS, DataMapping, Diagram, Node, SequenceFlow, node_inputs, node_outputs

PROCESS_NS = "http://example.org/bpel/generated"
PLACEHOLDER_PARTNER_LINK = "partnerLinkPlaceholder"
PLACEHOLDER_PORT_TYPE = "portTypePlaceholder"


class GenerationError(Exception):
    """A translator (BPEL or XPDL) refused the diagram."""


# the characters XML 1.0 has no way to write, not even as a reference
_NOT_IN_XML = [chr(c) for c in (*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF)]


def xml_text(root: ET.Element) -> str:
    """The document text of a translator's tree: an XML declaration, then the
    tree with two-space indentation and a final newline.

    Written in one pass over the tree, byte for byte what ``ET.indent`` and
    ``ET.tostring`` give for the trees the translators build: plain tags,
    comments, and elements that have either text or children, never both
    (and no tails). Attributes keep their insertion order. Raises
    :class:`GenerationError`, naming the character and its line, when the
    text holds a character XML 1.0 cannot carry.
    """
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    _write_element(root, "\n", parts)
    parts.append("\n")
    text = "".join(parts)
    for char in _NOT_IN_XML:
        at = text.find(char)
        if at >= 0:
            start = text.rfind("\n", 0, at) + 1
            line, number = text[start : text.find("\n", at)].strip(), text.count("\n", 0, start) + 1
            message = f"XML 1.0 cannot carry character U+{ord(char):04X}"
            raise GenerationError(f"{message} (output line {number}: {line!r})")
    return text


def _write_element(elem: ET.Element, newline: str, parts: list[str]) -> None:
    tag = elem.tag
    if tag is ET.Comment:
        parts.append(f"<!--{elem.text}-->")
        return
    parts.append("<" + tag)
    for key, value in elem.items():
        parts.append(f' {key}="{_escape_attribute(value)}"')
    if len(elem):
        parts.append(">")
        inner = newline + "  "
        for child in elem:
            parts.append(inner)
            _write_element(child, inner, parts)
        parts.append(f"{newline}</{tag}>")
    elif elem.text:
        parts.append(f">{_escape_text(elem.text)}</{tag}>")
    else:
        parts.append(" />")


def _escape_text(text: str) -> str:
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attribute(text: str) -> str:
    text = _escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    # line ends and tabs inside a value would be normalised away by a parser
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def to_bpel(diagram: Diagram) -> tuple[str, list[str]]:
    """Translate a valid diagram into a BPEL document.

    Returns the XML text and a list of warnings. Raises
    :class:`GenerationError` when the diagram has validation errors.
    """
    problem = validator.errors_text(diagram)
    if problem is not None:
        raise GenerationError(problem)
    warnings: list[str] = []

    process = ET.Element("process", {"name": diagram.id, "targetNamespace": PROCESS_NS})
    _emit_variables(diagram, process)

    pool_bodies = []
    for pool in sorted(diagram.pools, key=lambda p: p.id):
        if not pool.nodes:
            continue  # black-box pools have no executable body
        body = _emit_pool(diagram, pool, warnings)
        if body is not None:
            pool_bodies.append((pool, body))
    if len(pool_bodies) == 1:
        process.append(pool_bodies[0][1])
    elif pool_bodies:
        flow = ET.SubElement(process, "flow", {"name": "pools"})
        for pool, body in pool_bodies:
            body.set("name", pool.name)
            flow.append(body)

    for flow in diagram.message_flows:
        for att_object in sorted({att.object for att in flow.attachments}):
            warnings.append(
                f"object {att_object} on message flow {flow.id} has no BPEL"
                " counterpart; skipped"
            )
    for store in diagram.stores:
        if store.scope.kind == "sub_process":
            warnings.append(
                f"store {store.id} is scoped to a sub-process; BPEL has no"
                " matching variable scope, emitted at process level"
            )

    return xml_text(process), warnings


def _emit_variables(diagram: Diagram, process: ET.Element) -> None:
    variables = ET.SubElement(process, "variables")
    names_seen: dict[str, str] = {}

    def claim(name: str, owner: str) -> None:
        if name in names_seen:
            raise GenerationError(
                f"variable name collision: {owner} and {names_seen[name]} both map to {name!r}"
            )
        names_seen[name] = owner

    for store in sorted(diagram.stores, key=lambda s: s.id):
        for entity in sorted(store.entities, key=lambda e: e.name):
            for fld in sorted(entity.fields, key=lambda f: f.name):
                if fld.vtype == "record":
                    continue
                name = f"{store.id}.{entity.name}.{fld.name}"
                claim(name, f"store {store.id}")
                variables.append(
                    ET.Comment(f" store-backed variable, element type {fld.vtype} ")
                )
                ET.SubElement(variables, "variable", {"name": name, "element": fld.vtype})
    for obj in sorted(diagram.objects, key=lambda o: o.id):
        claim(obj.id, f"object {obj.id}")
        ET.SubElement(variables, "variable", {"name": obj.id, "messageType": obj.name})


def _assign_for_mapping(mapping: DataMapping) -> ET.Element:
    assign = ET.Element("assign", {"name": mapping.id})
    for rule in mapping.rules:
        copy = ET.SubElement(assign, "copy")
        expr = rule.from_expr
        if isinstance(expr, Ref) and expr.path[0] == mapping.source_object:
            ET.SubElement(
                copy,
                "from",
                {"variable": mapping.source_object, "part": ".".join(expr.path[1:])},
            )
        else:
            ET.SubElement(copy, "from", {"expression": print_expr(expr)})
        ET.SubElement(copy, "to", {"variable": mapping.target_object, "part": rule.to})
    return assign


def _pick_input_variable(diagram: Diagram, node_id: str) -> str | None:
    inputs = sorted(
        {io.object for io in node_inputs(diagram, node_id) if io.channel != "message"}
    )
    if not inputs:
        return None
    # a mapping-produced input is the service's actual request format
    for obj in inputs:
        if obj in diagram.index.mappings_to:
            return obj
    return inputs[0]


def _pick_output_variable(diagram: Diagram, node_id: str) -> str | None:
    outputs = sorted(
        {io.object for io in node_outputs(diagram, node_id) if io.channel == "sequence"}
    )
    return outputs[0] if outputs else None


def _participant(diagram: Diagram, endpoint: str) -> str:
    """The pool a message flow endpoint belongs to, or the endpoint itself
    when it is a pool."""
    return diagram.pool_of(endpoint).id


def _start_message_sources(diagram: Diagram, pool) -> set[str]:
    """The participants sending the messages that start the pool."""
    message_in = diagram.index.message_in
    return {
        _participant(diagram, flow.source)
        for node in pool.iter_nodes()
        if node.kind == "start_event_message"
        for flow in message_in.get(node.id, ())
    }


def _replies_to_starter(diagram: Diagram, start_sources: set[str], node_id: str) -> bool:
    """True when the node answers the pool's start message over a message flow
    back to the sending participant."""
    return any(
        _participant(diagram, flow.target) in start_sources
        for flow in diagram.index.message_out.get(node_id, ())
    )


def _node_element(diagram: Diagram, start_sources: set[str], node: Node) -> list[ET.Element]:
    """Elements for one node: its mapping assigns followed by its activity."""
    elements = [_assign_for_mapping(mapping) for mapping in diagram.index.mappings_into(node.id)]

    if node.kind == "start_event_message":
        attrs = {
            "name": node.name,
            "partnerLink": PLACEHOLDER_PARTNER_LINK,
            "portType": PLACEHOLDER_PORT_TYPE,
            "operation": "receive",
            "createInstance": "yes",
        }
        outputs = _pick_output_variable(diagram, node.id)
        if outputs:
            attrs["variable"] = outputs
        elements.append(ET.Element("receive", attrs))
    elif node.kind in ("task", "sub_process"):
        if _replies_to_starter(diagram, start_sources, node.id):
            attrs = {
                "name": node.name,
                "partnerLink": PLACEHOLDER_PARTNER_LINK,
                "portType": PLACEHOLDER_PORT_TYPE,
                "operation": "reply",
            }
            out = _pick_output_variable(diagram, node.id)
            if out:
                attrs["variable"] = out
            elements.append(ET.Element("reply", attrs))
        else:
            attrs = {
                "name": node.name,
                "partnerLink": PLACEHOLDER_PARTNER_LINK,
                "portType": PLACEHOLDER_PORT_TYPE,
                "operation": "execute",
            }
            invar = _pick_input_variable(diagram, node.id)
            outvar = _pick_output_variable(diagram, node.id)
            if invar:
                attrs["inputVariable"] = invar
            if outvar:
                attrs["outputVariable"] = outvar
            elements.append(ET.Element("invoke", attrs))
    elif node.kind == "intermediate_message":
        elements.append(
            ET.Element(
                "receive",
                {
                    "name": node.name,
                    "partnerLink": PLACEHOLDER_PARTNER_LINK,
                    "portType": PLACEHOLDER_PORT_TYPE,
                    "operation": "receive",
                },
            )
        )
    # start_event_none, end_event and gateways emit no standalone activity
    return elements


def _successors(diagram: Diagram, node_id: str) -> list[SequenceFlow]:
    return sorted(diagram.index.out_flows.get(node_id, ()), key=lambda f: f.id)


def _reachable(diagram: Diagram, node_id: str) -> set[str]:
    seen = {node_id}
    stack = [node_id]
    while stack:
        current = stack.pop()
        for flow in _successors(diagram, current):
            if flow.target not in seen:
                seen.add(flow.target)
                stack.append(flow.target)
    return seen


def _find_join(diagram: Diagram, branch_heads: list[str]) -> str | None:
    """First node reachable from every branch head (BFS order of the first
    branch); assumes structured split/join regions."""
    # the BFS from the first head walks its reach set: intersect the others'
    others = [_reachable(diagram, head) for head in branch_heads[1:]]
    order = [branch_heads[0]]
    seen = set(order)
    for current in order:  # the list grows as the BFS walks it
        if current not in branch_heads and all(current in reach for reach in others):
            return current
        for flow in _successors(diagram, current):
            if flow.target not in seen:
                seen.add(flow.target)
                order.append(flow.target)
    return None


class _SkeletonBuilder:
    def __init__(self, diagram: Diagram, pool) -> None:
        self.diagram = diagram
        self.start_sources = _start_message_sources(diagram, pool)
        self.emitted: set[str] = set()

    def render_chain(self, start_id: str, stop_id: str | None) -> list[ET.Element]:
        """Render from *start_id* (inclusive) up to *stop_id* (exclusive)."""
        elements: list[ET.Element] = []
        current: str | None = start_id
        while current is not None and current != stop_id:
            if current in self.emitted:
                break
            self.emitted.add(current)
            node = self.diagram.node(current)
            if node.kind == "gateway_parallel":
                nexts = _successors(self.diagram, current)
                heads = [f.target for f in nexts]
                if len(heads) <= 1:
                    current = heads[0] if heads else None
                    continue
                join = _find_join(self.diagram, heads)
                flow_el = ET.Element("flow", {"name": node.name or node.id})
                for head in heads:
                    branch = self.render_chain(head, join)
                    seq = ET.Element("sequence")
                    seq.extend(branch)
                    flow_el.append(seq)
                elements.append(flow_el)
                if join is not None and self.diagram.node(join).kind.startswith("gateway_"):
                    self.emitted.add(join)  # the join gateway itself emits nothing
                    joins = _successors(self.diagram, join)
                    current = joins[0].target if joins else None
                else:
                    current = join  # any other join is rendered after the flow
                continue
            if node.kind == "gateway_exclusive_data":
                elements.append(self.render_exclusive(node))
                current = None
                continue
            elements.extend(_node_element(self.diagram, self.start_sources, node))
            nexts = _successors(self.diagram, current)
            current = nexts[0].target if nexts else None
        return elements

    def render_exclusive(self, node: Node) -> ET.Element:
        outgoing = _successors(self.diagram, node.id)
        guarded = [f for f in outgoing if f.guard is not None]
        defaults = [f for f in outgoing if f.guard is None]
        heads = [f.target for f in outgoing]
        join = _find_join(self.diagram, heads) if len(heads) > 1 else None
        if_el = ET.Element("if", {"name": node.name or node.id})
        if guarded:
            cond = ET.SubElement(if_el, "condition")
            cond.text = print_expr(guarded[0].guard)
            seq = ET.SubElement(if_el, "sequence")
            seq.extend(self.render_chain(guarded[0].target, join))
            for extra in guarded[1:]:
                elseif = ET.SubElement(if_el, "elseif")
                cond = ET.SubElement(elseif, "condition")
                cond.text = print_expr(extra.guard)
                seq = ET.SubElement(elseif, "sequence")
                seq.extend(self.render_chain(extra.target, join))
        for default in defaults:  # at most one: V7
            else_el = ET.SubElement(if_el, "else")
            seq = ET.SubElement(else_el, "sequence")
            seq.extend(self.render_chain(default.target, join))
        if join is not None:
            wrapper = ET.Element("sequence")
            wrapper.append(if_el)
            wrapper.extend(self.render_chain(join, None))
            return wrapper
        return if_el


def _emit_pool(diagram: Diagram, pool, warnings: list[str]) -> ET.Element | None:
    starts = sorted(
        (n for n in pool.iter_nodes() if n.kind in START_KINDS),
        key=lambda n: n.id,
    )
    if not starts:
        return None
    builder = _SkeletonBuilder(diagram, pool)
    seq = ET.Element("sequence")
    for start in starts:
        seq.extend(builder.render_chain(start.id, None))
    for node in pool.nodes:
        if node.kind in ("task", "sub_process") and node.id not in builder.emitted:
            warnings.append(
                f"{node.kind.replace('_', '-')} {node.id} of pool {pool.id} is not reached"
                " by the BPEL control skeleton; skipped"
            )
    return seq
