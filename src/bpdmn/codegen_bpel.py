"""BPEL document generation.

Stores and objects become ``variable`` elements, data mappings become
``assign`` blocks with one ``copy`` per rule, tasks with attachments become
``invoke`` activities, message start events become ``receive``. The control
skeleton maps linear chains to ``sequence`` and has one rule for gateways: a
split becomes one structured activity, ``flow`` for a parallel split and
``if``/``elseif``/``else`` for a data-based exclusive split, with one
``sequence`` per branch, and what follows the split's join comes after it
in the enclosing sequence. A merge or a plain join writes nothing.

Partner links, port types and WSDL definitions are emitted as fixed
placeholders; they carry no data semantics. Objects attached to message
flows have no BPEL counterpart and are skipped with a warning, and so is any
task or sub-process, at any depth, that the control skeleton does not reach.
BPEL does not yet carry a sub-process's content (a sub-process is one
``invoke``) or an unstructured region: a split's join is taken to be the
first node every branch reaches, and nothing checks that the region is
well structured.

The text is written from the model in document order by :class:`XmlWriter`,
the writer both translators share; no document tree is built. The
``variables`` block, and each node's ``assign`` blocks with its activity,
are each one run of text built at the writer's indentation
(:meth:`XmlWriter.run`); only the skeleton's ``sequence``, ``flow`` and
``if`` nesting is opened and closed element by element.
"""

from __future__ import annotations

import re

from . import validator
from .expr import Ref, print_expr
from .model import START_KINDS, Diagram, Node, node_inputs, node_outputs

PROCESS_NS = "http://example.org/bpel/generated"
PLACEHOLDER_PARTNER_LINK = "partnerLinkPlaceholder"
PLACEHOLDER_PORT_TYPE = "portTypePlaceholder"
_PLACEHOLDER_LINK = f'partnerLink="{PLACEHOLDER_PARTNER_LINK}" portType="{PLACEHOLDER_PORT_TYPE}"'


class GenerationError(Exception):
    """A translator (BPEL or XPDL) refused the diagram."""


# the characters XML 1.0 has no way to write, not even as a reference
_NOT_IN_XML = [chr(c) for c in (*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF)]


# the nesting depth past which deeper elements share one indentation, so the
# indentation of a document grows with its size, not with the square of it
_MAX_INDENT_LEVELS = 32


class XmlWriter:
    """An XML document written in document order: an XML declaration, then
    the elements with two-space indentation, at most
    ``_MAX_INDENT_LEVELS`` levels of it, then a final newline.

    An element holds either children or text, never both. :meth:`open` and
    :meth:`close` write an element whose children follow one by one. A start
    tag stays open until the element's first child arrives, so an element
    closed with no child is written ``<tag ... />``.

    :meth:`run` appends a fixed-shape run of elements whose text the caller
    built in one piece: each line starts with :attr:`indent`, values are
    escaped with :func:`escape_attribute` and :func:`escape_text`, and an
    element that may be empty is written by :func:`element`. :meth:`open`
    takes its attributes written the same way, each with its leading space.
    """

    def __init__(self) -> None:
        self.parts = ['<?xml version="1.0" encoding="UTF-8"?>']
        self.open_tags: list[str] = []
        self.indent = "\n"  # the line break and indentation before a child
        self.childless = False  # the innermost open element has no child yet

    def run(self, text: str) -> None:
        """Append *text*, children of the innermost open element already
        written at :attr:`indent`. An empty run adds no child."""
        if text:
            if self.childless:
                self.parts.append(">")
                self.childless = False
            self.parts.append(text)

    def open(self, tag: str, attributes: str = "") -> None:
        """Start an element whose children follow, up to :meth:`close`, with
        *attributes* already written, each with its leading space."""
        self.run(f"{self.indent}<{tag}{attributes}")
        self.open_tags.append(tag)
        if len(self.open_tags) <= _MAX_INDENT_LEVELS:
            self.indent += "  "
        self.childless = True

    def close(self) -> None:
        """End the innermost open element."""
        tag = self.open_tags.pop()
        if len(self.open_tags) < _MAX_INDENT_LEVELS:
            self.indent = self.indent[:-2]
        if self.childless:
            self.parts.append(" />")
            self.childless = False
        else:
            self.parts.append(f"{self.indent}</{tag}>")

    def text(self) -> str:
        """The document, once every element is closed. Raises
        :class:`GenerationError`, naming the character and its line, when the
        text holds a character XML 1.0 cannot carry."""
        text = "".join(self.parts) + "\n"
        for char in _NOT_IN_XML:
            at = text.find(char)
            if at >= 0:
                start = text.rfind("\n", 0, at) + 1
                line, number = text[start : text.find("\n", at)].strip(), text.count("\n", 0, start) + 1
                message = f"XML 1.0 cannot carry character U+{ord(char):04X}"
                raise GenerationError(f"{message} (output line {number}: {line!r})")
        return text


# a parser reads a raw carriage return as a line feed, and normalises line
# feeds and tabs inside an attribute value to spaces
_TEXT_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;"))
_ATTRIBUTE_ESCAPES = (*_TEXT_ESCAPES, ('"', "&quot;"), ("\n", "&#10;"), ("\t", "&#09;"))


# the characters either table escapes: most names hold none and are written as they are
_SPECIAL_CHARS = "".join(char for char, _ in _ATTRIBUTE_ESCAPES)
_SPECIAL = re.compile(f"[{re.escape(_SPECIAL_CHARS)}]")


def _escape(text: str, escapes: tuple[tuple[str, str], ...]) -> str:
    if _SPECIAL.search(text) is None:
        return text
    for char, reference in escapes:
        if char in text:
            text = text.replace(char, reference)
    return text


def element(indent: str, tag: str, attributes: str, children: str) -> str:
    """An element of a run, at *indent*: its *attributes* already written,
    each with its leading space, and its *children* already written at
    *indent* plus two spaces; ``<tag ... />`` when it has none."""
    if children:
        return f"{indent}<{tag}{attributes}>{children}{indent}</{tag}>"
    return f"{indent}<{tag}{attributes} />"


def escape_attribute(value: str) -> str:
    """*value* as written between an attribute's double quotes."""
    return _escape(value, _ATTRIBUTE_ESCAPES)


def escape_attributes(texts: list[str]) -> dict[str, str]:
    """Each of *texts* -> :func:`escape_attribute` of it. Most models' ids and
    names hold no character to escape, which one search over them all shows."""
    joined = "".join(texts)
    if not any(map(joined.__contains__, _SPECIAL_CHARS)):  # one scan per character, in C: faster than _SPECIAL
        return {text: text for text in texts}
    return {text: escape_attribute(text) for text in texts}


def escape_text(value: str) -> str:
    """*value* as written as an element's text."""
    return _escape(value, _TEXT_ESCAPES)


def to_bpel(diagram: Diagram) -> tuple[str, list[str]]:
    """Translate a valid diagram into a BPEL document.

    Returns the XML text and a list of warnings. Raises
    :class:`GenerationError` when the diagram has validation errors.
    """
    problem = validator.errors_text(diagram)
    if problem is not None:
        raise GenerationError(problem)
    warnings: list[str] = []
    # black-box pools, and pools without a start, have no executable body
    bodies = []
    for pool in sorted(diagram.pools, key=lambda p: p.id):
        starts = sorted((n for n in pool.iter_nodes() if n.kind in START_KINDS), key=lambda n: n.id)
        if starts:
            bodies.append((pool, starts))

    out = XmlWriter()
    out.open("process", f' name="{escape_attribute(diagram.id)}" targetNamespace="{PROCESS_NS}"')
    _write_variables(out, diagram)
    side_by_side = len(bodies) > 1  # in a flow, each body named by its pool
    if side_by_side:
        out.open("flow", ' name="pools"')
    for pool, starts in bodies:
        out.open("sequence", f' name="{escape_attribute(pool.name)}"' if side_by_side else "")
        skeleton = _Skeleton(out, diagram, pool)
        try:
            for start in starts:
                skeleton.chain(start.id, None)
        except RecursionError:  # one Python frame per nested split
            raise GenerationError(f"pool {pool.id}: splits nest too deeply for the BPEL control skeleton") from None
        out.close()
        for node in pool.iter_nodes():
            # every kind _write_node writes an activity for; a start heads a chain
            if node.kind in ("task", "sub_process", "intermediate_message") and node.id not in skeleton.emitted:
                warnings.append(
                    f"{node.kind.replace('_', '-')} {node.id} of pool {pool.id} is not reached"
                    " by the BPEL control skeleton; skipped"
                )
    if side_by_side:
        out.close()
    out.close()

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

    return out.text(), warnings


def _write_variables(out: XmlWriter, diagram: Diagram) -> None:
    out.open("variables")
    i = out.indent
    # no store id, entity name or object id holds a dot, so no two names meet
    lines = []
    for store in sorted(diagram.stores, key=lambda s: s.id):
        for entity in sorted(store.entities, key=lambda e: e.name):
            for fld in sorted(entity.fields, key=lambda f: f.name):
                if fld.vtype == "record":
                    continue
                name = f"{store.id}.{entity.name}.{fld.name}"
                lines.append(
                    f"{i}<!-- store-backed variable, element type {fld.vtype} -->"
                    f'{i}<variable name="{escape_attribute(name)}" element="{escape_attribute(fld.vtype)}" />'
                )
    for obj in sorted(diagram.objects, key=lambda o: o.id):
        lines.append(f'{i}<variable name="{escape_attribute(obj.id)}" messageType="{escape_attribute(obj.name)}" />')
    out.run("".join(lines))
    out.close()


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


def _start_message_sources(diagram: Diagram, pool) -> set[str]:
    """The participants (pools) sending the messages that start the pool."""
    message_in = diagram.index.message_in
    return {
        diagram.pool_of(flow.source).id
        for node in pool.iter_nodes()
        if node.kind == "start_event_message"
        for flow in message_in.get(node.id, ())
    }


def _attribute(key: str, value: str | None) -> str:
    """The attribute *key* written with its leading space, or nothing
    without a *value*."""
    return f' {key}="{escape_attribute(value)}"' if value else ""


def _write_node(out: XmlWriter, diagram: Diagram, start_sources: set[str], node: Node) -> None:
    """One node: its mapping assigns, then its activity, as one run."""
    i = out.indent
    lines = []
    for mapping in diagram.index.mappings_into(node.id):
        source = escape_attribute(mapping.source_object)
        target = escape_attribute(mapping.target_object)
        copies = []
        for rule in mapping.rules:
            expr = rule.from_expr
            if isinstance(expr, Ref) and expr.path[0] == mapping.source_object:
                source_part = f'variable="{source}" part="{escape_attribute(".".join(expr.path[1:]))}"'
            else:
                source_part = f'expression="{escape_attribute(print_expr(expr))}"'
            copies.append(
                f"{i}  <copy>{i}    <from {source_part} />"
                f'{i}    <to variable="{target}" part="{escape_attribute(rule.to)}" />{i}  </copy>'
            )
        lines.append(element(i, "assign", f' name="{escape_attribute(mapping.id)}"', "".join(copies)))

    link = f'name="{escape_attribute(node.name)}" {_PLACEHOLDER_LINK}'
    if node.kind == "start_event_message":
        variable = _attribute("variable", _pick_output_variable(diagram, node.id))
        lines.append(f'{i}<receive {link} operation="receive" createInstance="yes"{variable} />')
    elif node.kind == "intermediate_message":
        lines.append(f'{i}<receive {link} operation="receive" />')
    elif node.kind in ("task", "sub_process"):
        # a reply answers the pool's start message, back to its sending participant
        if any(
            diagram.pool_of(flow.target).id in start_sources
            for flow in diagram.index.message_out.get(node.id, ())
        ):
            variable = _attribute("variable", _pick_output_variable(diagram, node.id))
            lines.append(f'{i}<reply {link} operation="reply"{variable} />')
        else:
            variables = _attribute("inputVariable", _pick_input_variable(diagram, node.id)) + _attribute(
                "outputVariable", _pick_output_variable(diagram, node.id)
            )
            lines.append(f'{i}<invoke {link} operation="execute"{variables} />')
    # start_event_none and end_event emit no standalone activity
    out.run("".join(lines))


def _reachable(diagram: Diagram, node_id: str) -> set[str]:
    seen = {node_id}
    stack = [node_id]
    while stack:
        current = stack.pop()
        for flow in diagram.index.out_flows.get(current, ()):
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
        for flow in diagram.index.out_flows.get(current, ()):
            if flow.target not in seen:
                seen.add(flow.target)
                order.append(flow.target)
    return None


class _Skeleton:
    """The control skeleton of one pool, written as it is walked."""

    def __init__(self, out: XmlWriter, diagram: Diagram, pool) -> None:
        self.out = out
        self.diagram = diagram
        self.start_sources = _start_message_sources(diagram, pool)
        self.emitted: set[str] = set()

    def chain(self, start_id: str, stop_id: str | None) -> None:
        """Write from *start_id* (inclusive) up to *stop_id* (exclusive): a
        split and its branches, each walked up to the split's join, then on
        from that join; any other gateway writes nothing."""
        diagram, out = self.diagram, self.out
        current: str | None = start_id
        while current is not None and current != stop_id and current not in self.emitted:
            self.emitted.add(current)
            node = diagram.node(current)
            nexts = diagram.index.out_flows.get(current, [])
            exclusive = node.kind == "gateway_exclusive_data"
            if not node.kind.startswith("gateway_"):
                _write_node(out, diagram, self.start_sources, node)
            elif len(nexts) > 1 or (exclusive and any(f.guard is not None for f in nexts)):
                join = _find_join(diagram, [f.target for f in nexts]) if len(nexts) > 1 else None
                out.open("if" if exclusive else "flow", f' name="{escape_attribute(node.name or node.id)}"')
                # an if takes the guarded flows in order, then the default: at most one (V7)
                for n, flow in enumerate(sorted(nexts, key=lambda f: f.guard is None) if exclusive else nexts):
                    if exclusive and n:
                        out.open("elseif" if flow.guard is not None else "else")
                    if exclusive and flow.guard is not None:
                        out.run(f"{out.indent}<condition>{escape_text(print_expr(flow.guard))}</condition>")
                    out.open("sequence")
                    self.chain(flow.target, join)
                    out.close()
                    if exclusive and n:
                        out.close()
                out.close()
                current = join
                continue
            current = nexts[0].target if nexts else None
