"""Canonical textual serialization for diagrams (``.bpdmn.json``).

The schema mirrors the metamodel one-to-one. Top-level keys, in order:
``bpdmn`` (version string ``"1.0"``), ``pools``, ``stores``, ``objects``,
``mappings``, ``message_flows``, plus the optional ``behaviors`` and
``start_inputs`` sections consumed by the simulator. Canonical form uses
two-space indentation, keys in schema order, elements sorted by id, and a
trailing newline, so golden-file comparisons stay byte-stable.

Reading is strict and coerces nothing. Each element is read by one
``_read_*`` function built from the typed readers of ``_Reader``:
``element`` (an object whose keys are all known), ``string``,
``optional_string`` (a string or null), ``flag`` (a boolean), ``integer``
(an int that is not a boolean), ``scalar``, ``expr``, ``list_of``,
``strings``, ``entries`` and ``items`` (a list of elements), and ``build``,
which turns a model error into a diagnostic and builds no element one of
whose fields failed, so each fault gives one diagnostic. A value of the
wrong type, a missing required key or an unknown key is a
:class:`ParseError`; an absent optional key takes its default. So a
document that parses is written back with the same values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii

from . import model
from .expr import ExprError, Expression, Value, parse_expr, print_expr

FORMAT_VERSION = "1.0"

# Element lists nested deeper (sub-processes in sub-processes) are refused:
# reading, writing and drawing a diagram recurse once per level.
_MAX_NESTING = 100


@dataclass(frozen=True)
class SourceSpan:
    line: int  # >= 1
    column: int  # >= 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[ParseDiagnostic]) -> None:
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


def _span_of(text: str, needle: str | None) -> SourceSpan:
    """Best-effort source position: first occurrence of *needle* in *text*."""
    if needle:
        idx = text.find(f'"{needle}"')
        if idx < 0:
            idx = text.find(needle)
        if idx >= 0:
            line = text.count("\n", 0, idx) + 1
            column = idx - (text.rfind("\n", 0, idx) + 1) + 1
            return SourceSpan(line, column)
    return SourceSpan(1, 1)


def is_scalar(value: object) -> bool:
    """Whether *value* may be a start input: a string, number, boolean or
    null. ``start_inputs`` and ``simulate --set`` both read values by it."""
    return value is None or isinstance(value, (str, int, float))


class _Reader:
    """The typed readers every element is read with. A wrong value records a
    diagnostic and reads as a stand-in, so one pass reports every error; an
    element one of whose own fields failed is not built, so a fault is
    reported once and not again through the stand-in."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.errors: list[ParseDiagnostic] = []
        self.depth = 0  # element lists being read
        self.faulty = False  # a field of the element being read failed

    def fail(self, message: str, near: str | None = None) -> None:
        self.errors.append(ParseDiagnostic(_span_of(self.text, near), message))

    def _wrong(self, data: dict, key: str, where: str, expected: str) -> None:
        self.faulty = True
        ident = data.get("id")
        near = ident if isinstance(ident, str) else None
        if key in data:
            self.fail(f"{key!r} of {where} must be {expected}", near=near or key)
        else:
            self.fail(f"missing key {key!r} in {where}", near=near)

    def element(self, data: object, what: str, keys: set[str]) -> dict | None:
        """*data* when it is an object, else ``None``; keys outside *keys* are errors."""
        if not isinstance(data, dict):
            self.fail(f"{what} must be an object")
            return None
        self.faulty = False
        for key in data:
            if key not in keys:
                self.fail(f"unknown key {key!r} in {what}", near=key)
        return data

    def string(self, data: dict, key: str, where: str, default: str | None = None) -> str:
        """The string under *key*, *default* when it is absent; required without one."""
        value = data.get(key, default)
        if isinstance(value, str):
            return value
        self._wrong(data, key, where, "a string")
        return default or ""

    def optional_string(self, data: dict, key: str, where: str) -> str | None:
        """The string under *key*, ``None`` when the key is absent or null."""
        value = data.get(key)
        if value is None or isinstance(value, str):
            return value
        self._wrong(data, key, where, "a string or null")
        return None

    def flag(self, data: dict, key: str, where: str) -> bool:
        """The boolean under *key*, false when the key is absent."""
        value = data.get(key, False)
        if isinstance(value, bool):
            return value
        self._wrong(data, key, where, "a boolean")
        return False

    def integer(self, data: dict, key: str, where: str, default: int) -> int:
        """The integer, not a boolean, under *key*, *default* when it is absent."""
        value = data.get(key, default)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        self._wrong(data, key, where, "an integer")
        return default

    def scalar(self, data: dict, key: str, where: str) -> Value:
        """The value under *key*, which :func:`is_scalar` must accept."""
        value = data[key]
        if is_scalar(value):
            return value
        self._wrong(data, key, where, "a string, number, boolean or null")
        return None

    def expr(self, data: dict, key: str, where: str, optional: bool = False) -> Expression | None:
        """The expression under *key*; if *optional*, ``None`` when absent or null."""
        text = data.get(key)
        if text is None and optional:
            return None
        if not isinstance(text, str):
            self._wrong(data, key, where, "an expression string")
            return None
        try:
            return parse_expr(text)
        except ExprError as exc:
            self.fail(f"bad expression in {where}: {exc}", near=text)
            return None

    def list_of(self, data: dict, key: str, where: str) -> list:
        """The list under *key*, empty when the key is absent."""
        value = data.get(key, [])
        if isinstance(value, list):
            return value
        self._wrong(data, key, where, "a list")
        return []

    def strings(self, data: dict, key: str, where: str) -> list[str]:
        """The list of strings under *key*, empty when the key is absent."""
        values = data.get(key, [])
        if isinstance(values, list) and all(isinstance(v, str) for v in values):
            return values
        self._wrong(data, key, where, "a list of strings")
        return []

    def entries(self, data: dict, key: str, where: str) -> dict:
        """The object under *key*, empty when the key is absent."""
        value = data.get(key, {})
        if isinstance(value, dict):
            return value
        self._wrong(data, key, where, "an object")
        return {}

    def items(self, data: dict, key: str, where: str, read) -> list:
        """The list under *key*, each item read by ``read(reader, item, where)``
        and left out when that gives ``None``, which fails the enclosing
        element."""
        if key not in data:
            return []
        if self.depth == _MAX_NESTING:
            self.fail("document nested too deeply", near=key)
            return []
        self.depth += 1
        values = self.list_of(data, key, where)
        faulty = self.faulty  # the enclosing element's, which its items reset
        out = []
        for item in values:
            element = read(self, item, where)
            if element is not None:
                out.append(element)
        # an item left out is a field of the enclosing element that failed
        self.faulty = faulty or len(out) < len(values)
        self.depth -= 1
        return out

    def build(self, near: str | None, cls, *fields):
        """``cls(*fields)``; ``None`` when a field of the element failed to
        read or build, or with the model error recorded near *near*. The
        fields come in the order the class declares them, which is the order
        of the schema's keys: a dataclass takes arguments by position faster
        than by keyword."""
        if self.faulty:
            return None
        try:
            return cls(*fields)
        except model.ModelError as exc:
            self.fail(str(exc), near=near)
            self.faulty = True
            return None


def parse_diagram(text: str) -> model.Diagram:
    """Parse canonical JSON into a :class:`~bpdmn.model.Diagram`.

    Raises :class:`ParseError`, and nothing else, with source-located
    diagnostics on malformed documents, schema violations and dangling
    references.
    """
    # decoding a document and parsing an expression recurse once per nesting level
    try:
        return _parse(text)
    except RecursionError:
        raise ParseError([ParseDiagnostic(SourceSpan(1, 1), "document nested too deeply")]) from None


def _parse(text: str) -> model.Diagram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            [ParseDiagnostic(SourceSpan(exc.lineno, exc.colno), f"malformed document: {exc.msg}")]
        ) from exc
    # a lone surrogate takes an escape or a character outside ASCII
    if "\\" in text or not text.isascii():
        bad = _unencodable_string(data)
        if bad is not None:
            quoted = json.dumps(bad)
            span = _span_of(text, quoted[1:-1])
            raise ParseError([ParseDiagnostic(span, f"string {quoted} holds a lone surrogate")])
    reader = _Reader(text)
    keys = {"bpdmn", "id", "pools", "stores", "objects", "mappings", "message_flows", "behaviors", "start_inputs"}
    if reader.element(data, "document", keys) is None:
        raise ParseError(reader.errors)
    version = data.get("bpdmn")
    if version != FORMAT_VERSION:
        reader.fail(f"unsupported or missing format version {version!r}")
    for key in ("pools", "stores", "objects", "mappings", "message_flows"):
        if key not in data:
            reader.fail(f"missing key {key!r} in document")
    fields = (
        reader.string(data, "id", "document", "diagram"),
        reader.items(data, "pools", "document", _read_pool),
        reader.items(data, "stores", "document", _read_store),
        reader.items(data, "objects", "document", _read_object),
        reader.items(data, "mappings", "document", _read_mapping),
        reader.items(data, "message_flows", "document", _read_message_flow),
        _read_behaviors(reader, data),
        _read_start_inputs(reader, data),
    )
    diagram = None if reader.errors else reader.build(None, model.Diagram, *fields)
    if diagram is None:
        raise ParseError(reader.errors)
    return diagram


def _unencodable_string(data: object) -> str | None:
    """A key or string of decoded JSON that UTF-8 cannot encode (it holds a
    lone surrogate), or ``None``."""
    stack = [data]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack += item
            stack += item.values()
        elif isinstance(item, list):
            stack += item
        elif isinstance(item, str):
            try:
                item.encode("utf-8")
            except UnicodeEncodeError:
                return item
    return None


# Each _read_<element>(reader, data, where) reads one element found in the
# list of *where*, or records why it cannot and returns None.


def _read_pool(reader: _Reader, data: object, _where: str) -> model.Pool | None:
    item = reader.element(data, "pool", {"id", "name", "nodes", "sequence_flows", "explicit_data_flows"})
    if item is None:
        return None
    pool_id = reader.string(item, "id", "pool")
    where = f"pool {pool_id}"
    return reader.build(
        pool_id,
        model.Pool,
        pool_id,
        reader.string(item, "name", where, pool_id),
        reader.items(item, "nodes", where, _read_node),
        reader.items(item, "sequence_flows", where, _read_sequence_flow),
        reader.items(item, "explicit_data_flows", where, _read_data_flow),
    )


def _read_node(reader: _Reader, data: object, where: str) -> model.Node | None:
    what = f"node of {where}"
    item = reader.element(
        data, what, {"id", "name", "kind", "children", "local_stores", "condition", "multi_instance"}
    )
    if item is None:
        return None
    node_id = reader.string(item, "id", what)
    where = f"node {node_id}"
    return reader.build(
        node_id,
        model.Node,
        node_id,
        reader.string(item, "name", where, node_id),
        reader.string(item, "kind", where),
        reader.items(item, "children", where, _read_node),
        reader.strings(item, "local_stores", where),
        reader.expr(item, "condition", f"condition of {where}", optional=True),
        reader.flag(item, "multi_instance", where),
    )


def _read_sequence_flow(reader: _Reader, data: object, where: str) -> model.SequenceFlow | None:
    what = f"sequence flow of {where}"
    item = reader.element(data, what, {"id", "source", "target", "attachments", "guard"})
    if item is None:
        return None
    flow_id = reader.string(item, "id", what)
    where = f"sequence flow {flow_id}"
    return reader.build(
        flow_id,
        model.SequenceFlow,
        flow_id,
        reader.string(item, "source", where),
        reader.string(item, "target", where),
        reader.items(item, "attachments", where, _read_attachment),
        reader.expr(item, "guard", f"guard of flow {flow_id}", optional=True),
    )


def _read_data_flow(reader: _Reader, data: object, where: str) -> model.ExplicitDataFlow | None:
    what = f"data flow of {where}"
    item = reader.element(data, what, {"id", "source", "target", "object", "optional"})
    if item is None:
        return None
    flow_id = reader.string(item, "id", what)
    where = f"data flow {flow_id}"
    return reader.build(
        flow_id,
        model.ExplicitDataFlow,
        flow_id,
        reader.string(item, "source", where),
        reader.string(item, "target", where),
        reader.string(item, "object", where),
        reader.flag(item, "optional", where),
    )


def _read_attachment(reader: _Reader, data: object, where: str) -> model.ObjectAttachment | None:
    what = f"attachment of {where}"
    item = reader.element(data, what, {"object", "direction", "optional"})
    if item is None:
        return None
    obj = reader.string(item, "object", what)
    return reader.build(
        obj,
        model.ObjectAttachment,
        obj,
        reader.string(item, "direction", what),
        reader.flag(item, "optional", what),
    )


def _read_store(reader: _Reader, data: object, _where: str) -> model.DataStore | None:
    item = reader.element(
        data, "store", {"id", "name", "icon", "entities", "relationships", "generalizations", "scope", "collapsed"}
    )
    if item is None:
        return None
    store_id = reader.string(item, "id", "store")
    where = f"store {store_id}"
    kind, sep, node = reader.string(item, "scope", where, "diagram").partition(":")
    scope = reader.build(store_id, model.Scope, kind, node if sep else None)
    return reader.build(
        store_id,
        model.DataStore,
        store_id,
        reader.string(item, "name", where, store_id),
        reader.string(item, "icon", where, "database"),
        reader.items(item, "entities", where, _read_entity),
        reader.items(item, "relationships", where, _read_relationship),
        reader.items(item, "generalizations", where, _read_generalization),
        scope,
        reader.flag(item, "collapsed", where),
    )


def _read_entity(reader: _Reader, data: object, where: str) -> model.Entity | None:
    what = f"entity of {where}"
    item = reader.element(data, what, {"name", "fields"})
    if item is None:
        return None
    name = reader.string(item, "name", what)
    return reader.build(name, model.Entity, name, reader.items(item, "fields", f"entity {name}", _read_variable))


def _read_relationship(reader: _Reader, data: object, where: str) -> model.Relationship | None:
    what = f"relationship of {where}"
    item = reader.element(data, what, {"name", "left", "right"})
    if item is None:
        return None
    name = reader.string(item, "name", what)
    return reader.build(
        name, model.Relationship, name, reader.string(item, "left", what), reader.string(item, "right", what)
    )


def _read_generalization(reader: _Reader, data: object, where: str) -> model.Generalization | None:
    what = f"generalization of {where}"
    item = reader.element(data, what, {"parent", "child"})
    if item is None:
        return None
    parent = reader.string(item, "parent", what)
    return reader.build(parent, model.Generalization, parent, reader.string(item, "child", what))


def _read_variable(reader: _Reader, data: object, where: str) -> model.Variable | None:
    what = f"variable of {where}"
    item = reader.element(data, what, {"name", "vtype"})
    if item is None:
        return None
    name = reader.string(item, "name", what)
    return reader.build(name, model.Variable, name, reader.string(item, "vtype", what, "string"))


def _read_object(reader: _Reader, data: object, _where: str) -> model.DataObject | None:
    item = reader.element(
        data, "object", {"id", "name", "stereotype", "physicality", "variables", "url", "state", "origin_store"}
    )
    if item is None:
        return None
    object_id = reader.string(item, "id", "object")
    where = f"object {object_id}"
    return reader.build(
        object_id,
        model.DataObject,
        object_id,
        reader.string(item, "name", where, object_id),
        reader.string(item, "stereotype", where, "generic"),
        reader.string(item, "physicality", where, "digital"),
        reader.items(item, "variables", where, _read_variable),
        reader.optional_string(item, "url", where),
        reader.optional_string(item, "state", where),
        reader.optional_string(item, "origin_store", where),
    )


def _read_mapping(reader: _Reader, data: object, _where: str) -> model.DataMapping | None:
    item = reader.element(data, "mapping", {"id", "source_object", "target_object", "rules"})
    if item is None:
        return None
    mapping_id = reader.string(item, "id", "mapping")
    where = f"mapping {mapping_id}"
    return reader.build(
        mapping_id,
        model.DataMapping,
        mapping_id,
        reader.string(item, "source_object", where),
        reader.string(item, "target_object", where),
        reader.items(item, "rules", where, _read_rule),
    )


def _read_rule(reader: _Reader, data: object, where: str) -> model.CopyRule | None:
    what = f"rule of {where}"
    item = reader.element(data, what, {"from", "to"})
    if item is None:
        return None
    return reader.build(where, model.CopyRule, reader.expr(item, "from", what), reader.string(item, "to", what))


def _read_message_flow(reader: _Reader, data: object, _where: str) -> model.MessageFlow | None:
    item = reader.element(data, "message flow", {"id", "source", "target", "attachments"})
    if item is None:
        return None
    flow_id = reader.string(item, "id", "message flow")
    where = f"message flow {flow_id}"
    return reader.build(
        flow_id,
        model.MessageFlow,
        flow_id,
        reader.string(item, "source", where),
        reader.string(item, "target", where),
        reader.items(item, "attachments", where, _read_attachment),
    )


def _read_behaviors(reader: _Reader, data: dict) -> dict[str, model.TaskBehavior]:
    out = {}
    for node_id, spec in reader.entries(data, "behaviors", "document").items():
        behavior = _read_behavior(reader, spec, node_id)
        if behavior is not None:
            out[node_id] = behavior
    return out


def _read_behavior(reader: _Reader, data: object, node_id: str) -> model.TaskBehavior | None:
    where = f"behavior of {node_id}"
    item = reader.element(data, where, {"effects", "store_actions", "instances"})
    if item is None:
        return None
    # an effect or store action is named after the node: "insert of <node>"
    return reader.build(
        node_id,
        model.TaskBehavior,
        reader.items(item, "effects", node_id, _read_effect),
        reader.items(item, "store_actions", node_id, _read_store_action),
        reader.integer(item, "instances", where, 1),
    )


def _read_effect(reader: _Reader, data: object, node_id: str) -> model.Effect | None:
    what = f"effect of {node_id}"
    item = reader.element(data, what, {"target", "expr"})
    if item is None:
        return None
    target = reader.string(item, "target", what)
    obj, dot, path = target.partition(".")
    if not dot and not reader.faulty:
        reader.fail(f"effect target {target!r} must be object.path", near=target)
    return reader.build(target, model.Effect, obj, path, reader.expr(item, "expr", what))


def _read_store_action(
    reader: _Reader, data: object, node_id: str
) -> model.StoreInsert | model.StoreRead | None:
    action = data.get("action") if isinstance(data, dict) else None
    what = f"{action} of {node_id}"
    if action == "insert":
        item = reader.element(data, what, {"action", "store", "entity", "assignments"})
        assignments = reader.entries(item, "assignments", what)
        return reader.build(
            node_id,
            model.StoreInsert,
            reader.string(item, "store", what),
            reader.string(item, "entity", what),
            {name: reader.expr(assignments, name, what) for name in assignments},
        )
    if action == "read":
        item = reader.element(data, what, {"action", "store", "entity", "object", "filter"})
        return reader.build(
            node_id,
            model.StoreRead,
            reader.string(item, "store", what),
            reader.string(item, "entity", what),
            reader.string(item, "object", what),
            reader.expr(item, "filter", what, optional=True),
        )
    reader.fail(f'store action of {node_id} must be an object with "action" "insert" or "read"', near=node_id)
    return None


def _read_start_inputs(reader: _Reader, data: dict) -> dict[str, dict[str, Value]]:
    inputs = reader.entries(data, "start_inputs", "document")
    out = {}
    for obj_id in inputs:
        bindings = reader.entries(inputs, obj_id, "start inputs")
        where = f"start inputs of {obj_id}"
        out[obj_id] = {var: reader.scalar(bindings, var, where) for var in bindings}
    return out


# ---------------------------------------------------------------------------
# Serialization


def serialize_diagram(diagram: model.Diagram) -> str:
    """Canonical text: schema key order, elements sorted by id, two-space
    indentation, trailing newline."""
    doc: dict = {"bpdmn": FORMAT_VERSION}
    if diagram.id != "diagram":
        doc["id"] = diagram.id
    doc["pools"] = [_pool_dict(p) for p in sorted(diagram.pools, key=lambda p: p.id)]
    doc["stores"] = [_store_dict(s) for s in sorted(diagram.stores, key=lambda s: s.id)]
    doc["objects"] = [_object_dict(o) for o in sorted(diagram.objects, key=lambda o: o.id)]
    doc["mappings"] = [_mapping_dict(m) for m in sorted(diagram.mappings, key=lambda m: m.id)]
    doc["message_flows"] = [
        _message_flow_dict(f) for f in sorted(diagram.message_flows, key=lambda f: f.id)
    ]
    if diagram.behaviors:
        doc["behaviors"] = {
            node_id: _behavior_dict(b) for node_id, b in sorted(diagram.behaviors.items())
        }
    if diagram.start_inputs:
        doc["start_inputs"] = {
            obj: dict(sorted(vals.items())) for obj, vals in sorted(diagram.start_inputs.items())
        }
    return json_text(doc, ensure_ascii=False) + "\n"


_INF = float("inf")


def json_text(value: object, ensure_ascii: bool) -> str:
    """*value* as ``json.dumps(value, indent=2, ensure_ascii=ensure_ascii)``
    writes it, in one recursive pass (with ``indent`` set, ``json.dumps``
    takes its pure-Python encoder). Takes dicts with string keys, lists,
    tuples, strings, ints, floats, bools and ``None``; raises ``TypeError``
    on anything else."""
    parts: list[str] = []
    _write_json(value, encode_basestring_ascii if ensure_ascii else encode_basestring, "\n", parts)
    return "".join(parts)


def _write_json(value: object, encode, newline: str, parts: list[str]) -> None:
    if isinstance(value, str):
        parts.append(encode(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            parts.append(opening)
            parts.append(encode(key))
            parts.append(": ")
            if isinstance(item, str):
                parts.append(encode(item))
            else:
                _write_json(item, encode, inner, parts)
            opening = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opening = "[" + inner
        for item in value:
            parts.append(opening)
            if isinstance(item, str):
                parts.append(encode(item))
            else:
                _write_json(item, encode, inner, parts)
            opening = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value == _INF:
            parts.append("Infinity")
        elif value == -_INF:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _attachment_dicts(attachments: list[model.ObjectAttachment]) -> list[dict]:
    out = []
    for att in sorted(attachments, key=lambda a: (a.object, a.direction)):
        d: dict = {"object": att.object, "direction": att.direction}
        if att.optional:
            d["optional"] = True
        out.append(d)
    return out


def _node_dict(node: model.Node) -> dict:
    d: dict = {"id": node.id, "name": node.name, "kind": node.kind}
    if node.children:
        d["children"] = [_node_dict(c) for c in sorted(node.children, key=lambda n: n.id)]
    if node.local_stores:
        d["local_stores"] = sorted(node.local_stores)
    if node.condition is not None:
        d["condition"] = print_expr(node.condition)
    if node.multi_instance:
        d["multi_instance"] = True
    return d


def _pool_dict(pool: model.Pool) -> dict:
    d: dict = {"id": pool.id, "name": pool.name}
    d["nodes"] = [_node_dict(n) for n in sorted(pool.nodes, key=lambda n: n.id)]
    flows = []
    for flow in sorted(pool.sequence_flows, key=lambda f: f.id):
        fd: dict = {"id": flow.id, "source": flow.source, "target": flow.target}
        if flow.attachments:
            fd["attachments"] = _attachment_dicts(flow.attachments)
        if flow.guard is not None:
            fd["guard"] = print_expr(flow.guard)
        flows.append(fd)
    d["sequence_flows"] = flows
    data_flows = []
    for flow in sorted(pool.explicit_data_flows, key=lambda f: f.id):
        fd = {"id": flow.id, "source": flow.source, "target": flow.target, "object": flow.object}
        if flow.optional:
            fd["optional"] = True
        data_flows.append(fd)
    d["explicit_data_flows"] = data_flows
    return d


def _variable_dicts(variables: list[model.Variable]) -> list[dict]:
    return [
        {"name": v.name, "vtype": v.vtype} for v in sorted(variables, key=lambda v: v.name)
    ]


def _store_dict(store: model.DataStore) -> dict:
    d: dict = {"id": store.id, "name": store.name, "icon": store.icon}
    d["entities"] = [
        {"name": e.name, "fields": _variable_dicts(e.fields)}
        for e in sorted(store.entities, key=lambda e: e.name)
    ]
    if store.relationships:
        d["relationships"] = [
            {"name": r.name, "left": r.left, "right": r.right}
            for r in sorted(store.relationships, key=lambda r: r.name)
        ]
    if store.generalizations:
        d["generalizations"] = [
            {"parent": g.parent, "child": g.child}
            for g in sorted(store.generalizations, key=lambda g: (g.parent, g.child))
        ]
    if store.scope.kind == "diagram":
        d["scope"] = "diagram"
    else:
        d["scope"] = f"sub_process:{store.scope.sub_process}"
    if store.collapsed:
        d["collapsed"] = True
    return d


def _object_dict(obj: model.DataObject) -> dict:
    d: dict = {"id": obj.id, "name": obj.name, "stereotype": obj.stereotype}
    if obj.physicality != "digital":
        d["physicality"] = obj.physicality
    d["variables"] = _variable_dicts(obj.variables)
    if obj.url is not None:
        d["url"] = obj.url
    if obj.state is not None:
        d["state"] = obj.state
    if obj.origin_store is not None:
        d["origin_store"] = obj.origin_store
    return d


def _mapping_dict(mapping: model.DataMapping) -> dict:
    return {
        "id": mapping.id,
        "source_object": mapping.source_object,
        "target_object": mapping.target_object,
        # rule order is meaningful (ordered copy rules), never sorted
        "rules": [{"from": print_expr(r.from_expr), "to": r.to} for r in mapping.rules],
    }


def _message_flow_dict(flow: model.MessageFlow) -> dict:
    d: dict = {"id": flow.id, "source": flow.source, "target": flow.target}
    if flow.attachments:
        d["attachments"] = _attachment_dicts(flow.attachments)
    return d


def _behavior_dict(behavior: model.TaskBehavior) -> dict:
    d: dict = {}
    if behavior.effects:
        d["effects"] = [
            {"target": f"{e.target_object}.{e.target_path}", "expr": print_expr(e.expr)}
            for e in behavior.effects
        ]
    if behavior.store_actions:
        actions = []
        for action in behavior.store_actions:
            if isinstance(action, model.StoreInsert):
                actions.append(
                    {
                        "action": "insert",
                        "store": action.store,
                        "entity": action.entity,
                        "assignments": {
                            k: print_expr(v) for k, v in sorted(action.assignments.items())
                        },
                    }
                )
            else:
                ad: dict = {
                    "action": "read",
                    "store": action.store,
                    "entity": action.entity,
                    "object": action.object,
                }
                if action.filter is not None:
                    ad["filter"] = print_expr(action.filter)
                actions.append(ad)
        d["store_actions"] = actions
    if behavior.instances != 1:
        d["instances"] = behavior.instances
    return d


# canonical serialization of a diagram with no elements
EMPTY_DOCUMENT = serialize_diagram(model.Diagram("diagram"))
