"""Canonical textual serialization for diagrams (``.bpdmn.json``).

The schema mirrors the metamodel one-to-one. Top-level keys, in order:
``bpdmn`` (version string ``"1.0"``), ``pools``, ``stores``, ``objects``,
``mappings``, ``message_flows``, plus the optional ``behaviors`` and
``start_inputs`` sections consumed by the simulator. Canonical form uses
two-space indentation, keys in schema order, elements sorted by id, and a
trailing newline, so golden-file comparisons stay byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii

from . import model
from .expr import ExprError, Expression, Value, parse_expr, print_expr

FORMAT_VERSION = "1.0"


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


class _Reader:
    """Schema walker collecting diagnostics with best-effort spans."""

    def __init__(self, text: str, strict: bool) -> None:
        self.text = text
        self.strict = strict
        self.errors: list[ParseDiagnostic] = []
        self.warnings: list[ParseDiagnostic] = []

    def fail(self, message: str, near: str | None = None) -> None:
        self.errors.append(ParseDiagnostic(_span_of(self.text, near), message))

    def unknown_keys(self, data: dict, allowed: set[str], where: str) -> None:
        for key in data:
            if key not in allowed:
                diag = ParseDiagnostic(_span_of(self.text, key), f"unknown key {key!r} in {where}")
                if self.strict:
                    self.errors.append(diag)
                else:
                    self.warnings.append(diag)

    def require(self, data: dict, key: str, where: str, default=None):
        if key not in data:
            if default is not None:
                return default
            self.fail(f"missing key {key!r} in {where}", near=data.get("id"))
            return None
        return data[key]

    def _wrong_type(self, data: dict, key: str, where: str, expected: str) -> None:
        ident = data.get("id")
        self.fail(f"{key!r} of {where} must be {expected}", near=ident if isinstance(ident, str) else key)

    def list_of(self, data: dict, key: str, where: str) -> list:
        """The list under *key*, empty when the key is absent. Any other
        value is an error, read as an empty list."""
        value = data.get(key, [])
        if isinstance(value, list):
            return value
        self._wrong_type(data, key, where, "a list")
        return []

    def string(self, data: dict, key: str, where: str, default: str) -> str:
        """The string under *key*, *default* when the key is absent. Any
        other value is an error, read as *default*."""
        value = data.get(key, default)
        if isinstance(value, str):
            return value
        self._wrong_type(data, key, where, "a string")
        return default

    def optional_string(self, data: dict, key: str, where: str) -> str | None:
        """The string under *key*, ``None`` when the key is absent or null.
        Any other value is an error, read as ``None``."""
        value = data.get(key)
        if value is None or isinstance(value, str):
            return value
        self._wrong_type(data, key, where, "a string or null")
        return None

    def scalar(self, data: dict, key: str, where: str) -> Value:
        """The string, number, boolean or null under *key*. Any other value
        is an error, read as ``None``."""
        value = data[key]
        if value is None or isinstance(value, (str, int, float)):
            return value
        self._wrong_type(data, key, where, "a string, number, boolean or null")
        return None

    def expr(self, text: object, where: str) -> Expression | None:
        if not isinstance(text, str):
            self.fail(f"expected expression string in {where}", near=where)
            return None
        try:
            return parse_expr(text)
        except ExprError as exc:
            self.fail(f"bad expression in {where}: {exc}", near=text)
            return None


def parse_diagram(text: str, strict: bool = True) -> model.Diagram:
    """Parse canonical JSON into a :class:`~bpdmn.model.Diagram`.

    Raises :class:`ParseError` with source-located diagnostics on malformed
    documents, schema violations and dangling references. With
    ``strict=False`` unknown keys are warnings instead of errors.
    """
    diagram, _ = parse_diagram_with_warnings(text, strict=strict)
    return diagram


def parse_diagram_with_warnings(
    text: str, strict: bool = True
) -> tuple[model.Diagram, list[ParseDiagnostic]]:
    # decoding and reading recurse once per nesting level
    try:
        return _parse(text, strict)
    except RecursionError:
        raise ParseError([ParseDiagnostic(SourceSpan(1, 1), "document nested too deeply")]) from None


def _parse(text: str, strict: bool) -> tuple[model.Diagram, list[ParseDiagnostic]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            [ParseDiagnostic(SourceSpan(exc.lineno, exc.colno), f"malformed document: {exc.msg}")]
        ) from exc
    if not isinstance(data, dict):
        raise ParseError([ParseDiagnostic(SourceSpan(1, 1), "top level must be an object")])

    reader = _Reader(text, strict)
    reader.unknown_keys(
        data,
        {"bpdmn", "id", "pools", "stores", "objects", "mappings", "message_flows", "behaviors", "start_inputs"},
        "document",
    )
    version = data.get("bpdmn")
    if version != FORMAT_VERSION:
        reader.fail(f"unsupported or missing format version {version!r}")
    diagram_id = data.get("id", "diagram")
    if not isinstance(diagram_id, str):
        reader.fail("'id' of document must be a string", near="id")

    pools = [_read_pool(reader, p) for p in _as_list(reader, data, "pools")]
    stores = [_read_store(reader, s) for s in _as_list(reader, data, "stores")]
    objects = [_read_object(reader, o) for o in _as_list(reader, data, "objects")]
    mappings = [_read_mapping(reader, m) for m in _as_list(reader, data, "mappings")]
    message_flows = [_read_message_flow(reader, f) for f in _as_list(reader, data, "message_flows")]
    behaviors = _read_behaviors(reader, data.get("behaviors", {}))
    start_inputs = _read_start_inputs(reader, data.get("start_inputs", {}))

    if reader.errors:
        raise ParseError(reader.errors)

    try:
        diagram = model.Diagram(
            id=diagram_id,
            pools=[p for p in pools if p is not None],
            stores=[s for s in stores if s is not None],
            objects=[o for o in objects if o is not None],
            mappings=[m for m in mappings if m is not None],
            message_flows=[f for f in message_flows if f is not None],
            behaviors=behaviors,
            start_inputs=start_inputs,
        )
    except model.ModelError as exc:
        raise ParseError([ParseDiagnostic(_span_of(text, None), str(exc))]) from exc
    return diagram, reader.warnings


def _as_list(reader: _Reader, data: dict, key: str) -> list:
    if data.get(key) is None:
        reader.fail(f"missing key {key!r} in document")
        return []
    return reader.list_of(data, key, "document")


def _read_attachments(reader: _Reader, data: dict, where: str) -> list[model.ObjectAttachment]:
    out = []
    for item in reader.list_of(data, "attachments", where):
        if not isinstance(item, dict):
            reader.fail(f"bad attachment in {where}", near=where)
            continue
        reader.unknown_keys(item, {"object", "direction", "optional"}, f"attachment of {where}")
        try:
            out.append(
                model.ObjectAttachment(
                    object=str(item.get("object", "")),
                    direction=str(item.get("direction", "")),
                    optional=bool(item.get("optional", False)),
                )
            )
        except model.ModelError as exc:
            reader.fail(str(exc), near=str(item.get("object", where)))
    return out


def _read_node(reader: _Reader, data: object) -> model.Node | None:
    if not isinstance(data, dict):
        reader.fail("node must be an object")
        return None
    reader.unknown_keys(
        data, {"id", "name", "kind", "children", "local_stores", "condition", "multi_instance"}, "node"
    )
    node_id = str(reader.require(data, "id", "node") or "")
    condition = None
    if data.get("condition") is not None:
        condition = reader.expr(data["condition"], f"condition of node {node_id}")
    where = f"node {node_id}"
    children = [c for c in (_read_node(reader, ch) for ch in reader.list_of(data, "children", where)) if c]
    try:
        return model.Node(
            id=node_id,
            name=reader.string(data, "name", where, node_id),
            kind=str(reader.require(data, "kind", f"node {node_id}") or "task"),
            children=children,
            local_stores=[str(s) for s in reader.list_of(data, "local_stores", where)],
            condition=condition,
            multi_instance=bool(data.get("multi_instance", False)),
        )
    except model.ModelError as exc:
        reader.fail(str(exc), near=node_id)
        return None


def _read_pool(reader: _Reader, data: object) -> model.Pool | None:
    if not isinstance(data, dict):
        reader.fail("pool must be an object")
        return None
    reader.unknown_keys(
        data, {"id", "name", "nodes", "sequence_flows", "explicit_data_flows"}, "pool"
    )
    pool_id = str(reader.require(data, "id", "pool") or "")
    where = f"pool {pool_id}"
    nodes = [n for n in (_read_node(reader, nd) for nd in reader.list_of(data, "nodes", where)) if n]
    seq_flows = []
    for item in reader.list_of(data, "sequence_flows", where):
        if not isinstance(item, dict):
            reader.fail(f"bad sequence flow in pool {pool_id}", near=pool_id)
            continue
        reader.unknown_keys(item, {"id", "source", "target", "attachments", "guard"}, "sequence flow")
        flow_id = str(reader.require(item, "id", "sequence flow") or "")
        guard = None
        if item.get("guard") is not None:
            guard = reader.expr(item["guard"], f"guard of flow {flow_id}")
        try:
            seq_flows.append(
                model.SequenceFlow(
                    id=flow_id,
                    source=str(item.get("source", "")),
                    target=str(item.get("target", "")),
                    attachments=_read_attachments(reader, item, flow_id),
                    guard=guard,
                )
            )
        except model.ModelError as exc:
            reader.fail(str(exc), near=flow_id)
    data_flows = []
    for item in reader.list_of(data, "explicit_data_flows", where):
        if not isinstance(item, dict):
            reader.fail(f"bad data flow in pool {pool_id}", near=pool_id)
            continue
        reader.unknown_keys(item, {"id", "source", "target", "object", "optional"}, "explicit data flow")
        flow_id = str(reader.require(item, "id", "explicit data flow") or "")
        try:
            data_flows.append(
                model.ExplicitDataFlow(
                    id=flow_id,
                    source=str(item.get("source", "")),
                    target=str(item.get("target", "")),
                    object=str(item.get("object", "")),
                    optional=bool(item.get("optional", False)),
                )
            )
        except model.ModelError as exc:
            reader.fail(str(exc), near=flow_id)
    return model.Pool(
        id=pool_id,
        name=reader.string(data, "name", where, pool_id),
        nodes=nodes,
        sequence_flows=seq_flows,
        explicit_data_flows=data_flows,
    )


def _read_variables(reader: _Reader, data: dict, key: str, where: str) -> list[model.Variable]:
    out = []
    for item in reader.list_of(data, key, where):
        if not isinstance(item, dict):
            reader.fail(f"bad variable in {where}", near=where)
            continue
        reader.unknown_keys(item, {"name", "vtype"}, f"variable of {where}")
        try:
            out.append(
                model.Variable(name=str(item.get("name", "")), vtype=str(item.get("vtype", "string")))
            )
        except model.ModelError as exc:
            reader.fail(str(exc), near=str(item.get("name", where)))
    return out


def _read_store(reader: _Reader, data: object) -> model.DataStore | None:
    if not isinstance(data, dict):
        reader.fail("store must be an object")
        return None
    reader.unknown_keys(
        data,
        {"id", "name", "icon", "entities", "relationships", "generalizations", "scope", "collapsed"},
        "store",
    )
    store_id = str(reader.require(data, "id", "store") or "")
    where = f"store {store_id}"
    entities = []
    for item in reader.list_of(data, "entities", where):
        if not isinstance(item, dict):
            reader.fail(f"bad entity in store {store_id}", near=store_id)
            continue
        reader.unknown_keys(item, {"name", "fields"}, "entity")
        try:
            entities.append(
                model.Entity(
                    name=str(item.get("name", "")),
                    fields=_read_variables(reader, item, "fields", f"entity of {store_id}"),
                )
            )
        except model.ModelError as exc:
            reader.fail(str(exc), near=str(item.get("name", store_id)))
    relationships = [
        model.Relationship(str(r.get("name", "")), str(r.get("left", "")), str(r.get("right", "")))
        for r in reader.list_of(data, "relationships", where)
        if isinstance(r, dict)
    ]
    generalizations = []
    for g in reader.list_of(data, "generalizations", where):
        if not isinstance(g, dict):
            continue
        try:
            generalizations.append(
                model.Generalization(str(g.get("parent", "")), str(g.get("child", "")))
            )
        except model.ModelError as exc:
            reader.fail(str(exc), near=store_id)
    scope_text = data.get("scope", "diagram")
    if scope_text == "diagram":
        scope = model.Scope.diagram()
    elif isinstance(scope_text, str) and scope_text.startswith("sub_process:"):
        scope = model.Scope.of(scope_text.split(":", 1)[1])
    else:
        reader.fail(f"bad scope {scope_text!r} in store {store_id}", near=store_id)
        scope = model.Scope.diagram()
    return model.DataStore(
        id=store_id,
        name=reader.string(data, "name", where, store_id),
        icon=reader.string(data, "icon", where, "database"),
        entities=entities,
        relationships=relationships,
        generalizations=generalizations,
        scope=scope,
        collapsed=bool(data.get("collapsed", False)),
    )


def _read_object(reader: _Reader, data: object) -> model.DataObject | None:
    if not isinstance(data, dict):
        reader.fail("object must be an object")
        return None
    reader.unknown_keys(
        data,
        {"id", "name", "stereotype", "physicality", "variables", "url", "state", "origin_store"},
        "data object",
    )
    object_id = str(reader.require(data, "id", "data object") or "")
    where = f"object {object_id}"
    try:
        return model.DataObject(
            id=object_id,
            name=reader.string(data, "name", where, object_id),
            stereotype=reader.string(data, "stereotype", where, "generic"),
            physicality=str(data.get("physicality", "digital")),
            variables=_read_variables(reader, data, "variables", where),
            url=reader.optional_string(data, "url", where),
            state=reader.optional_string(data, "state", where),
            origin_store=reader.optional_string(data, "origin_store", where),
        )
    except model.ModelError as exc:
        reader.fail(str(exc), near=object_id)
        return None


def _read_mapping(reader: _Reader, data: object) -> model.DataMapping | None:
    if not isinstance(data, dict):
        reader.fail("mapping must be an object")
        return None
    reader.unknown_keys(data, {"id", "source_object", "target_object", "rules"}, "mapping")
    mapping_id = str(reader.require(data, "id", "mapping") or "")
    rules = []
    for item in reader.list_of(data, "rules", f"mapping {mapping_id}"):
        if not isinstance(item, dict):
            reader.fail(f"bad rule in mapping {mapping_id}", near=mapping_id)
            continue
        reader.unknown_keys(item, {"from", "to"}, f"rule of mapping {mapping_id}")
        from_expr = reader.expr(item.get("from"), f"rule of mapping {mapping_id}")
        if from_expr is None:
            continue
        rules.append(model.CopyRule(from_expr=from_expr, to=str(item.get("to", ""))))
    try:
        return model.DataMapping(
            id=mapping_id,
            source_object=str(data.get("source_object", "")),
            target_object=str(data.get("target_object", "")),
            rules=rules,
        )
    except model.ModelError as exc:
        reader.fail(str(exc), near=mapping_id)
        return None


def _read_message_flow(reader: _Reader, data: object) -> model.MessageFlow | None:
    if not isinstance(data, dict):
        reader.fail("message flow must be an object")
        return None
    reader.unknown_keys(data, {"id", "source", "target", "attachments"}, "message flow")
    flow_id = str(reader.require(data, "id", "message flow") or "")
    try:
        return model.MessageFlow(
            id=flow_id,
            source=str(data.get("source", "")),
            target=str(data.get("target", "")),
            attachments=_read_attachments(reader, data, flow_id),
        )
    except model.ModelError as exc:
        reader.fail(str(exc), near=flow_id)
        return None


def _read_behaviors(reader: _Reader, data: object) -> dict[str, model.TaskBehavior]:
    out: dict[str, model.TaskBehavior] = {}
    if not isinstance(data, dict):
        reader.fail("'behaviors' must be an object")
        return out
    for node_id, spec in data.items():
        if not isinstance(spec, dict):
            reader.fail(f"behavior of {node_id} must be an object", near=node_id)
            continue
        reader.unknown_keys(spec, {"effects", "store_actions", "instances"}, f"behavior of {node_id}")
        effects = []
        for item in reader.list_of(spec, "effects", f"behavior of {node_id}"):
            if not isinstance(item, dict) or "target" not in item or "expr" not in item:
                reader.fail(f"bad effect in behavior of {node_id}", near=node_id)
                continue
            target = str(item["target"])
            if "." not in target:
                reader.fail(f"effect target {target!r} must be object.path", near=target)
                continue
            obj, path = target.split(".", 1)
            expr = reader.expr(item["expr"], f"effect of {node_id}")
            if expr is not None:
                effects.append(model.Effect(obj, path, expr))
        actions: list[model.StoreInsert | model.StoreRead] = []
        for item in reader.list_of(spec, "store_actions", f"behavior of {node_id}"):
            if not isinstance(item, dict):
                reader.fail(f"bad store action in behavior of {node_id}", near=node_id)
                continue
            action = item.get("action")
            if action == "insert":
                raw = item.get("assignments", {})
                if not isinstance(raw, dict):
                    reader.fail(f"'assignments' of insert of {node_id} must be an object", near=node_id)
                    raw = {}
                assignments = {}
                for fname, etext in raw.items():
                    expr = reader.expr(etext, f"insert of {node_id}")
                    if expr is not None:
                        assignments[str(fname)] = expr
                actions.append(
                    model.StoreInsert(str(item.get("store", "")), str(item.get("entity", "")), assignments)
                )
            elif action == "read":
                flt = None
                if item.get("filter") is not None:
                    flt = reader.expr(item["filter"], f"read of {node_id}")
                actions.append(
                    model.StoreRead(
                        str(item.get("store", "")),
                        str(item.get("entity", "")),
                        str(item.get("object", "")),
                        flt,
                    )
                )
            else:
                reader.fail(f"unknown store action {action!r} in behavior of {node_id}", near=node_id)
        try:
            instances = int(spec.get("instances", 1))
        except (TypeError, ValueError, OverflowError):
            reader.fail(f"'instances' of behavior of {node_id} must be an integer", near=node_id)
            continue
        out[str(node_id)] = model.TaskBehavior(effects=effects, store_actions=actions, instances=instances)
    return out


def _read_start_inputs(reader: _Reader, data: object) -> dict[str, dict]:
    if not isinstance(data, dict):
        reader.fail("'start_inputs' must be an object")
        return {}
    out: dict[str, dict] = {}
    for obj_id, bindings in data.items():
        if not isinstance(bindings, dict):
            reader.fail(f"start inputs of {obj_id} must be an object", near=obj_id)
            continue
        where = f"start inputs of {obj_id}"
        out[str(obj_id)] = {str(k): reader.scalar(bindings, k, where) for k in bindings}
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
