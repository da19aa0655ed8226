"""Canonical textual serialization for diagrams (``.bpdmn.json``).

The schema mirrors the metamodel one-to-one. Top-level keys, in order:
``bpdmn`` (version string ``"1.0"``), ``pools``, ``stores``, ``objects``,
``mappings``, ``message_flows``, plus the optional ``behaviors`` and
``start_inputs`` sections consumed by the simulator. Canonical form uses
two-space indentation, keys in schema order, elements sorted by id, and a
trailing newline, so golden-file comparisons stay byte-stable.

The schema is one table per element type (``_TABLES``; ``_DOCUMENT`` is the
document's). A row names a key and gives its kind, its default (the value
an absent key reads as) and whether the writer leaves the key out when it
holds that default. A kind (``_Kind``) gives a key one of three shapes:

- a scalar, which states once the condition a value must meet (a string,
  an optional string, a boolean, an integer, an expression, a list of
  strings, a start input's value) and may convert it, as the store
  ``scope`` and an effect's ``target`` are converted from their text;
- a list of the elements of another table, written sorted by the
  attributes it names; the ``store_actions`` are the one list whose items
  have two tables, and ``_StoreAction`` chooses each item's table by its
  ``action``;
- a map from names to values of one kind or elements of one table: an
  insert's ``assignments``, the ``behaviors`` and the ``start_inputs``.

The rows follow the fields of the element's class, so each key of each
element is written once, in its table.

The writer (``_Element.write``) is compiled from each table on first use.
It appends the element's text to a list of parts: key names encoded when
it is compiled, strings through ``encode_basestring``, any other scalar
through ``_scalar_text``, the one rule ``json_text`` also writes scalars
by. ``serialize_diagram`` joins the parts; no tree of the document is built.

Reading is strict and coerces nothing. A value of the wrong type, a
missing required key or an unknown key is a :class:`ParseError`; an absent
optional key takes its default. A document is read in one of two passes:

- The fast pass (``_Element.fast``, compiled from each table like the
  writer, ``_Element.write``) tests each key in place and builds the
  diagram. It records no diagnostic: at the first thing it does not accept,
  it gives up on the whole document. It parses each distinct expression
  text once per document (``_Exprs``, a memo that lives for one call).
- The diagnostic pass (``_Element.read``, one loop over a table's rows
  through ``_Reader``) runs only on a document the fast pass gave up on,
  and reports every fault it finds. ``_Reader.build`` turns a model error
  into a diagnostic and builds no element one of whose fields failed, so
  each fault gives one diagnostic.

Whenever the fast pass accepts a document, the diagnostic pass accepts it
too and builds an equal diagram, so a valid document pays for no
diagnostics, and a document that parses is written back with the same
values.
"""

from __future__ import annotations

import json
import math
import re
import sys
from functools import cached_property
from operator import attrgetter
from typing import Callable, NamedTuple
from json.encoder import encode_basestring, encode_basestring_ascii

from . import model
from .expr import ExprError, Expression, parse_expr, print_expr

FORMAT_VERSION = "1.0"

# Element lists nested deeper (sub-processes in sub-processes) are refused:
# reading, writing and drawing a diagram recurse once per level.
_MAX_NESTING = 100


class SourceSpan(NamedTuple):
    line: int  # >= 1
    column: int  # >= 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseDiagnostic(NamedTuple):
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
    """Whether *value* may be a start input: a string, finite number, boolean
    or null. ``start_inputs`` and ``simulate --set`` both read values by it."""
    return value is None or isinstance(value, (str, int)) or (isinstance(value, float) and math.isfinite(value))


def decode_json(text: str) -> object:
    """*text* decoded as JSON, as a document and a ``simulate --set`` value
    both are. Raises ``json.JSONDecodeError`` when *text* is not JSON, and
    :class:`ParseError` when it holds an integer of more digits than
    ``int()`` reads."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refused the digits of a number
        limit = sys.get_int_max_str_digits()
        digits = re.search("[0-9]{%d,}" % (limit + 1), text)
        span = _span_of(text, digits.group() if digits else None)
        raise ParseError([ParseDiagnostic(span, f"integer of more than {limit} digits")]) from None


class _Reader:
    """What the diagnostic pass reads values and elements with. A wrong value
    records a diagnostic and reads as a stand-in, so one pass reports every
    error; an element one of whose own fields failed is not built, so a
    fault is reported once and not again through the stand-in."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.errors: list[ParseDiagnostic] = []
        self.depth = 0  # element lists being read
        self.faulty = False  # a field of the element being read failed

    def fail(self, message: str, near: str | None = None) -> None:
        self.errors.append(ParseDiagnostic(_span_of(self.text, near), message))

    def _wrong(self, data: dict, key: str, where: str, expected: str, in_map: bool = False) -> None:
        """Record that *key* of *data* is missing or not *expected*, located at
        the element's id, or at *key* itself when *data* is a map (*in_map*),
        whose entry named ``id`` is no id."""
        self.faulty = True
        ident = None if in_map else data.get("id")
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

    def value(
        self,
        data: dict,
        key: str,
        where: str,
        kind: _Kind,
        default: object,
        near: str | None = None,
        in_map: bool = False,
    ):
        """The value under *key* of an element, or of a map when *in_map*,
        *default* when it is absent, which the scalar *kind* must accept; an
        expression kind's text reads as its tree. A value the kind refuses
        reads as *default*, or as ``""`` when that is ``None``, so an id that
        failed still prints.

        A value the kind's ``convert`` refuses reads as ``None``; its model
        error is recorded at *near*, or at the value, unless a field of the
        element failed already. The element is still built, so a fault of
        the element that holds it is still reported."""
        value = data.get(key, default)
        if not kind.accepts(value):
            self._wrong(data, key, where, kind.expected, in_map)
            return "" if default is None else default
        if kind.convert is not None:
            try:
                return kind.convert(value)
            except model.ModelError as exc:
                if not self.faulty:
                    self.fail(str(exc), near=value if near is None else near)
                return None
        if kind.expr and value is not None:
            try:
                return parse_expr(value)
            except ExprError as exc:
                self.fail(f"bad expression in {where}: {exc}", near=value)
                return None
        return value

    def map(self, data: dict, key: str, where: str, kind: _Kind, in_map: bool = False) -> dict:
        """The object under *key* of an element, or of a map when *in_map*,
        empty when the key is absent, each of its values read as the map
        *kind* says. Diagnostics call the map *where* or ``kind.where``; a
        value that is an element is named after its name in the map, and
        left out when it fails."""
        entries = data.get(key, {})
        if not isinstance(entries, dict):
            self._wrong(data, key, where, "an object", in_map)
            return {}
        values, out = kind.values, {}
        at = where if kind.where is None else kind.where.format(key=key)
        for name, value in entries.items():
            if isinstance(values, type):
                value = _TABLES[values].read(self, value, name)
                if value is None:
                    continue
            elif values.values is not None:
                value = self.map(entries, name, at, values, in_map=True)
            else:
                value = self.value(entries, name, at, values, None, in_map=True)
            out[name] = value
        return out

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
        values = data[key]
        if not isinstance(values, list):
            self._wrong(data, key, where, "a list")
            values = []
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


class _Refused(Exception):
    """Raised by the fast pass at the first thing it does not accept."""


# what makes the fast pass give up on a document and leave it to the reader:
# a value it does not accept, a model or expression error, or a document
# deep enough to exhaust the stack
_GIVE_UP = (_Refused, model.ModelError, ExprError, RecursionError)


class _Exprs(dict):
    """Expression text -> its tree, for one document, so the fast pass parses
    each distinct text once; ``None``, an absent optional expression, reads
    as ``None``. Elements may share a tree: expression nodes are tuples,
    and nothing compares them by identity."""

    def __init__(self) -> None:
        super().__init__({None: None})

    def __missing__(self, text: str) -> Expression:
        tree = self[text] = parse_expr(text)
        return tree


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
        data = decode_json(text)
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
    try:
        return _DOCUMENT.fast(_Exprs(), data, 0)
    except _GIVE_UP:
        pass  # the reader says why, or finds the document valid after all
    return _read(text, data)


def _read(text: str, data: object) -> model.Diagram:
    """The diagram of *data*, decoded from *text*, read by the typed readers
    of :class:`_Reader`, which report every fault they find."""
    reader = _Reader(text)
    if reader.element(data, "document", _DOCUMENT.names) is None:
        raise ParseError(reader.errors)
    tag, version = _DOCUMENT.tag
    if data.get(tag) != version:
        reader.fail(f"unsupported or missing format version {data.get(tag)!r}")
    for key in _DOCUMENT.keys:
        if key.default is _REQUIRED and key.name not in data:
            reader.fail(f"missing key {key.name!r} in document")
    fields = _DOCUMENT.read_fields(reader, data, "document")
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


# ---------------------------------------------------------------------------
# The schema: one table per element type. A table's keys come in the order
# of its class's fields, which is the order a document writes them in and
# the order build passes them in.

_REQUIRED = object()  # the default of a key that must be present
_ID = object()  # the default of a name: the element's id


class _Kind(NamedTuple):
    """How a key's value is read and written. A kind has one of three shapes:

    - A scalar accepts a value when ``check``, the source of a condition on
      the value ``{0}``, holds: the fast pass tests the condition inline,
      and the diagnostic pass by ``accepts``, the predicate made from the
      same source, saying the value must be ``expected`` when it fails. The
      value of an ``expr`` kind is the text of an expression, read as its
      tree; a value with a ``convert`` reads as ``convert(value)``, which
      raises a model error on a value it does not take. ``write``, when
      set, converts the value back, and ``text`` is the source of the JSON
      text of the value ``{0}``, its last line indented by ``{1}``.
    - A list of elements of class ``of`` is read item by item with the table
      of ``of``; for the store actions, ``of`` is ``_StoreAction``, which
      chooses each item's table by its ``action``.
    - A map's ``values`` are each of that kind, or each an element of that
      class; its diagnostics call it ``where`` (``{key}``: its key), when
      not what they call the element that holds it.

    A list or a map is written by ``write(value, indent, parts)``, which
    appends its text to *parts*, its closing bracket indented by *indent*."""

    write: Callable | None = None
    check: str | None = None
    accepts: Callable | None = None
    expected: str = ""
    expr: bool = False
    convert: Callable | None = None
    of: type | None = None
    values: _Kind | type | None = None
    where: str | None = None
    text: str = ""


def _scalar(
    check: str, expected: str, write: Callable | None = None, expr: bool = False, text: str = "scalar({0})"
) -> _Kind:
    """The scalar kind whose values the condition *check* accepts, written
    as *text*: by default, as any JSON scalar is."""
    return _Kind(write, check, eval("lambda value: " + check.format("value")), expected, expr, text=text)


_STR = "{0}.__class__ is str"
_STR_OR_NONE = "({0} is None or {0}.__class__ is str)"
_STRING = _scalar(_STR, "a string", text="encode({0})")
_OPTIONAL_STRING = _scalar(_STR_OR_NONE, "a string or null")
_FLAG = _scalar("{0}.__class__ is bool", "a boolean")
_INTEGER = _scalar("{0}.__class__ is int", "an integer")
_EXPR = _scalar(_STR, "an expression string", print_expr, expr=True, text=_STRING.text)
# written only when not None, the default of each optional expression
_OPTIONAL_EXPR = _scalar(_STR_OR_NONE, "an expression string", print_expr, expr=True, text=_STRING.text)
# an empty list, as most nodes hold, is accepted without making a generator
_STRINGS = _scalar(
    "({0}.__class__ is list and (not {0} or all(v.__class__ is str for v in {0})))",
    "a list of strings",
    sorted,
    text="strings({0}, {1})",
)
_START_VALUE = _scalar("is_scalar({0})", "a string, number, boolean or null")


def _fast_items(exprs: _Exprs, values: object, depth: int, fast: Callable) -> list:
    """The list *values*, found *depth* lists deep, each item read by
    ``fast(exprs, item, depth + 1)``."""
    if values.__class__ is not list or depth == _MAX_NESTING:
        raise _Refused
    depth += 1
    return [fast(exprs, item, depth) for item in values]


def _fast_map(exprs: _Exprs, entries: object, depth: int, kind: _Kind) -> dict:
    """The object *entries*, found *depth* lists deep, each of its values
    read as the map *kind* says."""
    if entries.__class__ is not dict:
        raise _Refused
    values = kind.values
    if isinstance(values, type):
        fast = _TABLES[values].fast
        return {name: fast(exprs, value, depth) for name, value in entries.items()}
    if values.values is not None:
        return {name: _fast_map(exprs, value, depth, values) for name, value in entries.items()}
    if not all(map(values.accepts, entries.values())):
        raise _Refused
    return {name: exprs[text] for name, text in entries.items()} if values.expr else entries


def _strings_text(values: list[str], indent: str) -> str:
    """The text of the list of strings *values*, its closing bracket indented by *indent*."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(map(encode_basestring, values)) + indent + "]" if values else "[]"


def _items(cls: type, *order: str) -> _Kind:
    """A list of elements of *cls*, written sorted by the attributes *order*,
    or in the list's own order when none are named."""
    by = attrgetter(*order) if order else None

    def write(values: list, indent: str, parts: list[str]) -> None:
        if not values:  # and compiles no writer for cls
            parts.append("[]")
            return
        write, inner = _TABLES.get(cls, cls).write, indent + "  "
        lead, sep = "[" + inner, "," + inner
        for value in sorted(values, key=by) if by else values:
            parts.append(lead)
            write(value, inner, parts)
            lead = sep
        parts.append(indent + "]")

    return _Kind(write, of=cls)


def _map(values: _Kind | type, where: str | None = None) -> _Kind:
    """A map each of whose values is of the kind *values*, or an element of
    the class *values*, written sorted by name; its diagnostics call it
    *where* (``{key}``: its key), when not what they call its holder."""

    def write(entries: dict, indent: str, parts: list[str]) -> None:
        inner, lead = indent + "  ", "{"
        for name, value in sorted(entries.items()):
            parts.append(lead + inner + encode_basestring(name) + ": ")
            if isinstance(values, type) or values.check is None:  # elements or maps
                (_TABLES[values] if isinstance(values, type) else values).write(value, inner, parts)
            else:  # a scalar, written as any JSON scalar once converted
                parts.append(_scalar_text(value if values.write is None else values.write(value)))
            lead = ","
        parts.append(indent + "}" if entries else "{}")

    return _Kind(write, values=values, where=where)


class _Key(NamedTuple):
    """One key of an element: its name in the document; its kind; the value
    it reads as when absent; whether the writer leaves it out when it holds
    that value; the fields it fills, when not the one field of its name;
    and what its diagnostics call the element, when not what they call it
    elsewhere (``{where}``: the enclosing element, ``{id}``: the element's
    first field)."""

    name: str
    kind: _Kind
    default: object = _REQUIRED
    omit: bool = False
    fills: tuple[str, ...] = ()
    where: str | None = None

    @property
    def fields(self) -> tuple[str, ...]:
        return self.fills or (self.name,)


def _compile(name: str, params: str, body: list[str], namespace: dict) -> Callable:
    """The function ``name(params)`` with the source lines *body*, whose free
    names are looked up in *namespace*."""
    exec(f"def {name}({params}):\n    " + "\n    ".join(body), namespace)
    return namespace[name]


class _Element:
    """The table of one element type: its class; what a diagnostic calls an
    element (``{where}``: the enclosing element); what it calls the
    element's later fields and its items, once its first field is read
    (``{id}``: that field; ``None``: what it calls the element); its keys;
    and a constant key written first (``tag``).

    Its fast pass and its writer are compiled from the table on first use,
    as :mod:`dataclasses` compiles ``__init__``, so an element costs what a
    hand-written reader or writer costs and not a loop over its keys. The
    diagnostic pass, which runs only on a refused document, reads the rows
    as they are."""

    def __init__(self, cls: type, what: str, name: str | None, *keys: _Key, tag=None) -> None:
        self.cls = cls
        self.what = what
        self.name = name
        self.keys = keys
        self.tag = tag
        self.names = {key.name for key in keys} | ({tag[0]} if tag else set())

    def read(self, reader: _Reader, data: object, where: str):
        """The element *data*, found in the list of *where*, or ``None`` with
        the reason recorded. A model error is located at the element's first
        field when that is a string (its id or name), else at *where*."""
        if reader.element(data, self.what.format(where=where), self.names) is None:
            return None
        fields = self.read_fields(reader, data, where)
        return reader.build(fields[0] if isinstance(fields[0], str) else where, self.cls, *fields)

    def read_fields(self, reader: _Reader, item: dict, where: str) -> list:
        """The fields of the element *item*, an object whose keys are already
        checked, in its class's order: each key read as its kind says."""
        at = self.what.format(where=where)
        first = None  # the value of the first key, once read
        fields: list = []
        for i, key in enumerate(self.keys):
            kind, default = key.kind, key.default
            if default is _REQUIRED:
                default = None
            elif default is _ID:
                default = first
            elif default.__class__ is list:
                default = []  # the element's own list
            here = at if key.where is None else key.where.format(where=where, id=first)
            if kind.check is not None:
                near = first if isinstance(first, str) else None  # as a model error of the element is
                value = reader.value(item, key.name, here, kind, default, near)
            elif kind.of is not None:
                value = reader.items(item, key.name, here, _TABLES.get(kind.of, kind.of).read)
            else:
                value = reader.map(item, key.name, here, kind)
            if len(key.fields) > 1:
                fields += value or [None] * len(key.fields)  # a value that failed reads as "" or None
            else:
                fields.append(value)
            if i == 0:
                first = value
                if self.name is not None:
                    at = self.name.format(id=value)
        return fields

    @cached_property
    def fast(self) -> Callable:
        """``fast(exprs, data, depth)``: the element *data*, found *depth*
        lists deep, its expressions parsed through the memo *exprs*; raises
        one of ``_GIVE_UP`` at the first thing it does not accept. Its scalar
        keys are tested by one condition, and only a list, a map or a
        converted value costs a call."""
        namespace = {"cls": self.cls, "names": self.names, "Refused": _Refused}
        namespace.update(items=_fast_items, entries=_fast_map)
        checks = [f"get({self.tag[0]!r}) == {self.tag[1]!r}"] if self.tag else []
        gets: list[str] = []
        reads: list[str] = []
        arguments = []
        for i, key in enumerate(self.keys):
            kind, name, default = key.kind, repr(key.name), key.default
            absent = "" if default is _REQUIRED or default is None else ", f0" if default is _ID else f", {default!r}"
            value = f"f{i}"
            if kind.check is not None:
                gets.append(f"{value} = get({name}{absent})")
                checks.append(kind.check.format(value))
                if kind.expr:
                    value = f"exprs[{value}]"
                elif kind.convert is not None:
                    namespace[f"convert{i}"] = kind.convert
                    value = f"convert{i}({value})"
            else:
                if kind.of is None:
                    namespace[f"kind{i}"] = kind
                    call = f"entries(exprs, {{}}, depth, kind{i})"
                else:
                    namespace[f"of{i}"] = _TABLES.get(kind.of, kind.of)
                    call = f"items(exprs, {{}}, depth, of{i}.fast)"
                if default in ([], {}):  # an absent list or map reads as a new empty one
                    reads.append(f"{value} = {call.format(f'data[{name}]')} if {name} in data else {default!r}")
                else:
                    reads.append(f"{value} = {call.format(f'get({name}{absent})')}")
            arguments.append(("*" if len(key.fields) > 1 else "") + value)
        body = [
            "if data.__class__ is not dict or not names.issuperset(data):",
            "    raise Refused",
            "get = data.get",
            *gets,
            f"if not ({' and '.join(checks) or 'True'}):",
            "    raise Refused",
            *reads,
            f"return cls({', '.join(arguments)})",
        ]
        return _compile("fast", "exprs, data, depth", body, namespace)

    @cached_property
    def write(self) -> Callable:
        """``write(element, indent, parts)``: appends to *parts* the text of
        *element*, its closing brace indented by *indent* (a newline and
        spaces). Key names are encoded here, once; each run of keys always
        written is one f-string, and a key that may be left out at its
        default costs one test."""
        namespace = {"encode": encode_basestring, "scalar": _scalar_text, "strings": _strings_text}
        # f-string source of what comes before the next key: the opening
        # brace, a comma, or the variable lead while every key so far may
        # have been left out
        opening, comma = "{{{inner}", ",{inner}"
        body, run, lead = ["inner = indent + '  '"], "", opening  # run: f-string source not yet appended
        if self.tag:
            namespace["tag"] = ": ".join(map(encode_basestring, self.tag))
            run, lead = opening + "{tag}", comma
        for i, key in enumerate(self.keys):
            kind, get = key.kind, ", ".join(f"element.{field}" for field in key.fields)
            namespace.update({f"key{i}": encode_basestring(key.name) + ": ", f"write{i}": kind.write})
            namespace[f"omit{i}"] = key.default
            value = "value" if key.omit else get if len(key.fields) == 1 else f"({get})"
            if key.omit:
                body += [f'parts.append(f"{run}")'] if run else []
                body += ['lead = "{" + inner'] if lead == opening else []
                run, lead = "", "{lead}" if lead == opening else lead
            run += lead + "{key%d}" % i
            if kind.check is not None:  # a scalar, written in place
                run += "{" + kind.text.format(f"write{i}({value})" if kind.write else value, "inner") + "}"
                lines = [f'parts.append(f"{run}")'] if key.omit else []
            else:  # a list or a map, which appends its own text
                lines = [f'parts.append(f"{run}")', f"write{i}({value}, inner, parts)"]
            if key.omit:
                lines += ['lead = "," + inner'] if lead != comma else []
                body += [f"value = {get}", f"if value != omit{i}:", *("    " + line for line in lines)]
            else:
                body, lead = body + lines, comma
            run = "" if lines else run
        if lead == comma:
            body.append('parts.append(f"' + run + '{indent}}}")')
        else:  # every key may have been left out
            body.append('parts.append(indent + "}" if lead[0] == "," else "{}")')
        return _compile("write", "element, indent, parts", body, namespace)


def _scope(text: str) -> model.Scope:
    """The store scope written as *text*: ``diagram`` or ``sub_process:<node id>``."""
    kind, sep, node = text.partition(":")
    return model.Scope(kind, node if sep else None)


def _target(text: str) -> tuple[str, str]:
    """The object and path of the effect target written as *text*, ``object.path``."""
    obj, dot, path = text.partition(".")
    if not dot:
        raise model.ModelError(f"effect target {text!r} must be object.path")
    return obj, path


class _StoreAction:
    """A store action, the schema's one tagged union: both passes read it
    with the table its ``action`` names, which ``table`` chooses, and it is
    written with the table of its class."""

    @staticmethod
    def table(data: object) -> _Element | None:
        action = data.get("action") if isinstance(data, dict) else None
        return _ACTIONS.get(action) if isinstance(action, str) else None

    @staticmethod
    def read(reader: _Reader, data: object, where: str):
        table = _StoreAction.table(data)
        if table is None:
            reader.fail(f'store action of {where} must be an object with "action" "insert" or "read"', near=where)
            return None
        return table.read(reader, data, where)

    @staticmethod
    def fast(exprs: _Exprs, data: object, depth: int):
        table = _StoreAction.table(data)
        if table is None:
            raise _Refused
        return table.fast(exprs, data, depth)

    @staticmethod
    def write(action, indent: str, parts: list[str]) -> None:
        _TABLES[type(action)].write(action, indent, parts)


_SCOPE = _STRING._replace(
    write=lambda scope: "diagram" if scope.kind == "diagram" else f"sub_process:{scope.sub_process}", convert=_scope
)
_TARGET = _STRING._replace(write=lambda target: f"{target[0]}.{target[1]}", convert=_target)
_ATTACHMENTS = _items(model.ObjectAttachment, "object", "direction")
_VARIABLES = _items(model.Variable, "name")

_DOCUMENT = _Element(
    model.Diagram,
    "document",
    None,
    _Key("id", _STRING, "diagram", omit=True),
    _Key("pools", _items(model.Pool, "id")),
    _Key("stores", _items(model.DataStore, "id")),
    _Key("objects", _items(model.DataObject, "id")),
    _Key("mappings", _items(model.DataMapping, "id")),
    _Key("message_flows", _items(model.MessageFlow, "id")),
    _Key("behaviors", _map(model.TaskBehavior), {}, omit=True),
    _Key("start_inputs", _map(_map(_START_VALUE, "start inputs of {key}"), "start inputs"), {}, omit=True),
    tag=("bpdmn", FORMAT_VERSION),
)
_POOL = _Element(
    model.Pool,
    "pool",
    "pool {id}",
    _Key("id", _STRING),
    _Key("name", _STRING, _ID),
    _Key("nodes", _items(model.Node, "id"), []),
    _Key("sequence_flows", _items(model.SequenceFlow, "id"), []),
    _Key("explicit_data_flows", _items(model.ExplicitDataFlow, "id"), []),
)
_NODE = _Element(
    model.Node,
    "node of {where}",
    "node {id}",
    _Key("id", _STRING),
    _Key("name", _STRING, _ID),
    _Key("kind", _STRING),
    _Key("children", _items(model.Node, "id"), [], omit=True),
    _Key("local_stores", _STRINGS, [], omit=True),
    _Key("condition", _OPTIONAL_EXPR, None, omit=True, where="condition of node {id}"),
    _Key("multi_instance", _FLAG, False, omit=True),
)
_SEQUENCE_FLOW = _Element(
    model.SequenceFlow,
    "sequence flow of {where}",
    "sequence flow {id}",
    _Key("id", _STRING),
    _Key("source", _STRING),
    _Key("target", _STRING),
    _Key("attachments", _ATTACHMENTS, [], omit=True),
    _Key("guard", _OPTIONAL_EXPR, None, omit=True, where="guard of flow {id}"),
)
_DATA_FLOW = _Element(
    model.ExplicitDataFlow,
    "data flow of {where}",
    "data flow {id}",
    _Key("id", _STRING),
    _Key("source", _STRING),
    _Key("target", _STRING),
    _Key("object", _STRING),
    _Key("optional", _FLAG, False, omit=True),
)
_ATTACHMENT = _Element(
    model.ObjectAttachment,
    "attachment of {where}",
    None,
    _Key("object", _STRING),
    _Key("direction", _STRING),
    _Key("optional", _FLAG, False, omit=True),
)
_STORE = _Element(
    model.DataStore,
    "store",
    "store {id}",
    _Key("id", _STRING),
    _Key("name", _STRING, _ID),
    _Key("icon", _STRING, "database"),
    _Key("entities", _items(model.Entity, "name"), []),
    _Key("relationships", _items(model.Relationship, "name"), [], omit=True),
    _Key("generalizations", _items(model.Generalization, "parent", "child"), [], omit=True),
    _Key("scope", _SCOPE, "diagram"),
    _Key("collapsed", _FLAG, False, omit=True),
)
_ENTITY = _Element(
    model.Entity, "entity of {where}", "entity {id}", _Key("name", _STRING), _Key("fields", _VARIABLES, [])
)
_RELATIONSHIP = _Element(
    model.Relationship,
    "relationship of {where}",
    None,
    _Key("name", _STRING),
    _Key("left", _STRING),
    _Key("right", _STRING),
)
_GENERALIZATION = _Element(
    model.Generalization, "generalization of {where}", None, _Key("parent", _STRING), _Key("child", _STRING)
)
_VARIABLE = _Element(
    model.Variable, "variable of {where}", None, _Key("name", _STRING), _Key("vtype", _STRING, "string")
)
_OBJECT = _Element(
    model.DataObject,
    "object",
    "object {id}",
    _Key("id", _STRING),
    _Key("name", _STRING, _ID),
    _Key("stereotype", _STRING, "generic"),
    _Key("physicality", _STRING, "digital", omit=True),
    _Key("variables", _VARIABLES, []),
    _Key("url", _OPTIONAL_STRING, None, omit=True),
    _Key("state", _OPTIONAL_STRING, None, omit=True),
    _Key("origin_store", _OPTIONAL_STRING, None, omit=True),
)
_MAPPING = _Element(
    model.DataMapping,
    "mapping",
    "mapping {id}",
    _Key("id", _STRING),
    _Key("source_object", _STRING),
    _Key("target_object", _STRING),
    # rule order is meaningful (ordered copy rules), never sorted
    _Key("rules", _items(model.CopyRule), []),
)
_RULE = _Element(
    model.CopyRule, "rule of {where}", None, _Key("from", _EXPR, fills=("from_expr",)), _Key("to", _STRING)
)
_MESSAGE_FLOW = _Element(
    model.MessageFlow,
    "message flow",
    "message flow {id}",
    _Key("id", _STRING),
    _Key("source", _STRING),
    _Key("target", _STRING),
    _Key("attachments", _ATTACHMENTS, [], omit=True),
)
# an effect or store action is named after the node: "insert of <node>"
_BEHAVIOR = _Element(
    model.TaskBehavior,
    "behavior of {where}",
    None,
    _Key("effects", _items(model.Effect), [], omit=True, where="{where}"),
    _Key("store_actions", _items(_StoreAction), [], omit=True, where="{where}"),
    _Key("instances", _INTEGER, 1, omit=True),
)
_EFFECT = _Element(
    model.Effect,
    "effect of {where}",
    None,
    _Key("target", _TARGET, fills=("target_object", "target_path")),
    _Key("expr", _EXPR),
)
_INSERT = _Element(
    model.StoreInsert,
    "insert of {where}",
    None,
    _Key("store", _STRING),
    _Key("entity", _STRING),
    _Key("assignments", _map(_EXPR), {}),
    tag=("action", "insert"),
)
_READ = _Element(
    model.StoreRead,
    "read of {where}",
    None,
    _Key("store", _STRING),
    _Key("entity", _STRING),
    _Key("object", _STRING),
    _Key("filter", _OPTIONAL_EXPR, None, omit=True),
    tag=("action", "read"),
)

_TABLES = {
    table.cls: table
    for table in (
        _DOCUMENT,
        _POOL,
        _NODE,
        _SEQUENCE_FLOW,
        _DATA_FLOW,
        _ATTACHMENT,
        _STORE,
        _ENTITY,
        _RELATIONSHIP,
        _GENERALIZATION,
        _VARIABLE,
        _OBJECT,
        _MAPPING,
        _RULE,
        _MESSAGE_FLOW,
        _BEHAVIOR,
        _EFFECT,
        _INSERT,
        _READ,
    )
}
_ACTIONS = {"insert": _INSERT, "read": _READ}


# ---------------------------------------------------------------------------
# Serialization


def serialize_diagram(diagram: model.Diagram) -> str:
    """Canonical text: schema key order, elements sorted by id, two-space
    indentation, trailing newline."""
    parts: list[str] = []
    _DOCUMENT.write(diagram, "\n", parts)
    return "".join(parts) + "\n"


# the text of a float that is not finite, by its repr
_NOT_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(value: object, encode: Callable = encode_basestring) -> str:
    """The JSON text of a scalar, as ``json.dumps`` writes it: a string
    through *encode*, ``null``, ``true``, ``false``, or an int or a float by
    its ``repr`` (``NaN``, ``Infinity``, ``-Infinity`` for one not finite).
    Raises ``TypeError`` on anything else."""
    if isinstance(value, str):
        return encode(value)
    if value is None or value.__class__ is bool:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NOT_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value: object) -> str:
    """*value* as ``json.dumps(value, indent=2)`` writes it, non-ASCII text
    escaped, in one recursive pass (with ``indent`` set, ``json.dumps``
    takes its pure-Python encoder). Takes dicts with string keys, lists,
    tuples, strings, ints, floats, bools and ``None``; raises ``TypeError``
    on anything else."""
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def _write_json(value: object, newline: str, parts: list[str]) -> None:
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            parts.append(opening)
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            if isinstance(item, str):
                parts.append(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, parts)
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
                parts.append(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, parts)
            opening = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(_scalar_text(value, encode_basestring_ascii))
