"""JSON text and number text each become values in one place.

A document and a ``simulate --set`` value are decoded by
``format.decode_json``, so both accept and refuse the same numbers. An
expression's number token is read by ``expr._number``, which refuses a
number ``print_expr`` could not write back. A second reader elsewhere would
let the rules drift apart.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_binding_writers import _scopes

SOURCES = Path(__file__).resolve().parent.parent / "src" / "bpdmn"
JSON_DECODERS = {"loads", "load", "raw_decode", "JSONDecoder"}
NUMBER_READERS = {"int", "float", "complex", "Decimal", "Fraction", "literal_eval", "eval"}


def _name(func: ast.expr) -> str | None:
    """The name a call calls: ``f`` for ``f(...)`` and ``m.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls_outside(source: str, names: set[str], allowed: set[str]) -> list[str]:
    """``where:line`` for each call of one of *names* made outside the
    *allowed* scopes (see ``test_binding_writers._scopes``)."""
    return [
        f"{where}:{node.lineno}"
        for where, statement in _scopes(ast.parse(source))
        if where not in allowed
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and _name(node.func) in names
    ]


def test_only_decode_json_decodes_json():
    found = [
        f"{path.name}:{call}"
        for path in sorted(SOURCES.glob("*.py"))
        for call in calls_outside(
            path.read_text(encoding="utf-8"), JSON_DECODERS, {"decode_json"} if path.name == "format.py" else set()
        )
    ]
    assert found == []


def test_only_number_reads_expression_numbers():
    source = (SOURCES / "expr.py").read_text(encoding="utf-8")
    assert calls_outside(source, NUMBER_READERS, {"_number"}) == []


def test_calls_outside_the_reader_are_found():
    source = (
        "import json\n"  # 1
        "def decode_json(text):\n"
        "    return json.loads(text)\n"  # 3
        "def _number(text):\n"
        "    return int(text) if text.isdecimal() else float(text)\n"  # 5
        "class Parser:\n"
        "    def term(self, tok):\n"  # 7
        "        return float(tok.text)\n"
        "value = json.loads(RAW)\n"  # 9
    )
    assert calls_outside(source, JSON_DECODERS, {"decode_json"}) == ["<module>:9"]
    assert calls_outside(source, NUMBER_READERS, {"_number"}) == ["Parser.term:8"]
