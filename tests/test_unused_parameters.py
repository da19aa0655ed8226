"""Every parameter of a function in the package is read by that function.

A parameter nothing reads makes each caller compute and pass a value that
changes nothing. A parameter a fixed signature requires but the function does
not need (a callback's, say) is named with a leading ``_``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bpdmn").glob("*.py"))


def unused_parameters(source: str) -> list[str]:
    """``function:parameter`` for each parameter its function never reads;
    ``self``, ``cls`` and names starting with ``_`` are exempt."""
    unused = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = function.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = function.body if isinstance(function.body, list) else [function.body]
        read = {
            node.id
            for statement in body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        name = getattr(function, "name", "lambda")
        unused.extend(
            f"{name}:{param.arg}"
            for param in params
            if param is not None
            and param.arg not in ("self", "cls")
            and not param.arg.startswith("_")
            and param.arg not in read
        )
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_parameters_are_found():
    source = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def g(self, e):\n"
        "        return a + e\n"
        "    return g, lambda x, y: x, kw\n"
    )
    assert sorted(unused_parameters(source)) == ["f:args", "f:b", "f:d", "lambda:y"]
