"""Every module-level private name of the package is read by the package.

A function, class or assignment at module level whose name starts with ``_``
is no part of the package's interface: when no other statement of the
package reads it, nothing does, and it is dead code. A statement reading its
own name (a recursive function) does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bpdmn").glob("*.py"))


def _defined(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    ]


def _read(statement: ast.stmt) -> set[str]:
    """The names a statement loads, plain or as an attribute of something."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name (one ``_`` in
    front, not a dunder) that no other top-level statement of *sources*
    reads."""
    statements = [
        (module, statement, _read(statement))
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    unread = []
    for module, statement, _ in statements:
        for name in _defined(statement):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for _, other, names in statements if other is not statement):
                unread.append(f"{module}:{name}")
    return unread


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []


def test_unread_private_names_are_found():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED, public = 2, 3  # _UNUSED in a comment is not a read\n"
            "__dunder__ = 4\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Helper:\n"
            "    pass\n"
            "def _method_target():\n"
            "    pass\n"
        ),
        "b": "from a import _Helper\nx = _USED + _Helper.size\nimport a\na._method_target()\n",
    }
    assert unread_private_names(sources) == ["a:_UNUSED", "a:_recursive"]
