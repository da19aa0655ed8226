"""Every public name of the package is read by the package or its scripts.

A function, class or assignment at module level whose name has no leading
``_``, and such a method of a public class, is part of the package's
interface. When neither the package nor ``scripts/`` nor ``perfbench/``
reads it, only tests do, and it is surface to keep for no reader. A read is
a load of the name, plain or as an attribute of something, outside the
statement that defines it. A string equal to the name in ``perfbench/``,
whose tracer names the functions it wraps by string, or in the package's
``__all__`` counts as a read too. Names are matched, not bindings: a method
is read when any attribute of that name is.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(directory.glob("*.py"))}


def _defined(statement: ast.stmt) -> list[str]:
    """The names a statement binds by ``def``, ``class`` or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _reads(tree: ast.AST) -> Counter:
    """How often *tree* loads each name, plain or as an attribute of something."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def _strings(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unread_public_names(package: dict[str, str], readers: dict[str, str], by_string: dict[str, str]) -> list[str]:
    """``module:name`` or ``module:Class.name`` for each public name defined
    in *package* (module name -> source) that no code of *package* or
    *readers* loads outside its own definition, and that is not a string of
    *by_string* or of the ``__all__`` of the package's ``__init__``."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = sum((_reads(ast.parse(source)) for source in readers.values()), Counter())
    for tree in trees.values():
        reads += _reads(tree)
    named = set().union(*(_strings(ast.parse(source)) for source in by_string.values()))
    for statement in trees["__init__"].body if "__init__" in trees else ():
        if "__all__" in _defined(statement):
            named |= _strings(statement)

    definitions = []  # (label, name, defining statement)
    for module, tree in trees.items():
        for statement in tree.body:
            for name in _defined(statement):
                definitions.append((f"{module}:{name}", name, statement))
            if isinstance(statement, ast.ClassDef) and not statement.name.startswith("_"):
                for method in statement.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        definitions.append((f"{module}:{statement.name}.{method.name}", method.name, method))
    return [
        label
        for label, name, statement in definitions
        if not name.startswith("_") and name not in named and reads[name] <= _reads(statement)[name]
    ]


def test_every_public_name_is_read():
    package = _sources(ROOT / "src" / "bpdmn")
    readers = {f"scripts/{stem}": text for stem, text in _sources(ROOT / "scripts").items()}
    perfbench = {f"perfbench/{stem}": text for stem, text in _sources(ROOT / "perfbench").items()}
    assert unread_public_names(package, {**readers, **perfbench}, perfbench) == []


def test_unread_public_names_are_found():
    package = {
        "__init__": "from .a import exported\n__all__ = ['exported']\n",
        "a": (
            "USED = 1\n"
            "UNUSED, _private = 2, 3  # UNUSED in a comment is not a read\n"
            "def exported():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.area()\n"
            "    def size(self):\n"
            "        return USED\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "class _Hidden:\n"
            "    def shown(self):\n"
            "        pass\n"
        ),
    }
    readers = {"script": "from a import Shape\nprint(Shape().size())\n"}
    by_string = {"bench": "WRAPPED = ('a', 'traced')\n"}
    assert unread_public_names(package, readers, by_string) == ["a:UNUSED", "a:recursive", "a:Shape.area"]
