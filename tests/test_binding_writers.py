"""The simulator binds an object in one place.

``state.bindings`` and ``state.env`` hold the same facts, one nested and one
flattened, so a statement that writes one of them and not the other leaves a
state whose expressions read something else than its bindings say. Only
``_bind_object`` writes them once a state exists; ``ExecutionState.__post_init__``
builds ``env`` and ``_clone`` copies both.

``state.completed`` only grows, and only by one node at a time: the start
events ``init`` completes and the node ``step`` fires. The oracle keeps a mask
of it that relies on this.
"""

from __future__ import annotations

import ast
from pathlib import Path

from bpdmn import simulator
from conftest import load

SIMULATOR = Path(__file__).resolve().parent.parent / "src" / "bpdmn" / "simulator.py"
WRITERS = {"_bind_object", "_clone", "ExecutionState.__post_init__"}
FIELDS = {"bindings", "env"}
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}  # dict
MUTATORS |= {"add", "discard", "remove"}  # set


def _reaches_field(node: ast.expr, fields: set[str]) -> bool:
    """True when *node* is ``<x>.<field>`` for one of *fields*, such as
    ``<x>.bindings`` or ``<x>.env``, or is reached from one by subscripts,
    attributes and calls (``state.bindings[o]``, ``state.bindings.get(o, {})``)."""
    while True:
        if isinstance(node, ast.Attribute) and node.attr in fields:
            return True
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return False


def _writes(scope: ast.AST, fields: set[str]) -> list[int]:
    """Lines at which *scope* assigns, deletes or mutates in place one of
    *fields*, or something reached from one."""
    lines = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node if isinstance(node, ast.Attribute) and node.attr in fields else node.value
            if _reaches_field(target, fields):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and _reaches_field(node.func.value, fields):
                lines.add(node.lineno)
    return sorted(lines)


def _scopes(tree: ast.Module):
    """``(where, statement)`` for each statement: a module-level function,
    a ``Class.method``, a class's other statements under the class name,
    and ``<module>`` for any other statement."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            for item in statement.body:
                yield (f"{statement.name}.{item.name}" if isinstance(item, functions) else statement.name), item
        else:
            yield (statement.name if isinstance(statement, functions) else "<module>"), statement


def writers_outside(source: str, allowed: set[str], fields: set[str] = FIELDS) -> list[str]:
    """``where:line`` for each write to one of *fields*, by default the
    binding fields, made outside the *allowed* scopes (see :func:`_scopes`)."""
    return [
        f"{where}:{line}"
        for where, statement in _scopes(ast.parse(source))
        if where not in allowed
        for line in _writes(statement, fields)
    ]


def test_only_bind_object_writes_bindings():
    assert writers_outside(SIMULATOR.read_text(encoding="utf-8"), WRITERS) == []


def test_writes_to_bindings_are_found():
    source = (
        "def _bind_object(state):\n"  # 1
        "    state.bindings[o] = {}\n"
        "def fire(state, clone):\n"  # 3
        "    state.bindings.setdefault(o, {})[p] = v\n"
        "    state.env[k] = v\n"  # 5
        "    clone.bindings = {}\n"
        "    state.bindings[o].update(values)\n"  # 7
        "    del state.env[k]\n"
        "    state.bindings.get(o, {}).pop(p)\n"  # 9
        "    read = state.bindings.get(o, {})\n"
        "    state.tokens[f] = 1\n"  # 11
        "class State:\n"
        "    def __post_init__(self):\n"  # 13
        "        self.env = {}\n"
        "state.env.clear()\n"  # 15
    )
    assert writers_outside(source, {"_bind_object"}) == [
        "fire:4",
        "fire:5",
        "fire:6",
        "fire:7",
        "fire:8",
        "fire:9",
        "State.__post_init__:14",
        "<module>:15",
    ]


def test_only_init_and_step_complete_a_node():
    """Each adds the one node it completes; ``_clone`` copies the set."""
    source = SIMULATOR.read_text(encoding="utf-8")
    assert writers_outside(source, {"init", "step"}, {"completed"}) == []
    lines = source.splitlines()
    writes = [where.split(":") for where in writers_outside(source, set(), {"completed"})]
    assert [(where, lines[int(line) - 1].strip()) for where, line in writes] == [
        ("init", "state.completed.add(node.id)"),
        ("step", "state.completed.add(node_id)"),
    ]
    state = simulator.init(load("travel.bpdmn.json"))
    clone = simulator._clone(state)
    assert clone.completed == state.completed and clone.completed is not state.completed


def test_writes_to_completed_are_found():
    source = (
        "def step(state):\n"  # 1
        "    state.completed.add(n)\n"
        "def fire(state, clone):\n"  # 3
        "    state.completed.discard(x)\n"
        "    state.completed.remove(x)\n"  # 5
        "    state.completed |= {x}\n"
        "    clone.completed = set()\n"  # 7
        "    state.completed.update(xs)\n"
        "    done = x in state.completed\n"  # 9
        "    state.pending_starts.discard(x)\n"
    )
    assert writers_outside(source, {"step"}, {"completed"}) == ["fire:4", "fire:5", "fire:6", "fire:7", "fire:8"]
