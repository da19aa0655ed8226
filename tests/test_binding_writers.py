"""Each field of a simulator state has its few writers.

Only ``init`` and ``_clone`` build an ``ExecutionState``, and only the
functions ``FIELD_WRITERS`` names write each of its fields. Two pairs of
fields hold one fact twice: ``tokens`` and ``marked``, which counts the flows
into a node that hold a token, and ``bindings`` and ``env``, one nested and
one flattened. So a statement that writes one field of a pair and not the
other leaves a state that contradicts itself. ``completed`` only grows, and
only by one node at a time: the start events ``init`` completes and the node
``step`` fires. The oracle keeps a mask of it that relies on this. Anything
kept in step with a state, such as a key of it updated per firing, has to be
updated by exactly these writers.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from bpdmn import simulator
from conftest import load

SIMULATOR = Path(__file__).resolve().parent.parent / "src" / "bpdmn" / "simulator.py"
SOURCE = SIMULATOR.read_text(encoding="utf-8")
# each field of ExecutionState -> the functions that may write it; step writes
# tokens and marked only in the loop that consumes tokens
FIELD_WRITERS = {
    "tokens": {"_add_token", "step", "_clone"},
    "marked": {"_add_token", "step", "_clone"},
    "bindings": {"_bind_object", "_clone"},
    "env": {"_bind_object", "_clone"},
    "completed": {"init", "step", "_clone"},
    "pending_starts": {"init", "step", "_clone"},
    "stores": {"_run_behavior", "_clone"},
    "inbox": {"_send_messages", "_receive_messages", "_clone"},
    "step_count": {"step", "_clone"},
    "reads": {"_matching_record", "_clone"},
}
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}  # dict
MUTATORS |= {"add", "discard", "remove"}  # set
MUTATORS |= {"append", "extend", "insert", "sort", "reverse"}  # list, with pop and remove above


def _reaches_field(node: ast.expr, fields: set[str], aliases: set[str] = frozenset()) -> bool:
    """True when *node* is ``<x>.<field>`` for one of *fields*, such as
    ``<x>.bindings`` or ``<x>.env``, or one of the names *aliases*, or is
    reached from one by subscripts, attributes and calls
    (``state.bindings[o]``, ``state.bindings.get(o, {})``, ``alias[o]``)."""
    while True:
        if isinstance(node, ast.Attribute) and node.attr in fields:
            return True
        if isinstance(node, ast.Name):
            return node.id in aliases
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return False


def _bound_names(target: ast.expr, value: ast.expr):
    """``(name, expression)`` for each name *target* binds, with the part of
    *value* it is bound from when both are tuples of one length, else all of
    *value*."""
    if isinstance(target, (ast.Tuple, ast.List)):
        pairs = isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts)
        for n, element in enumerate(target.elts):
            yield from _bound_names(element, value.elts[n] if pairs else value)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value, value)
    elif isinstance(target, ast.Name):
        yield target.id, value


def _aliases(scope: ast.AST, fields: set[str]) -> set[str]:
    """The names *scope* binds, by assignment, ``:=`` or a ``for`` loop or
    comprehension, to something reached from one of *fields* or from another
    such name (``records = state.stores[s]``, then ``record = records[0]``)."""
    bound = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            bound += [pair for target in node.targets for pair in _bound_names(target, node.value)]
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
            bound += _bound_names(node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            bound += _bound_names(node.target, node.iter)
    aliases: set[str] = set()
    while more := {name for name, value in bound if name not in aliases and _reaches_field(value, fields, aliases)}:
        aliases |= more
    return aliases


def _writes(scope: ast.AST, fields: set[str]) -> list[int]:
    """Lines at which *scope* assigns, deletes or mutates in place one of
    *fields*, or something reached from one, directly or through a name
    bound to it (``alias |= {x}`` mutates a set, list or dict in place)."""
    aliases = _aliases(scope, fields)
    lines = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            if node.target.id in aliases:
                lines.add(node.lineno)
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node if isinstance(node, ast.Attribute) and node.attr in fields else node.value
            if _reaches_field(target, fields, aliases):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and _reaches_field(node.func.value, fields, aliases):
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


def writers_outside(source: str, allowed: set[str], fields: set[str]) -> list[str]:
    """``where:line`` for each write to one of *fields* made outside the
    *allowed* scopes (see :func:`_scopes`)."""
    return [
        f"{where}:{line}"
        for where, statement in _scopes(ast.parse(source))
        if where not in allowed
        for line in _writes(statement, fields)
    ]


def test_every_state_field_has_writers():
    assert sorted(f.name for f in dataclasses.fields(simulator.ExecutionState)) == sorted(FIELD_WRITERS)


@pytest.mark.parametrize("name", sorted(FIELD_WRITERS))
def test_only_its_writers_write_a_state_field(name):
    assert writers_outside(SOURCE, FIELD_WRITERS[name], {name}) == []


def test_step_writes_tokens_and_marks_only_in_its_consume_loop():
    fields = {"tokens", "marked"}
    in_step = writers_outside(SOURCE, FIELD_WRITERS["tokens"] - {"step"}, fields)
    step = next(s for s in ast.parse(SOURCE).body if isinstance(s, ast.FunctionDef) and s.name == "step")
    loop = next(n for n in ast.walk(step) if isinstance(n, ast.For) and "in_flows" in ast.unparse(n.iter))
    lines = [int(where.removeprefix("step:")) for where in in_step]
    assert lines and all(loop.lineno <= line <= loop.end_lineno for line in lines)


def test_init_and_step_complete_one_node_each():
    lines = SOURCE.splitlines()
    writes = [where.split(":") for where in writers_outside(SOURCE, {"_clone"}, {"completed"})]
    assert [(where, lines[int(line) - 1].strip()) for where, line in writes] == [
        ("init", "state.completed.add(node.id)"),
        ("step", "state.completed.add(node_id)"),
    ]


def test_only_init_and_clone_build_a_state():
    """``init`` calls ``ExecutionState()``, which takes no argument, and
    ``_clone`` fills ``ExecutionState.__new__``; nothing else builds one."""
    builds = [
        (where, ast.unparse(node))
        for where, statement in _scopes(ast.parse(SOURCE))
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and "ExecutionState" in {getattr(n, "id", None) for n in ast.walk(node.func)}
    ]
    assert builds == [("init", "ExecutionState()"), ("_clone", "ExecutionState.__new__(ExecutionState)")]
    assert not inspect.signature(simulator.ExecutionState).parameters
    empty = simulator.ExecutionState()
    assert all(not getattr(empty, f.name) for f in dataclasses.fields(empty))


def test_a_clone_equals_its_state_in_every_field_and_shares_no_container():
    diagram = load("eco.bpdmn.json")
    state = simulator.init(diagram)
    for _ in range(4):
        state, _ = simulator.step(state, diagram, min(simulator.enabled(state, diagram)))
    assert state.stores and state.reads and state.marked
    clone = simulator._clone(state)
    for f in dataclasses.fields(state):
        value, copied = getattr(state, f.name), getattr(clone, f.name)
        assert copied == value, f.name
        if f.name != "step_count":
            assert copied is not value, f.name
    for name in ("bindings", "stores", "inbox"):
        shared = [key for key, inner in getattr(state, name).items() if getattr(clone, name)[key] is inner]
        assert shared == [], name


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
    assert writers_outside(source, {"_bind_object"}, {"bindings", "env"}) == [
        "fire:4",
        "fire:5",
        "fire:6",
        "fire:7",
        "fire:8",
        "fire:9",
        "State.__post_init__:14",
        "<module>:15",
    ]


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
        "    done = state.completed\n"  # 11
        "    done |= {x}\n"
    )
    assert writers_outside(source, {"step"}, {"completed"}) == [
        "fire:4",
        "fire:5",
        "fire:6",
        "fire:7",
        "fire:8",
        "fire:12",
    ]


def test_list_mutators_and_writes_through_aliases_are_found():
    source = (
        "def _receive_messages(state):\n"  # 1
        "    if (queue := state.inbox.get(f)):\n"
        "        queue.pop(0)\n"  # 3
        "def fire(state):\n"
        "    state.stores[s].append(r)\n"  # 5
        "    state.stores[s].extend(rs)\n"
        "    state.stores[s].insert(0, r)\n"  # 7
        "    state.stores[s].pop()\n"
        "    state.stores[s].remove(r)\n"  # 9
        "    state.stores[s] += [r]\n"
        "    state.step_count += 1\n"  # 11
        "    records, n = state.stores.get(s, []), 1\n"
        "    records.append(r)\n"  # 13
        "    last = records[-1]\n"
        "    last['k'] = v\n"  # 15
        "    if (queue := state.inbox.get(f)):\n"
        "        queue.pop(0)\n"  # 17
        "    for q in state.inbox.values():\n"
        "        q.clear()\n"  # 19
        "    n += 1\n"
        "    size = len(state.stores[s])\n"  # 21
        "    copied = list(state.stores)\n"
        "    copied.append(r)\n"  # 23
        "    records = []\n"
        "    records = state.stores[s]\n"  # 25
        "    records += [r]\n"
        "    for q in state.inbox.values():\n"  # 27
        "        q += [m]\n"
        "    n -= 1\n"  # 29
    )
    assert writers_outside(source, {"_receive_messages"}, {"stores", "inbox", "step_count"}) == [
        f"fire:{line}" for line in (5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 26, 28)
    ]
