"""What enablement keeps between firings equals what it would recompute.

``ExecutionState.reads`` remembers how far each store read scanned and what it
matched, and ``ExecutionState.marked`` counts each node's in-flows that hold a
token (see the ``bpdmn.simulator`` docstring). Each is held here to the full
computation it replaces: a store read to a scan from the first record, kept
here as the reference, and the counts to a recount from ``state.tokens`` at
every state that runs and the oracle reach.
"""

from __future__ import annotations

import ast
import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from bpdmn import simulator
from bpdmn.expr import ExprError, eval_expr, parse_expr
from bpdmn.format import parse_diagram
from bpdmn.model import DataObject, DataStore, Diagram, Entity, Node, Pool, StoreRead, TaskBehavior, Variable
from bpdmn.simulator import ExecutionState, SimulationError, _bind_object, _matching_record

from conftest import FIXTURES, built_state
from randgen import random_diagram
from test_binding_writers import SIMULATOR

# ---------------------------------------------------------------------------
# Store reads resume from a memo

# filters over a record of Rec and the object o; some raise ExprError on some
# records: a string against a number, an ordering of booleans, or a field the
# record lacks
FILTERS = [
    None,
    "Rec.slot = o.v",
    "Rec.slot < o.v",
    "Rec.val = o.w or Rec.slot = o.v",
    "not (Rec.slot != o.v) and o.w = 'a'",
    "Rec.slot = 1",
]


def _readers() -> Diagram:
    """One task per filter, each reading x from store st by it."""
    tasks = [f"r{i}" for i in range(len(FILTERS))]
    fields = [Variable("slot", "number"), Variable("val", "string")]
    return Diagram(
        "d",
        pools=[Pool("p", "P", nodes=[Node(t, t, "task") for t in tasks])],
        stores=[DataStore("st", "St", entities=[Entity("Rec", fields), Entity("Other", fields)])],
        objects=[
            DataObject("o", "O", variables=[Variable("v", "number"), Variable("w", "string")]),
            DataObject("x", "X", variables=[Variable(f"Rec.{f.name}", f.vtype) for f in fields]),
        ],
        behaviors={
            t: TaskBehavior(store_actions=[StoreRead("st", "Rec", "x", None if text is None else parse_expr(text))])
            for t, text in zip(tasks, FILTERS)
        },
    )


# (memo key, read, the paths its filter names) of each task, as a firing reads them
READS = [
    ((node_id, number), action, refs)
    for node_id, reads in _readers().index.store_reads.items()
    for number, (action, refs) in enumerate(reads)
]


def full_scan(state: ExecutionState, action: StoreRead) -> dict | None:
    """The first record of the read's entity that its filter accepts, scanned
    from the first record: the store read without a memo."""
    for record in state.stores.get(action.store, []):
        if record.get("__entity__") != action.entity:
            continue
        if action.filter is None:
            return record
        fields = {f"{obj}.{path}": value for obj, paths in state.bindings.items() for path, value in paths.items()}
        fields |= record
        del fields["__entity__"]
        try:
            if eval_expr(action.filter, fields) is True:
                return record
        except ExprError:
            continue
    return None


# equal in Python, apart to a filter or to an equality test: 1, 1.0 and True;
# 0, -0.0 and False; one NaN object, which equals itself in a tuple, and new ones
_VALUES = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 2, 2.5, -0.0, "1", "a", None, float("nan")]),
    st.builds(float, st.just("nan")),
)
_RECORD = st.fixed_dictionaries({}, optional={"Rec.slot": _VALUES, "Rec.val": _VALUES})
_OPERATION = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(["Rec", "Other"]), _RECORD),
    st.tuples(st.just("bind"), st.sampled_from(["v", "w"]), _VALUES),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_OPERATION, st.booleans()), max_size=25))
def test_a_memoized_store_read_returns_the_first_match_of_a_full_scan(operations):
    """Inserts of either entity and rebinds of the paths the filters name,
    o.v and o.w, unbound at first, in any order; after each operation marked
    to look, and at the end, every read returns the record a full scan does."""
    state = built_state(_readers(), stores={"st": []})

    def look() -> None:
        for key, action, refs in READS:
            assert _matching_record(state, key, action, refs) is full_scan(state, action)

    for (kind, name, value), looks in operations:
        if kind == "insert":
            state.stores["st"].append({"__entity__": name, **value})
        else:
            _bind_object(state, [], 0, "o", {name: value})
        if looks:
            look()
    look()


def test_a_read_evaluates_only_what_changed(monkeypatch):
    """With the filter's paths unchanged, a read evaluates the filter on no
    record it saw, and on each record inserted since; a rebind rescans."""
    calls = []
    monkeypatch.setattr(simulator, "eval_expr", lambda e, env: calls.append(e) or eval_expr(e, env))
    key, action, refs = next(read for read in READS if read[1].filter == parse_expr("Rec.slot = o.v"))
    state = built_state(
        _readers(),
        bindings={"o": {"v": 2}},
        stores={"st": [{"__entity__": "Rec", "Rec.slot": slot} for slot in (0, 1, 3)]},
    )

    def read() -> tuple[dict | None, int]:
        calls.clear()
        return _matching_record(state, key, action, refs), len(calls)

    assert read() == (None, 3)
    assert read() == (None, 0)
    match = {"__entity__": "Rec", "Rec.slot": 2}
    state.stores["st"] += [{"__entity__": "Other", "Rec.slot": 2}, match]
    assert read() == (match, 1)
    assert read() == (match, 0)
    _bind_object(state, [], 0, "o", {"v": 2.0})  # equal to 2, but a float
    assert read() == (match, 4)


# ---------------------------------------------------------------------------
# Marked in-flow counts


def _recount(state: ExecutionState, diagram: Diagram) -> dict[str, int]:
    marked: dict[str, int] = {}
    for flow_id, count in state.tokens.items():
        if count > 0:
            target = diagram.index.flows[flow_id].target
            marked[target] = marked.get(target, 0) + 1
    return marked


FIXTURE_PATHS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))
MODELS = [pytest.param(path, id=path) for path in FIXTURE_PATHS] + [
    pytest.param(seed, id=f"random{seed}") for seed in range(40)
]


@pytest.mark.parametrize("model", MODELS)
def test_marked_counts_equal_a_recount_along_runs_and_oracle_paths(model, monkeypatch):
    diagram = random_diagram(model) if isinstance(model, int) else parse_diagram((FIXTURES / model).read_text())
    checked = []
    step, enabled = simulator.step, simulator.enabled

    def checked_step(state, diagram, node_id, **options):
        state, trace = step(state, diagram, node_id, **options)
        assert state.marked == _recount(state, diagram)
        checked.append(node_id)
        return state, trace

    def checked_enabled(state, diagram, prior=frozenset()):
        ready = enabled(state, diagram, prior)
        assert state.marked == _recount(state, diagram)
        checked.append(None)
        return ready

    monkeypatch.setattr(simulator, "step", checked_step)
    monkeypatch.setattr(simulator, "enabled", checked_enabled)
    runs = [
        lambda: simulator.run(diagram),
        *(lambda seed=seed: simulator.run(diagram, policy="random", seed=seed) for seed in range(3)),
        lambda: simulator.explore_interleavings(diagram),
    ]
    for call in runs:
        with contextlib.suppress(SimulationError):
            call()
    with contextlib.suppress(SimulationError):
        simulator.init(diagram)
        assert checked  # a diagram that starts was checked


def aliases(source: str) -> list[int]:
    """Lines at which *source* binds a name to a ``tokens`` or ``marked``
    attribute, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            if any(isinstance(v, ast.Attribute) and v.attr in {"tokens", "marked"} for v in values):
                lines.append(node.lineno)
    return lines


def test_no_other_name_holds_the_tokens_or_the_marks():
    """The writers of ``tokens`` and ``marked`` write them through the state,
    so no name, even inside a writer, is bound to either."""
    assert aliases(SIMULATOR.read_text(encoding="utf-8")) == []


def test_aliases_are_found():
    source = (
        "def f(state):\n"  # 1
        "    tokens, n = state.tokens, 1\n"
        "    marked = state.marked\n"  # 3
        "    c = state.tokens.get(k)\n"
        "    if (m := state.marked):\n"  # 5
        "        pass\n"
    )
    assert aliases(source) == [2, 3, 5]
