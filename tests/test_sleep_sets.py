"""The oracle's sleep and stubborn sets against the search without them.

``explore_interleavings`` fires no node of a state's sleep set, since such a
firing reaches a key the search has already seen, and in a state with two or
more enabled nodes it fires only the enabled members of a stubborn set. So
it finds the outcomes of the reference search of ``tests/test_index.py``
(``ref_explore``), which fires every enabled node, or the same error, and
visits only keys the reference visits and never more of them: stubborn sets
skip states by design. Where the reference cuts a path at ``max_steps`` the
oracle starts again without stubborn sets, and that search visits the same
new keys in the same order as the reference. The inline diagrams pin the
oracle's commute relation, ``_Reduction.dependents``, on the cases it must
get right, and hold it to the pairwise rule, ``ref_independent``.
"""

from __future__ import annotations

import pytest

from bpdmn import simulator
from bpdmn.expr import parse_expr
from bpdmn.format import parse_diagram
from bpdmn.model import (
    DataObject,
    DataStore,
    Diagram,
    Entity,
    MessageFlow,
    Node,
    Pool,
    SequenceFlow,
    StoreInsert,
    StoreRead,
    TaskBehavior,
    Variable,
)

from conftest import FIXTURES
from randgen import random_diagram, random_regions
from test_index import FIXTURE_PATHS, ref_explore, ref_key
from test_simulator import _race

FAMILIES = {
    "fixtures": lambda: [(path, parse_diagram((FIXTURES / path).read_text(encoding="utf-8"))) for path in FIXTURE_PATHS],
    "random_diagram": lambda: [(f"random{seed}", random_diagram(seed)) for seed in range(500)],
    "random_regions": lambda: [(f"regions{seed}", random_regions(seed)) for seed in range(200)],
}


@pytest.fixture
def searched(monkeypatch):
    """``searched(explore, diagram, max_steps)``: the outcome set of the
    search *explore*, or the repr of the ``SimulationError`` that ended it;
    the reference key of each new state, in the order found (one
    ``enabled()`` call per new state); the number of ``step()`` calls; and
    whether a state with an enabled node was found at ``max_steps``. The keys
    and the count are those of the last search from ``init()``: a reduced
    search that ``max_steps`` cuts starts again from there."""
    log = {"keys": [], "steps": 0, "cut": False}
    bound = [0]
    original_init, original_enabled, original_step = simulator.init, simulator.enabled, simulator.step

    def init_logged(diagram, start_inputs=None):
        log["keys"], log["steps"] = [], 0
        return original_init(diagram, start_inputs)

    def enabled_logged(state, d, prior=frozenset()):
        log["keys"].append(ref_key(state))
        ready = original_enabled(state, d, prior)
        log["cut"] |= bool(ready) and state.step_count >= bound[0]
        return ready

    def step_counted(state, d, choose, **options):
        log["steps"] += 1
        return original_step(state, d, choose, **options)

    monkeypatch.setattr(simulator, "init", init_logged)
    monkeypatch.setattr(simulator, "enabled", enabled_logged)
    monkeypatch.setattr(simulator, "step", step_counted)

    def search(explore, diagram: Diagram, max_steps: int = 50):
        bound[0] = max_steps
        log["cut"] = False
        try:
            result = explore(diagram, max_steps)
        except simulator.SimulationError as exc:
            result = repr(exc)
        return result, log["keys"], log["steps"], log["cut"]

    return search


@pytest.mark.parametrize("family", FAMILIES)
def test_the_oracle_finds_the_outcomes_and_new_keys_of_the_reference(family, searched):
    differing = []
    for name, diagram in FAMILIES[family]():
        for max_steps in (3, 10, 50):
            result, keys, steps, _ = searched(simulator.explore_interleavings, diagram, max_steps)
            expected, reference_keys, reference_steps, cut = searched(ref_explore, diagram, max_steps)
            if cut:
                same = (result, keys) == (expected, reference_keys) and steps <= reference_steps
            else:
                same = result == expected and set(keys) <= set(reference_keys) and len(keys) <= len(reference_keys)
            if not same:
                differing.append((name, max_steps))
    assert differing == []


def ref_independent(diagram: Diagram, a: str, b: str) -> bool:
    """Whether firing node *a* then node *b* reaches the same key as *b*
    then *a*, from any state where both are enabled, with each still enabled
    after the other, stated pair by pair: they are distinct, share no
    sequence or message flow, neither writes an object the other reads or
    writes (``index.footprint``), and no record that one inserts may pass a
    store read of the other (``simulator._feeds``). Two inserts into one
    store are independent, because the key holds store sizes, not store
    contents. The reference for ``simulator._Reduction.dependents``."""
    index = diagram.index
    tables = (index.in_flows, index.out_flows, index.message_in, index.message_out)
    flows_a, flows_b = ({f.id for table in tables for f in table.get(n, ())} for n in (a, b))
    reads_a, writes_a, store_reads_a, inserts_a = index.footprint(a)
    reads_b, writes_b, store_reads_b, inserts_b = index.footprint(b)
    return (
        a != b
        and flows_a.isdisjoint(flows_b)
        and writes_a.isdisjoint(reads_b)
        and writes_a.isdisjoint(writes_b)
        and writes_b.isdisjoint(reads_a)
        and (inserts_a.isdisjoint(store_reads_b) or not simulator._feeds(diagram, a, b))
        and (inserts_b.isdisjoint(store_reads_a) or not simulator._feeds(diagram, b, a))
    )


def commutes(diagram: Diagram, a: str, b: str) -> bool:
    """Whether nodes *a* and *b* commute by the oracle's relation: neither is
    among the other's ``_Reduction.dependents``. Both orders must give one
    answer, and it must be ``ref_independent``'s."""
    reduction = simulator._Reduction(diagram)
    answer = b not in reduction.dependents(a)
    assert (a not in reduction.dependents(b)) is answer
    assert ref_independent(diagram, a, b) is answer
    return answer


def _pair(behaviors: dict[str, TaskBehavior], **diagram_parts) -> Diagram:
    """``s -> split (parallel) -> {a, b} -> join (parallel) -> e``, with the
    behaviours *behaviors*."""
    kinds = {"s": "start_event_none", "split": "gateway_parallel", "a": "task", "b": "task"}
    kinds |= {"join": "gateway_parallel", "e": "end_event"}
    edges = [("s", "split"), ("split", "a"), ("split", "b"), ("a", "join"), ("b", "join"), ("join", "e")]
    flows = [SequenceFlow(f"f{k}", source, target) for k, (source, target) in enumerate(edges)]
    pool = Pool("P", "P", [Node(i, i, kind) for i, kind in kinds.items()], flows)
    return Diagram("pair", pools=[pool], behaviors=behaviors, **diagram_parts)


def _keys_of_both_orders(diagram: Diagram, before: list[str], x: str, y: str) -> tuple:
    """The reference keys after firing *before* then x and y, and after
    *before* then y and x; x and y must both be enabled after *before*."""
    state = simulator.init(diagram)
    for node in before:
        state, _ = simulator.step(state, diagram, node)
    assert {x, y} <= simulator.enabled(state, diagram)
    keys = []
    for order in ((x, y), (y, x)):
        fired = simulator._clone(state)
        for node in order:
            fired, _ = simulator.step(fired, diagram, node)
        keys.append(ref_key(fired))
    return tuple(keys)


def both_orders_explored(searched, diagram: Diagram, before: list[str], x: str, y: str) -> bool:
    """Whether the oracle finds the reference's outcomes, visits only keys
    the reference visits and in the reference's order, and, in the state
    that firing *before* reaches, fires both x and y: it visits the reference
    key of each firing. Used where stubborn sets skip some of the
    reference's states, so its whole key sequence cannot be asked for."""
    keys = []
    for node in (x, y):
        state = simulator.init(diagram)
        for fired in [*before, node]:
            state, _ = simulator.step(state, diagram, fired)
        keys.append(ref_key(state))
    result, visited, _, _ = searched(simulator.explore_interleavings, diagram)
    expected, reference_keys, _, _ = searched(ref_explore, diagram)
    in_order = iter(reference_keys)
    return result == expected and all(key in in_order for key in visited) and set(keys) <= set(visited)


STORE = DataStore("D", "D", entities=[Entity("E", [Variable("v", "number")])])


def test_two_inserts_into_one_store_are_independent(searched):
    """The key holds store sizes, not contents, so a then b and b then a
    reach one key, and the oracle fires the pair in one order only."""
    insert = TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})])
    diagram = _pair({"a": insert, "b": insert}, stores=[STORE])
    assert commutes(diagram, "a", "b")
    result, keys, steps, _ = searched(simulator.explore_interleavings, diagram)
    expected, reference_keys, reference_steps, _ = searched(ref_explore, diagram)
    assert result == expected
    assert set(keys) < set(reference_keys)
    assert steps < reference_steps


def test_an_insert_and_a_filtered_read_of_its_store_are_dependent(searched):
    """Whether the read finds a record, and binds R, depends on whether the
    insert came first."""
    diagram = _pair(
        {
            "a": TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})]),
            "b": TaskBehavior(store_actions=[StoreRead("D", "E", "R", parse_expr("E.v = 1"))]),
        },
        stores=[STORE],
        objects=[DataObject("R", "R", variables=[Variable("E.v", "number")])],
    )
    assert not commutes(diagram, "a", "b")
    assert not commutes(diagram, "b", "a")
    a_first, b_first = _keys_of_both_orders(diagram, ["split"], "a", "b")
    assert a_first != b_first
    assert searched(simulator.explore_interleavings, diagram)[:2] == searched(ref_explore, diagram)[:2]


def test_two_effects_on_one_object_are_dependent():
    """The race's a and b both set ``o.v``; which fires last decides the
    branch, so both orders are fired (the key still merges them: see the
    strict xfail ``test_the_oracle_lists_both_outcomes_of_the_race``)."""
    diagram = _race()
    assert not commutes(diagram, "a", "b")


def test_a_node_and_the_exclusive_merge_its_flow_enters_are_dependent(searched):
    """``s -> split (parallel) -> {a, b} -> m (exclusive merge) -> e``. Once
    b has fired, m and a are both enabled; m takes its token from its first
    marked flow in, so a then m leaves a token on another flow than m then a.
    a and b commute, so the oracle skips two of the reference's sixteen
    states (m and e fired before the other branch), and the reference's
    whole key sequence is not asked for."""
    kinds = {"s": "start_event_none", "split": "gateway_parallel", "a": "task", "b": "task"}
    kinds |= {"m": "gateway_exclusive_data", "e": "end_event"}
    edges = [("s", "split"), ("split", "a"), ("split", "b"), ("a", "m"), ("b", "m"), ("m", "e")]
    flows = [SequenceFlow(f"f{k}", source, target) for k, (source, target) in enumerate(edges)]
    diagram = Diagram("merge", pools=[Pool("P", "P", [Node(i, i, kind) for i, kind in kinds.items()], flows)])
    assert not commutes(diagram, "a", "m")
    a_first, m_first = _keys_of_both_orders(diagram, ["split", "b"], "a", "m")
    assert a_first != m_first
    assert both_orders_explored(searched, diagram, ["split", "b"], "a", "m")


def test_a_send_and_a_receive_on_one_message_flow_are_dependent(searched):
    """a sends on mf to r, which a token alone enables: r then a leaves the
    message waiting, a then r takes it. The oracle skips four of the
    reference's thirteen states, so the reference's whole key sequence is
    not asked for."""
    sender = Pool(
        "P1",
        "P1",
        [Node("s1", "s1", "start_event_none"), Node("a", "a", "task"), Node("e1", "e1", "end_event")],
        [SequenceFlow("f1", "s1", "a"), SequenceFlow("f2", "a", "e1")],
    )
    receiver = Pool(
        "P2",
        "P2",
        [Node("s2", "s2", "start_event_none"), Node("r", "r", "task"), Node("e2", "e2", "end_event")],
        [SequenceFlow("f3", "s2", "r"), SequenceFlow("f4", "r", "e2")],
    )
    diagram = Diagram("message", pools=[sender, receiver], message_flows=[MessageFlow("mf", "a", "r")])
    assert not commutes(diagram, "a", "r")
    a_first, r_first = _keys_of_both_orders(diagram, [], "a", "r")
    assert a_first != r_first
    assert both_orders_explored(searched, diagram, [], "a", "r")

