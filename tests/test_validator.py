from __future__ import annotations

import re
import sys

import pytest

from bpdmn.expr import parse_expr
from bpdmn.format import ParseError, parse_diagram
from bpdmn.model import DataStore, Diagram, Entity, Generalization, Node, Pool, Scope, SequenceFlow, Variable
from bpdmn.validator import Severity, _v4_store_structure, has_errors, validate

from conftest import FIXTURES, load, replace
from test_index import message_data

RULES = [f"V{i}" for i in range(1, 10)]


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_passes(rule):
    d = load(f"validator/good_{rule.lower()}.bpdmn.json")
    diagnostics = validate(d)
    assert not has_errors(diagnostics), [str(x) for x in diagnostics]
    assert not any(x.rule == rule for x in diagnostics)


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_fails_its_rule(rule):
    d = load(f"validator/bad_{rule.lower()}.bpdmn.json")
    diagnostics = validate(d)
    assert any(x.rule == rule for x in diagnostics), [str(x) for x in diagnostics]


def test_v9_is_a_warning_not_an_error():
    diagnostics = validate(load("validator/bad_v9.bpdmn.json"))
    v9 = [x for x in diagnostics if x.rule == "V9"]
    assert v9 and all(x.severity is Severity.WARNING for x in v9)
    assert not has_errors(diagnostics)


@pytest.mark.parametrize("name", ["travel.bpdmn.json", "eco.bpdmn.json"])
def test_example_models_validate_cleanly(name):
    diagnostics = validate(load(name))
    assert not has_errors(diagnostics), [str(x) for x in diagnostics]


def test_diagnostic_string_format():
    diagnostics = validate(load("validator/bad_v1.bpdmn.json"))
    assert diagnostics, "expected at least one diagnostic"
    for d in diagnostics:
        assert re.fullmatch(r"V\d (error|warning) \S+: .+", str(d))


def test_diagnostics_sorted_by_rule_then_element():
    d = load("validator/bad_v7.bpdmn.json")  # missing start AND end event
    diagnostics = validate(d)
    keys = [(x.rule, x.element, x.message) for x in diagnostics]
    assert keys == sorted(keys)
    assert len([x for x in diagnostics if x.rule == "V7"]) == 2


def test_bad_v1_mentions_both_roles_when_unused():
    # an object attached only as input is flagged as never produced
    diagnostics = validate(load("validator/bad_v1.bpdmn.json"))
    assert any("never produced" in x.message for x in diagnostics)


def _v1(diagram: Diagram) -> list[str]:
    return [str(d) for d in validate(diagram) if d.rule == "V1"]


def test_v1_exempts_objects_carried_only_on_black_box_messages():
    # Ext is only received from the black-box pool X, and Out only sent to
    # it: neither is consumed, nor produced, inside the diagram
    assert _v1(message_data()) == []
    # once sA also outputs Ext, one of its links is inside the diagram
    assert _v1(message_data(ext_inside=True)) == ["V1 error Ext: object is never consumed (no target)"]


def test_v1_counts_a_message_receiver_as_a_producer_and_a_sender_as_a_consumer():
    # b receives Q, which no other node produces; a sends S, which no node takes
    assert _v1(message_data(receive=False)) == ["V1 error Q: object is never produced (no source)"]
    assert _v1(message_data(send=False)) == ["V1 error S: object is never consumed (no target)"]


def test_v1_counts_a_store_extraction_as_a_producer_and_an_insertion_as_a_consumer():
    # a inserts W into D and b extracts it: each flow has one store end
    diagram = message_data()
    assert {f.id: (f.source, f.target) for p in diagram.pools for f in p.explicit_data_flows} == {
        "ef1": ("a", "D"),
        "ef2": ("D", "b"),
    }
    assert not any(d.element == "W" for d in validate(diagram))


def test_validate_does_not_mutate(travel):
    def sizes():
        nodes = sum(1 for pool in travel.pools for _ in pool.iter_nodes())
        return len(travel.mappings), len(travel.objects), nodes

    before = sizes()
    validate(travel)
    assert sizes() == before


def test_v3_reports_a_copy_target_that_is_not_a_scalar_of_the_target():
    diagram = load("validator/good_v3.bpdmn.json")
    mapping = diagram.mappings[0]
    diagram = replace(diagram, mappings=[replace(mapping, rules=[replace(mapping.rules[0], to="nope")])])
    assert [(d.rule, d.element, d.message) for d in validate(diagram)] == [
        ("V3", "m1", "copy target 'nope' does not resolve to a scalar of b")
    ]

# The recursive walks V4 and V8 used before they became iterative: the
# reference the shared component walk must agree with.


def _guarded(kinds: dict[str, str], edges: list[tuple[str, str]], guarded: str) -> Diagram:
    """One pool with *edges*, the flow named *guarded* carrying guard ``false``."""
    pool = Pool(
        "p",
        "P",
        nodes=[Node(i, i, kinds.get(i, "task")) for i in dict.fromkeys(n for edge in edges for n in edge)],
        sequence_flows=[
            SequenceFlow(f"{a}{b}", a, b, guard=parse_expr("false") if f"{a}{b}" == guarded else None)
            for a, b in edges
        ],
    )
    return Diagram("d", pools=[pool])


@pytest.mark.parametrize(
    "kinds, edges, guarded, source",
    [
        ({"s": "start_event_none", "e": "end_event"}, [("s", "t"), ("t", "e")], "te", "t"),
        (
            {"s": "start_event_none", "g": "gateway_parallel", "j": "gateway_parallel", "e": "end_event"},
            [("s", "g"), ("g", "a"), ("g", "b"), ("a", "j"), ("b", "j"), ("j", "e")],
            "ga",
            "g",
        ),
    ],
)
def test_v7_refuses_a_guard_on_a_flow_out_of_anything_but_an_exclusive_gateway(kinds, edges, guarded, source):
    diagnostics = validate(_guarded(kinds, edges, guarded))
    message = f"guard on a flow out of {source}, which is not an exclusive gateway"
    assert [(d.rule, d.severity, d.element, d.message) for d in diagnostics] == [
        ("V7", Severity.ERROR, guarded, message)
    ]


def test_v7_accepts_guards_out_of_an_exclusive_gateway():
    kinds = {"s": "start_event_none", "x": "gateway_exclusive_data", "e": "end_event"}
    assert validate(_guarded(kinds, [("s", "x"), ("x", "a"), ("x", "e"), ("a", "e")], "xa")) == []


def _reference_has_cycle(edges: dict[str, list[str]]) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}

    def visit(node: str) -> bool:
        color[node] = GRAY
        for nxt in edges.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GRAY:
                return True
            if state == WHITE and visit(nxt):
                return True
        color[node] = BLACK
        return False

    return any(color.get(n, WHITE) == WHITE and visit(n) for n in list(edges))


def _reference_qualified_field_names(store: DataStore) -> set[str]:
    own = {e.name: {f.name for f in e.fields} for e in store.entities}
    parents: dict[str, list[str]] = {}
    for g in store.generalizations:
        parents.setdefault(g.child, []).append(g.parent)

    def effective(name: str, seen: frozenset[str]) -> set[str]:
        if name in seen or name not in own:
            return set()
        fields = set(own[name])
        for p in parents.get(name, []):
            fields |= effective(p, seen | {name})
        return fields

    return {f"{e.name}.{f}" for e in store.entities for f in effective(e.name, frozenset())}


def _store(entities: dict[str, list[str]], links: list[tuple[str, str]]) -> DataStore:
    """A store of the named entities with their fields and (parent, child) generalizations."""
    return DataStore(
        "st",
        "S",
        entities=[Entity(name, [Variable(f) for f in fields]) for name, fields in entities.items()],
        generalizations=[Generalization(p, c) for p, c in links],
    )


CHAIN = {f"E{i}": [f"f{i}"] for i in range(40)}
CHAIN_LINKS = [(f"E{i}", f"E{i + 1}") for i in range(39)]
HAND_BUILT_STORES = {
    "chain-parent-first": _store(CHAIN, CHAIN_LINKS),
    "chain-child-first": _store(CHAIN, CHAIN_LINKS[::-1]),
    "diamond": _store(
        {"A": ["a"], "B": ["b"], "C": ["c"], "D": ["d"]},
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    ),
    "two-cycle": _store({"A": ["a"], "B": ["b"]}, [("A", "B"), ("B", "A")]),
    "cycle-with-tails": _store(
        {"A": ["a"], "B": ["b"], "C": ["c"], "D": ["d"], "R": ["r"]},
        [("R", "A"), ("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")],
    ),
    "two-cycles-joined": _store(
        {"A": ["a"], "B": ["b"], "C": ["c"], "D": ["d"]},
        [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D"), ("D", "C")],
    ),
    "unknown-endpoints": _store(
        {"A": ["a"], "B": ["b"], "C": ["c"]},
        [("X", "A"), ("A", "Y"), ("Y", "B"), ("B", "C")],
    ),
    "cycle-through-unknown": _store({"A": ["a"], "B": ["b"]}, [("A", "X"), ("X", "B"), ("B", "A")]),
    "duplicate-names": DataStore(
        "st",
        "S",
        entities=[Entity("A", [Variable("a1")]), Entity("A", [Variable("a2")]), Entity("B", [Variable("b")])],
        generalizations=[Generalization("A", "B")],
    ),
}


def _fixture_stores() -> dict[str, DataStore]:
    stores = {}
    for path in sorted(FIXTURES.rglob("*.bpdmn.json")):
        try:
            diagram = parse_diagram(path.read_text(encoding="utf-8"))
        except ParseError:
            continue
        stores.update({f"{path.name}:{s.id}": s for s in diagram.stores})
    return stores


ALL_STORES = {**_fixture_stores(), **HAND_BUILT_STORES}


@pytest.mark.parametrize("name", ALL_STORES)
def test_entity_graph_walks_agree_with_the_recursive_reference(name):
    store = ALL_STORES[name]
    parents: dict[str, list[str]] = {}
    for g in store.generalizations:
        parents.setdefault(g.child, []).append(g.parent)
    v4 = _v4_store_structure(Diagram("d", stores=[replace(store, scope=Scope.diagram())]))
    assert any("form a cycle" in d.message for d in v4) == _reference_has_cycle(parents)
    assert store.qualified_field_names() == _reference_qualified_field_names(store)


def test_entity_graph_walks_take_a_chain_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() * 3
    links = [(f"E{i}", f"E{i + 1}") for i in range(depth - 1)]
    entities = {f"E{i}": ["f"] if i == 0 else [] for i in range(depth)}
    for order in (links, links[::-1]):
        store = _store(entities, order)
        assert not _v4_store_structure(Diagram("d", stores=[store]))
        assert store.qualified_field_names() == {f"E{i}.f" for i in range(depth)}
    cyclic = _store(entities, [*links, (f"E{depth - 1}", "E0")])
    messages = [d.message for d in _v4_store_structure(Diagram("d", stores=[cyclic]))]
    assert messages == ["generalization edges form a cycle"]


def test_v4_names_each_duplicate_entity_once_in_name_order():
    store = DataStore("st", "S", entities=[Entity(n) for n in ["B", "A", "B", "C", "A", "A"]])
    messages = [d.message for d in _v4_store_structure(Diagram("d", stores=[store]))]
    assert messages == ["duplicate entity name 'A'", "duplicate entity name 'B'"]
