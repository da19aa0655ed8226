"""The oracle's stubborn sets: the dependents its tables build, the store
rule that lets an insert commute with a read it can never feed, the cost on
interleave-shaped diagrams, and the restart where ``max_steps`` cuts a path.

``tests/test_reduced_oracle.py`` holds the reduced search to the reference
on every fixture and 700 generated diagrams.
"""

from __future__ import annotations

import importlib.util
import sys

import pytest

from bpdmn import simulator
from bpdmn.expr import parse_expr
from bpdmn.format import parse_diagram
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    Effect,
    Entity,
    ExplicitDataFlow,
    MessageFlow,
    Node,
    ObjectAttachment,
    Pool,
    SequenceFlow,
    StoreInsert,
    StoreRead,
    TaskBehavior,
    Variable,
)

from conftest import FIXTURES, load
from test_index import ref_explore
from test_reduced_oracle import FAMILIES, _pair, commutes, ref_independent, searched  # noqa: F401  (searched is a fixture)

ROOT = FIXTURES.parent


def _interleave_models() -> list[tuple[str, Diagram]]:
    """The benchmark's interleave shapes, from ``perfbench/models.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_models", ROOT / "perfbench" / "models.py")
    models = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = models  # its dataclasses look their module up
    spec.loader.exec_module(models)
    shapes = models.INTERLEAVE_SHAPES
    return [(f"interleave{p}x{w}", parse_diagram(models.fanout_model(1, i, p, w).text)) for i, (p, w) in enumerate(shapes)]


@pytest.mark.parametrize("family", [*FAMILIES, "interleave"])
def test_the_tables_find_every_dependent(family):
    """The dependents the tables build are exactly the nodes that do not
    commute with a node by the pairwise rule, ``ref_independent``, and the
    relation is symmetric."""
    diagrams = _interleave_models() if family == "interleave" else FAMILIES[family]()
    differing, asymmetric = [], []
    for name, diagram in diagrams:
        reduction = simulator._Reduction(diagram)
        nodes = list(diagram.index.nodes)
        for u in nodes:
            expected = {v for v in nodes if v != u and not ref_independent(diagram, u, v)}
            if reduction.dependents(u) != expected:
                differing.append((name, u))
            asymmetric += [(name, u, v) for v in reduction.dependents(u) if u not in reduction.dependents(v)]
    assert differing == []
    assert asymmetric == []


# ---------------------------------------------------------------------------
# An insert and a filtered read of its store

TWO_ENTITIES = DataStore(
    "D", "D", entities=[Entity("E", [Variable("v", "number")]), Entity("F", [Variable("v", "number")])]
)
OBJECTS = [
    DataObject("R", "R", variables=[Variable("E.v", "number")]),
    DataObject("o", "o", variables=[Variable("v", "number")]),
]


@pytest.mark.parametrize(
    ("entity", "value", "read_filter", "commute"),
    [
        pytest.param("E", "2", "E.v = 1", True, id="contradicting-literal"),
        pytest.param("E", "2", "E.v = 1 and o.v = 1", True, id="contradicting-literal-before-a-binding"),
        pytest.param("E", "'x'", "E.v = 1", True, id="a-type-error"),
        pytest.param("F", "1", "E.v = 1", True, id="other-entity"),
        pytest.param("E", "1", "E.v = 1", False, id="passing-literal"),
        pytest.param("E", "instance.index", "E.v = 7", False, id="non-literal"),
        pytest.param("E", "2", "E.v = 1 or o.v = 1", False, id="filter-reads-a-binding"),
        pytest.param("E", "2", None, False, id="no-filter"),
    ],
)
def test_an_insert_commutes_with_a_read_it_can_never_feed(entity, value, read_filter, commute, searched):
    """a inserts ``entity(v=value)`` into D and b reads an E from D through
    *read_filter*. They commute when the record can never pass the read:
    its entity differs, or every assignment is a literal and the filter,
    on the record alone, is not true without reading another name."""
    condition = None if read_filter is None else parse_expr(read_filter)
    diagram = _pair(
        {
            "a": TaskBehavior(store_actions=[StoreInsert("D", entity, {"v": parse_expr(value)})]),
            "b": TaskBehavior(store_actions=[StoreRead("D", "E", "R", condition)]),
        },
        stores=[TWO_ENTITIES],
        objects=OBJECTS,
    )
    assert commutes(diagram, "a", "b") is commute
    assert commutes(diagram, "b", "a") is commute
    result = searched(simulator.explore_interleavings, diagram)[0]
    assert result == searched(ref_explore, diagram)[0]


# ---------------------------------------------------------------------------
# Interleave-shaped diagrams


def _interleave(pools: int, width: int) -> tuple[Diagram, int, frozenset[str]]:
    """The benchmark's fanout shape, built in code. Pool i: ``s -> sp
    (parallel) -> w1..wW -> jn -> rd -> gw``, then ``ya`` or ``yb -> mg
    (exclusive merge) -> snd -> e``. Each ``wk`` inserts ``Rec(pool=i,
    slot=k)`` into the shared store ``st``; ``rd`` reads the record of
    slot ``1 + i % width`` into ``q`` and, but in pool 0, waits for the
    message ``m`` that the previous pool's ``snd`` sends; the last pool
    sends to the black-box pool ``env``. ``gw`` takes ``ya`` in even pools
    and its default ``yb`` in odd ones.
    The diagram, the steps of a run and the one fired set."""
    pool_list, objects, behaviors, message_flows, fired = [], [], {}, [], set()
    for i in range(pools):
        p, slot, even = f"p{i}_", 1 + i % width, i % 2 == 0
        workers = [f"{p}w{k}" for k in range(1, width + 1)]
        kinds = {"s": "start_event_none", "sp": "gateway_parallel", "jn": "gateway_parallel", "rd": "task"}
        kinds |= {"gw": "gateway_exclusive_data", "ya": "task", "yb": "task", "mg": "gateway_exclusive_data"}
        kinds |= {"snd": "task", "e": "end_event"}
        nodes = [Node(p + k, p + k, kind) for k, kind in kinds.items()]
        nodes += [Node(w, w, "task") for w in workers]
        q, r, m = f"{p}q", f"{p}r", f"{p}m"
        edges = [("s", "sp"), ("jn", "rd"), ("rd", "gw"), ("snd", "e")]
        flows = [SequenceFlow(f"{p}{a}-{b}", p + a, p + b) for a, b in edges]
        flows += [SequenceFlow(f"{p}sp-{w}", p + "sp", w) for w in workers]
        flows += [SequenceFlow(f"{p}{w}-jn", w, p + "jn") for w in workers]
        flows += [
            SequenceFlow(f"{p}gw-ya", p + "gw", p + "ya", guard=parse_expr(f"{q}.Rec.slot = {slot if even else 0}")),
            SequenceFlow(f"{p}gw-yb", p + "gw", p + "yb"),
            SequenceFlow(f"{p}ya-mg", p + "ya", p + "mg", [ObjectAttachment(r, "output")]),
            SequenceFlow(f"{p}yb-mg", p + "yb", p + "mg", [ObjectAttachment(r, "output")]),
            SequenceFlow(f"{p}mg-snd", p + "mg", p + "snd", [ObjectAttachment(r, "input")]),
        ]
        data_flows = [ExplicitDataFlow(f"{p}df", "st", p + "rd", q)]
        pool_list.append(Pool(f"p{i}", f"p{i}", nodes, flows, data_flows))
        objects += [
            DataObject(q, q, variables=[Variable("Rec.pool", "number"), Variable("Rec.slot", "number")]),
            DataObject(r, r, variables=[Variable("br", "string")]),
            DataObject(m, m, variables=[Variable("br", "string")]),
        ]
        for k, w in enumerate(workers, 1):
            insert = StoreInsert("st", "Rec", {"pool": parse_expr(str(i)), "slot": parse_expr(str(k))})
            behaviors[w] = TaskBehavior(store_actions=[insert])
        read = StoreRead("st", "Rec", q, parse_expr(f"Rec.pool = {i} and Rec.slot = {slot}"))
        behaviors[p + "rd"] = TaskBehavior(store_actions=[read])
        for branch in ("ya", "yb"):
            behaviors[p + branch] = TaskBehavior(effects=[Effect(r, "br", parse_expr(f"'{branch}'"))])
        behaviors[p + "snd"] = TaskBehavior(effects=[Effect(m, "br", parse_expr(f"{r}.br"))])
        last = i == pools - 1
        target = "env" if last else f"p{i + 1}_rd"
        attachments = [ObjectAttachment(m, "output")] + ([] if last else [ObjectAttachment(m, "input")])
        message_flows.append(MessageFlow(f"{p}mf", p + "snd", target, attachments))
        fired |= {p + k for k in kinds if k not in ("s", "yb" if even else "ya")} | set(workers)
    pool_list.append(Pool("env", "env"))
    store = DataStore("st", "st", entities=[Entity("Rec", [Variable("pool", "number"), Variable("slot", "number")])])
    diagram = Diagram(
        "interleave", pools=pool_list, stores=[store], objects=objects, message_flows=message_flows, behaviors=behaviors
    )
    return diagram, pools * (width + 8), frozenset(fired)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 4)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_an_interleave_shape_costs_about_one_run(shape, searched):
    """The oracle ends in the one fired set, with at most twice as many
    ``step()`` calls as a run takes steps."""
    diagram, steps, fired = _interleave(*shape)
    assert simulator.run(diagram, max_steps=steps + 10).fired_nodes() == fired
    result, _, oracle_steps, cut = searched(simulator.explore_interleavings, diagram, steps + 10)
    assert result == {fired}
    assert not cut
    assert oracle_steps <= 2 * steps


@pytest.mark.parametrize("max_steps", [1, 2, 4, 9])
def test_a_bounded_search_equals_the_reference_key_for_key(max_steps, searched):
    """Where ``max_steps`` cuts a path the oracle starts again without
    stubborn sets: it visits the reference's new keys in the reference's
    order, with as many ``step()`` calls."""
    diagram, _, _ = _interleave(2, 2)
    result, keys, steps, cut = searched(simulator.explore_interleavings, diagram, max_steps)
    expected, reference_keys, reference_steps, reference_cut = searched(ref_explore, diagram, max_steps)
    assert cut and reference_cut
    assert (result, keys) == (expected, reference_keys)
    assert steps == reference_steps


def _oracle_cost():
    """``scripts/oracle_cost.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("oracle_cost", ROOT / "scripts" / "oracle_cost.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# the states the full search visits on each fanout shape of scripts/oracle_cost.py
STATES_AT_MOST = {(2, 2): 21, (2, 3): 23, (3, 2): 31, (3, 3): 34, (4, 3): 45, (4, 4): 49}


@pytest.mark.parametrize("shape", STATES_AT_MOST, ids=lambda s: f"{s[0]}x{s[1]}")
def test_a_fanout_shape_visits_at_most_its_states(shape):
    """The full search that ``scripts/oracle_cost.py`` runs on a fanout
    shape finds the one fired set, and its state count, once each state
    fires its smallest stubborn set, is at most the shape's bound."""
    script = _oracle_cost()
    model = script._models().fanout_model(script.SEED, script.SHAPES.index(shape), *shape)
    outcomes, states, _ = script._counted(model.text, model.oracle_max_steps)
    assert outcomes == model.oracle_outcomes
    assert states <= STATES_AT_MOST[shape]


def test_a_search_that_must_be_cut_restarts_before_building_a_stubborn_set(monkeypatch):
    """Both splits of the 2x2 shape are enabled at first, and each stays
    enabled until it fires, so one step cannot reach a state without an
    enabled node: the reduced search ends in its first state."""
    diagram, _, _ = _interleave(2, 2)
    built = []
    original = simulator._Reduction.stubborn
    monkeypatch.setattr(simulator._Reduction, "stubborn", lambda *args: built.append(args) or original(*args))
    assert simulator.explore_interleavings(diagram, 1) == ref_explore(diagram, 1)
    assert built == []


# ---------------------------------------------------------------------------
# Enablers


def _chain(pool: str, *nodes: str, inputs: dict[str, str] | None = None, data: tuple = ()) -> Pool:
    """A pool whose *nodes* form one chain, with the explicit data flows
    *data*; the first is a none start unless it is named ``ms``, a message
    start, and the last an end event. The flow into node n carries the input
    ``inputs[n]``."""
    kinds = {nodes[0]: "start_event_message" if nodes[0] == "ms" else "start_event_none", nodes[-1]: "end_event"}
    inputs = inputs or {}
    flows = [
        SequenceFlow(f"{a}-{b}", a, b, [ObjectAttachment(inputs[b], "input")] if b in inputs else [])
        for a, b in zip(nodes, nodes[1:])
    ]
    return Pool(pool, pool, [Node(n, n, kinds.get(n, "task")) for n in nodes], flows, list(data))


D = DataStore("D", "D", entities=[Entity("E", [Variable("v", "number")])])
STORE_INPUT = ExplicitDataFlow("df", "D", "u", "q")
ENABLERS = {
    # u waits for the message that snd sends
    "message-sender": lambda: dict(
        pools=[_chain("P1", "s1", "snd", "e1"), _chain("P2", "s2", "u", "e2")],
        objects=[DataObject("m", "m")],
        message_flows=[MessageFlow("mf", "snd", "u", [ObjectAttachment("m", "input")])],
    ),
    # u waits for the message start ms, which waits for snd's message
    "pending-message-start": lambda: dict(
        pools=[_chain("P1", "s1", "snd", "e1"), _chain("P2", "ms", "u", "e2")],
        message_flows=[MessageFlow("mf", "snd", "ms")],
    ),
    # u waits for its input b, which z sets
    "input-writer": lambda: dict(
        pools=[_chain("P1", "s1", "z", "e1"), _chain("P2", "s2", "u", "e2", inputs={"u": "b"})],
        objects=[DataObject("b", "b", variables=[Variable("v", "number")])],
        behaviors={"z": TaskBehavior(effects=[Effect("b", "v", parse_expr("1"))])},
    ),
    # u waits for its input b, which z outputs on an explicit data flow
    "explicit-input-writer": lambda: dict(
        pools=[_chain("P1", "s1", "z", "e1"), _chain("P2", "s2", "u", "e2", data=[ExplicitDataFlow("xf", "z", "u", "b")])],
        objects=[DataObject("b", "b")],
    ),
    # u waits for its input b, which a mapping makes from a, which z sets
    "mapping-source-writer": lambda: dict(
        pools=[_chain("P1", "s1", "z", "e1"), _chain("P2", "s2", "u", "e2", inputs={"u": "b"})],
        objects=[DataObject(i, i, variables=[Variable("v", "number")]) for i in ("a", "b")],
        mappings=[DataMapping("mp", "a", "b", [CopyRule(parse_expr("a.v"), "v")])],
        behaviors={"z": TaskBehavior(effects=[Effect("a", "v", parse_expr("1"))])},
    ),
    # u waits to read from D the record that w inserts
    "store-inserter": lambda: dict(
        pools=[_chain("P1", "s1", "w", "e1"), _chain("P2", "s2", "u", "e2", data=[STORE_INPUT])],
        stores=[D],
        objects=[DataObject("q", "q", variables=[Variable("E.v", "number")], origin_store="D")],
        behaviors={
            "w": TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})]),
            "u": TaskBehavior(store_actions=[StoreRead("D", "E", "q", parse_expr("E.v = 1"))]),
        },
    ),
    # u waits to read from D a record whose v is k.v, which z sets after w inserts
    "filter-binding-writer": lambda: dict(
        pools=[_chain("P1", "s1", "w", "z", "e1"), _chain("P2", "s2", "u", "e2", data=[STORE_INPUT])],
        stores=[D],
        objects=[
            DataObject("q", "q", variables=[Variable("E.v", "number")], origin_store="D"),
            DataObject("k", "k", variables=[Variable("v", "number")]),
        ],
        behaviors={
            "w": TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})]),
            "z": TaskBehavior(effects=[Effect("k", "v", parse_expr("1"))]),
            "u": TaskBehavior(store_actions=[StoreRead("D", "E", "q", parse_expr("E.v = k.v"))]),
        },
    ),
}


@pytest.mark.parametrize("case", ENABLERS)
def test_a_stubborn_set_holds_the_enablers_of_a_disabled_member(case, searched):
    """Beside the case's pools, ``s3 -> g (exclusive) -> x | y -> e3``: g
    binds its optional input o to null and goes to x only when ``o.v = 1``,
    and u sets ``o.v := 1``. So g depends on u, which is disabled at first;
    the oracle finds the outcome through x only if the stubborn set from g
    holds the nodes that can enable u."""
    parts = ENABLERS[case]()
    router = _chain("P3", "s3", "g", "x", "e3", inputs={"g": "o"})
    router.sequence_flows[1].guard = parse_expr("o.v = 1")
    router.sequence_flows[0].attachments[0].optional = True
    router.nodes[1].kind = "gateway_exclusive_data"
    router.nodes.insert(3, Node("y", "y", "task"))
    router.sequence_flows += [SequenceFlow("g-y", "g", "y"), SequenceFlow("y-e3", "y", "e3")]
    behaviors = parts.pop("behaviors", {})
    u = behaviors.setdefault("u", TaskBehavior())
    u.effects.append(Effect("o", "v", parse_expr("1")))
    objects = [*parts.pop("objects", []), DataObject("o", "o", variables=[Variable("v", "number")])]
    pools = [*parts.pop("pools"), router]
    diagram = Diagram(case, pools=pools, objects=objects, behaviors=behaviors, **parts)
    state = simulator.init(diagram)
    assert "u" not in simulator.enabled(state, diagram)
    result = searched(simulator.explore_interleavings, diagram)[0]
    assert result == searched(ref_explore, diagram)[0]
    assert {"x", "y"} <= set().union(*result)


def test_a_node_without_a_flow_in_has_no_enabler(searched):
    """u has no flow in and is no message start, so it is never enabled: a
    stubborn set from g, which depends on u, needs no other node."""
    router = _chain("P3", "s3", "g", "e3", inputs={"g": "o"})
    router.sequence_flows[0].attachments[0].optional = True
    orphan = Pool("P2", "P2", [Node("u", "u", "task")])
    diagram = Diagram(
        "orphan",
        pools=[_chain("P1", "s1", "z", "e1"), orphan, router],
        objects=[DataObject("o", "o", variables=[Variable("v", "number")])],
        behaviors={"u": TaskBehavior(effects=[Effect("o", "v", parse_expr("1"))])},
    )
    state = simulator.init(diagram)
    assert simulator._Reduction(diagram).stubborn(state, {"g", "z"}) == {"g"}
    with pytest.raises(simulator.SimulationError, match="^node u is not enabled: no flow in$"):
        simulator.step(state, diagram, "u")
    assert searched(simulator.explore_interleavings, diagram)[0] == searched(ref_explore, diagram)[0]


def test_a_state_fires_the_smallest_stubborn_set_its_enabled_nodes_seed(monkeypatch):
    """Pool P is ``s -> split (parallel) -> {a, b} -> join -> e``, where a
    and b both set ``o.v``; pool P2 is ``s2 -> z -> e2``. Once split has
    fired, a, b and z are enabled. The closure of a, the smallest, holds a
    and b, which do not commute, and that of z holds z alone: in that state
    the oracle fires only z."""
    setters = {name: TaskBehavior(effects=[Effect("o", "v", parse_expr(v))]) for name, v in (("a", "1"), ("b", "2"))}
    pair = _pair(setters, objects=[DataObject("o", "o", variables=[Variable("v", "number")])])
    diagram = Diagram(
        "smallest", pools=[*pair.pools, _chain("P2", "s2", "z", "e2")], objects=pair.objects, behaviors=setters
    )
    expected = ref_explore(diagram)
    state, _ = simulator.step(simulator.init(diagram), diagram, "split")
    assert simulator.enabled(state, diagram) == {"a", "b", "z"}
    assert not commutes(diagram, "a", "b")
    assert simulator._Reduction(diagram).stubborn(state, {"a", "b", "z"}) == {"z"}
    fired = []
    original = simulator.step
    monkeypatch.setattr(
        simulator, "step", lambda s, d, node, **options: fired.append((set(s.completed), node)) or original(s, d, node, **options)
    )
    assert simulator.explore_interleavings(diagram) == expected
    assert [node for completed, node in fired if completed == {"s", "s2", "split"}] == ["z"]


def test_a_writer_without_a_behaviour_feeds_no_read(searched):
    """w writes store D only through an explicit data flow, and ins inserts
    ``E(v=1)`` into it; u reads an E with ``E.v = 1`` from D into q, its
    required store input. w inserts no record, so it neither depends on u
    nor can enable it; ins does both. The oracle finds the reference's
    outcomes."""
    diagram = Diagram(
        "explicit-writer",
        pools=[
            _chain("P1", "s1", "w", "e1", data=[ExplicitDataFlow("xf", "w", "D", "x")]),
            _chain("P2", "s2", "u", "e2", data=[STORE_INPUT]),
            _chain("P3", "s3", "ins", "e3"),
        ],
        stores=[D],
        objects=[DataObject("q", "q", variables=[Variable("E.v", "number")], origin_store="D"), DataObject("x", "x")],
        behaviors={
            "ins": TaskBehavior(store_actions=[StoreInsert("D", "E", {"v": parse_expr("1")})]),
            "u": TaskBehavior(store_actions=[StoreRead("D", "E", "q", parse_expr("E.v = 1"))]),
        },
    )
    assert diagram.index.writers["D"] == {"w", "ins"}
    assert commutes(diagram, "w", "u")
    assert not commutes(diagram, "ins", "u")
    state = simulator.init(diagram)
    blocker = simulator._blocker(state, diagram, diagram.index.nodes["u"])
    assert blocker[0] == "input"
    enablers = simulator._Reduction(diagram).enablers(state, "u", blocker)
    assert "ins" in enablers
    assert "w" not in enablers
    assert searched(simulator.explore_interleavings, diagram)[0] == searched(ref_explore, diagram)[0]


def test_step_names_the_conjunct_a_node_fails():
    """t_a needs y, which only the later t_b outputs; t_b waits for t_a."""
    diagram = load("deadlock.bpdmn.json")
    state = simulator.init(diagram)
    with pytest.raises(simulator.SimulationError, match="^node t_a is not enabled: input y unbound$"):
        simulator.step(state, diagram, "t_a")
    with pytest.raises(simulator.SimulationError, match="^node t_b is not enabled: no token on flow f2$"):
        simulator.step(state, diagram, "t_b")
