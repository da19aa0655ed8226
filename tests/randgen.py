"""Seeded random diagram generator for round-trip and robustness tests.

Generated diagrams always satisfy the construction invariants (unique ids,
resolvable references) but are free to violate the soft validation rules —
the serializer and parser must handle both. ``mutations`` and ``mutant``
derive every single-point change of a decoded document, for mutation
fuzzing of the parser.
"""

from __future__ import annotations

import random
import string

from bpdmn.expr import parse_expr
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    Entity,
    ExplicitDataFlow,
    MessageFlow,
    Node,
    ObjectAttachment,
    Pool,
    SequenceFlow,
    Variable,
)

_KINDS = [
    "task",
    "task",
    "task",
    "sub_process",
    "gateway_parallel",
    "intermediate_message",
]


def random_diagram(seed: int) -> Diagram:
    rng = random.Random(seed)
    counter = iter(range(10_000))

    def ident(prefix: str) -> str:
        return f"{prefix}{next(counter)}"

    objects = [
        DataObject(
            ident("obj"),
            "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 8))),
            stereotype=rng.choice(["generic", "document", "product", "message"]),
            variables=[
                Variable(ident("v"), rng.choice(["string", "number", "boolean"]))
                for _ in range(rng.randint(0, 3))
            ],
            url=f"https://example.org/{ident('u')}" if rng.random() < 0.2 else None,
        )
        for _ in range(rng.randint(0, 4))
    ]
    stores = [
        DataStore(
            ident("st"),
            "Store " + str(rng.randint(0, 99)),
            icon=rng.choice(["database", "warehouse", "folder", "custom"]),
            entities=[
                Entity(f"E{k}", [Variable(ident("f")) for _ in range(rng.randint(0, 2))])
                for k in range(rng.randint(0, 2))
            ],
            collapsed=rng.random() < 0.3,
        )
        for _ in range(rng.randint(0, 2))
    ]

    pools = []
    for _ in range(rng.randint(1, 2)):
        nodes = [Node(ident("n"), "Start", "start_event_none")]
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(_KINDS)
            nodes.append(Node(ident("n"), kind.replace("_", " ").title(), kind))
        nodes.append(Node(ident("n"), "End", "end_event"))

        flows = []
        for a, b in zip(nodes, nodes[1:]):
            atts = []
            if objects and rng.random() < 0.5:
                atts.append(
                    ObjectAttachment(
                        rng.choice(objects).id,
                        rng.choice(["input", "output"]),
                        optional=rng.random() < 0.3,
                    )
                )
            flows.append(SequenceFlow(ident("f"), a.id, b.id, attachments=atts))

        explicit = []
        if stores and objects and rng.random() < 0.5:
            node = rng.choice(nodes)
            store = rng.choice(stores)
            ends = (store.id, node.id) if rng.random() < 0.5 else (node.id, store.id)
            explicit.append(
                ExplicitDataFlow(ident("ef"), *ends, rng.choice(objects).id, optional=rng.random() < 0.2)
            )
        pools.append(
            Pool(ident("p"), "Pool", nodes=nodes, sequence_flows=flows, explicit_data_flows=explicit)
        )

    mappings = []
    if len(objects) >= 2 and rng.random() < 0.5:
        src, dst = rng.sample(objects, 2)
        if src.variables and dst.variables:
            mappings.append(
                DataMapping(
                    ident("m"),
                    src.id,
                    dst.id,
                    [CopyRule(parse_expr(f"{src.id}.{src.variables[0].name}"), dst.variables[0].name)],
                )
            )

    message_flows = []
    if len(pools) == 2 and rng.random() < 0.5:
        message_flows.append(
            MessageFlow(ident("mf"), pools[0].nodes[1].id, pools[1].nodes[1].id)
        )

    return Diagram(
        f"rand{seed}",
        pools=pools,
        stores=stores,
        objects=objects,
        mappings=mappings,
        message_flows=message_flows,
    )


def random_regions(seed: int) -> Diagram:
    """One pool of nested and sequenced sound regions, valid by construction.

    A region is a task, a sequence of regions, a parallel split into two or
    three branch regions closed by a parallel join, or an exclusive split
    whose flows carry literal guards (``true``, ``false``) and one default,
    closed by an exclusive merge. The pool's top level holds two exclusive
    regions and two parallel regions, each pair in a row, and where a region
    follows a join of its own kind that join splits it: one gateway joins
    one region and splits the next.
    """
    rng = random.Random(seed)
    nodes = {"s": Node("s", "Start", "start_event_none")}
    flows: list[SequenceFlow] = []
    open_joins: set[str] = set()  # joins that end a region and have no outgoing flow yet

    def add(kind: str) -> str:
        node_id = f"n{len(nodes)}"
        nodes[node_id] = Node(node_id, f"{kind.split('_')[-1]} {node_id}", kind)
        return node_id

    def region(source: str, depth: int, shape: str | None = None, guard: str | None = None) -> str:
        """Append a region after *source*, entered over a flow guarded by
        *guard*; return the region's last node."""
        shape = shape or rng.choice(("task", "sequence", "parallel", "exclusive") if depth < 3 else ("task",))
        if shape == "sequence":
            for _ in range(rng.randint(2, 3)):
                source, guard = region(source, depth + 1, guard=guard), None
            return source
        kind = {"task": "task", "parallel": "gateway_parallel", "exclusive": "gateway_exclusive_data"}[shape]
        if source in open_joins and nodes[source].kind == kind:
            open_joins.discard(source)
            split = source
        else:
            split = add(kind)
            flows.append(SequenceFlow(f"f{len(flows)}", source, split, guard=parse_expr(guard) if guard else None))
        if shape == "task":
            return split
        join = add(kind)
        width = rng.randint(2, 3)
        for k in range(width):
            default = shape == "parallel" or k == width - 1
            end = region(split, depth + 1, guard=None if default else rng.choice(("true", "false")))
            flows.append(SequenceFlow(f"f{len(flows)}", end, join))
        open_joins.add(join)
        return join

    last = "s"
    pairs = ["exclusive", "parallel"]
    rng.shuffle(pairs)
    for shape in pairs:
        for _ in range(2):
            last = region(last, 1, shape)
    end = add("end_event")
    flows.append(SequenceFlow(f"f{len(flows)}", last, end))
    return Diagram(f"regions{seed}", pools=[Pool("p", "Pool", list(nodes.values()), flows)])


def fuzz_input(seed: int) -> str:
    """A hostile parser input: truncated JSON, wrong types, junk bytes."""
    rng = random.Random(seed)
    choice = rng.randrange(6)
    if choice == 0:
        return "".join(rng.choices(string.printable, k=rng.randint(0, 200)))
    if choice == 1:
        return '{"bpdmn": "1.0", "pools": ' + rng.choice(["{}", "3", '"x"', "[{}]", "[3]"])
    if choice == 2:
        good = (
            '{"bpdmn": "1.0", "pools": [], "stores": [], "objects": [],'
            ' "mappings": [], "message_flows": []}'
        )
        cut = rng.randint(0, len(good))
        return good[:cut]
    if choice == 3:
        return (
            '{"bpdmn": "1.0", "pools": [{"id": "p", "name": 3, "nodes":'
            ' [{"id": "n", "kind": "%s"}], "sequence_flows": [%s]}],'
            ' "stores": [], "objects": [], "mappings": [], "message_flows": []}'
            % (rng.choice(["task", "bogus", ""]), rng.choice(["", "{}", '{"id": "f"}']))
        )
    if choice == 4:
        return "[" + ", ".join(str(rng.random()) for _ in range(rng.randint(0, 5))) + "]"
    return bytes(rng.randrange(256) for _ in range(rng.randint(0, 100))).decode(
        "utf-8", errors="replace"
    )


MUTANT_VALUES = (5, "s", [], {}, None, True)
DROP = object()


def mutations(node, path=()):
    """(path, value) for each single-point mutation under *node*: every key
    and list item dropped (`DROP`) or set to each of `MUTANT_VALUES`."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        for value in (DROP, *MUTANT_VALUES):
            yield (*path, key), value
        if isinstance(child, (dict, list)):
            yield from mutations(child, (*path, key))


def mutant(node, path: tuple, value):
    """A copy of *node* with the mutation (*path*, *value*) applied; only
    the containers along *path* are copied."""
    node = dict(node) if isinstance(node, dict) else list(node)
    if len(path) > 1:
        node[path[0]] = mutant(node[path[0]], path[1:], value)
    elif value is DROP:
        del node[path[0]]
    else:
        node[path[0]] = value
    return node
