"""Benchmark inputs and their known answers.

Every generated model is written as canonical ``.bpdmn.json`` text built
here from plain dicts, without calling the program, and the generator
derives each model's expected results from the model's construction:
the run status, step count and fired set, the final object values, the
oracle's outcome set, and the names and ids the translators must emit.
The desk workload uses the committed fixtures, with expected exit codes
taken from what each fixture exemplifies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CHAIN_TASKS = 150
CHAIN_MAPPING_EVERY = 5
CHAIN_MODELS = 2
FANOUT_SHAPE = (6, 12)  # pools x parallel width
FANOUT_MODELS = 2
FANOUT_ORACLE_DEPTH = 2  # the fired sets _fanout_prefixes derives are for two steps
INTERLEAVE_SHAPES = ((2, 2), (2, 3), (3, 2))

_WORDS = (
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "harbor",
    "indigo", "juniper", "kestrel", "lagoon", "maple", "nectar", "onyx", "pebble",
    "quartz", "raven", "sierra", "tundra", "umber", "violet", "willow", "yarrow",
)


@dataclass
class Model:
    """One benchmark input and what the program must answer for it."""

    name: str
    text: str
    path: Path | None = None
    node_ids: list[str] = field(default_factory=list)
    # node id -> name, for the tasks every BPEL document must name exactly once
    task_names: dict[str, str] = field(default_factory=dict)
    flow_edges: list[tuple[str, str]] = field(default_factory=list)
    simulate_args: list[str] = field(default_factory=list)
    # expected CLI exit code per command; commands not listed exit 0
    exits: dict[str, int] = field(default_factory=dict)
    status: str | None = None
    steps: int | None = None
    fired: frozenset[str] | None = None
    final_values: dict[tuple[str, str], object] = field(default_factory=dict)
    patterns_expected: set[str] = field(default_factory=set)
    validate_first_line: str = "ok"
    # oracle: whether to run it, its step bound, and the exact outcome set when known
    oracle: bool = False
    oracle_max_steps: int = 50
    oracle_outcomes: set[frozenset[str]] | None = None
    gating_check: bool = False


# ---------------------------------------------------------------------------
# Canonical text: the key order and element order of the normative format


def _canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _node(i: str, name: str, kind: str) -> dict:
    return {"id": i, "name": name, "kind": kind}


def _flow(i: str, src: str, dst: str, atts=(), guard: str | None = None) -> dict:
    d: dict = {"id": i, "source": src, "target": dst}
    if atts:
        d["attachments"] = [
            {"object": o, "direction": direction} for o, direction in sorted(atts)
        ]
    if guard is not None:
        d["guard"] = guard
    return d


def _object(i: str, variables: list[tuple[str, str]], origin_store: str | None = None) -> dict:
    d: dict = {"id": i, "name": i, "stereotype": "generic"}
    d["variables"] = [{"name": n, "vtype": t} for n, t in sorted(variables)]
    if origin_store is not None:
        d["origin_store"] = origin_store
    return d


def _pool(i: str, name: str, nodes: list[dict], flows: list[dict], data_flows=()) -> dict:
    return {
        "id": i,
        "name": name,
        "nodes": sorted(nodes, key=lambda n: n["id"]),
        "sequence_flows": sorted(flows, key=lambda f: f["id"]),
        "explicit_data_flows": sorted(data_flows, key=lambda f: f["id"]),
    }


def _document(diagram_id: str, pools, stores=(), objects=(), mappings=(), message_flows=(), behaviors=None) -> str:
    doc: dict = {"bpdmn": "1.0", "id": diagram_id}
    doc["pools"] = sorted(pools, key=lambda p: p["id"])
    doc["stores"] = sorted(stores, key=lambda s: s["id"])
    doc["objects"] = sorted(objects, key=lambda o: o["id"])
    doc["mappings"] = sorted(mappings, key=lambda m: m["id"])
    doc["message_flows"] = sorted(message_flows, key=lambda f: f["id"])
    if behaviors:
        doc["behaviors"] = dict(sorted(behaviors.items()))
    return _canonical(doc)


def _quote(value: str) -> str:
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _literal(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}-{rng.randrange(10**6):06d}"


# ---------------------------------------------------------------------------
# chain: one pool, each task hands one object to the next


def chain_model(seed: int, index: int) -> Model:
    """``s -> t001 -> ... -> tN -> e`` with N = CHAIN_TASKS. Task i copies
    ``d{i-1}.v`` (or the mapped ``m{i-1}.v`` on every CHAIN_MAPPING_EVERY-th
    handoff) into ``d{i}.v``; the first task writes a seeded literal, so
    every ``d`` and ``m`` ends holding that literal."""
    n, every = CHAIN_TASKS, CHAIN_MAPPING_EVERY
    rng = random.Random(f"chain:{seed}:{index}")
    literal = _literal(rng)
    tag = rng.choice(_WORDS)
    tid = [f"t{i:03d}" for i in range(n + 1)]  # tid[0] unused
    nodes = [_node("s", "Start", "start_event_none"), _node("e", "End", "end_event")]
    flows = [_flow("f000", "s", tid[1])]
    objects, mappings, behaviors = [], [], {}
    final: dict[tuple[str, str], object] = {}
    task_names = {}
    for i in range(1, n + 1):
        name = f"{tag.title()} step {i}"
        nodes.append(_node(tid[i], name, "task"))
        task_names[tid[i]] = name
        obj = f"d{i:03d}"
        objects.append(_object(obj, [("v", "string")]))
        final[(obj, "v")] = literal
        if i == 1:
            source_expr = _quote(literal)
        else:
            prev = f"d{i - 1:03d}"
            mapped = (i - 1) % every == 0
            source_expr = f"m{i - 1:03d}.v" if mapped else f"{prev}.v"
        behaviors[tid[i]] = {"effects": [{"target": f"{obj}.v", "expr": source_expr}]}
        if i < n:
            mapped = i % every == 0
            consumed = f"m{i:03d}" if mapped else obj
            flows.append(_flow(f"f{i:03d}", tid[i], tid[i + 1], [(obj, "output"), (consumed, "input")]))
            if mapped:
                objects.append(_object(consumed, [("v", "string")]))
                final[(consumed, "v")] = literal
                mappings.append(
                    {
                        "id": f"mp{i:03d}",
                        "source_object": obj,
                        "target_object": consumed,
                        "rules": [{"from": f"{obj}.v", "to": "v"}],
                    }
                )
        else:
            flows.append(_flow(f"f{i:03d}", tid[i], "e", [(obj, "output"), (obj, "input")]))
    diagram_id = f"chain_{seed}_{index}"
    text = _document(
        diagram_id,
        [_pool("p", f"Chain {tag}", nodes, flows)],
        objects=objects,
        mappings=mappings,
        behaviors=behaviors,
    )
    fired = frozenset(tid[1:] + ["e"])
    return Model(
        name=diagram_id,
        text=text,
        node_ids=sorted(["s", "e"] + tid[1:]),
        task_names=task_names,
        flow_edges=[(f["source"], f["target"]) for f in flows],
        status="completed",
        steps=n + 1,
        fired=fired,
        final_values=final,
        oracle=True,
        oracle_max_steps=n + 10,
        oracle_outcomes={fired},
        gating_check=True,
    )


# ---------------------------------------------------------------------------
# fanout: pools of parallel store writers, a filtered read, a data gateway,
# and a message to the next pool


def fanout_model(seed: int, index: int, pools: int, width: int, bounded_oracle: bool = False) -> Model:
    """Pool i: ``s -> sp (parallel) -> w01..wW -> jn -> rd -> gw``, then
    ``ya`` or ``yb`` -> ``mg`` -> ``snd`` -> ``e``. Each ``w`` inserts
    ``Rec(pool=i, slot=k, val=<literal>)`` into the shared store ``st``;
    ``rd`` reads the record with ``pool = i and slot = K_i`` into ``q``;
    the gateway takes ``ya`` when ``q.Rec.val`` equals the seeded guard
    literal. ``snd`` sends ``m`` to the next pool's ``rd`` (the last pool
    sends to the black-box pool ``env``).

    With *bounded_oracle* the oracle is bounded at FANOUT_ORACLE_DEPTH steps
    and its outcome set is every set of that many firings from the initial
    state; without it the full exploration must yield the one fired set.
    """
    rng = random.Random(f"fanout:{seed}:{index}:{pools}x{width}")
    all_pools, objects, behaviors, message_flows = [], [], {}, []
    node_ids, task_names, edges = [], {}, []
    fired: set[str] = set()
    final: dict[tuple[str, str], object] = {}
    for i in range(pools):
        p = f"p{i}"
        ids = {k: f"{p}_{k}" for k in ("s", "sp", "jn", "rd", "gw", "ya", "yb", "mg", "snd", "e")}
        workers = [f"{p}_w{k:02d}" for k in range(1, width + 1)]
        values = [_literal(rng) for _ in workers]
        slot = rng.randrange(1, width + 1)
        read_value = values[slot - 1]
        branch = rng.choice("AB")
        guard_value = read_value if branch == "A" else _literal(rng) + "-x"
        q, r, m = f"{p}_q", f"{p}_r", f"{p}_m"
        nodes = [
            _node(ids["s"], "Start", "start_event_none"),
            _node(ids["sp"], f"Fan {i}", "gateway_parallel"),
            _node(ids["jn"], f"Gather {i}", "gateway_parallel"),
            _node(ids["gw"], f"Route {i}", "gateway_exclusive_data"),
            _node(ids["mg"], f"Merge {i}", "gateway_exclusive_data"),
            _node(ids["e"], "End", "end_event"),
        ]
        tasks = {ids["rd"]: f"Lookup {i}", ids["ya"]: f"Accept {i}", ids["yb"]: f"Reject {i}", ids["snd"]: f"Notify {i}"}
        tasks.update({w: f"Record {i}.{k}" for k, w in enumerate(workers, 1)})
        nodes += [_node(t, name, "task") for t, name in tasks.items()]
        task_names.update(tasks)
        node_ids += [n["id"] for n in nodes]
        flows = [_flow(f"{p}_fs", ids["s"], ids["sp"])]
        for k, w in enumerate(workers, 1):
            flows.append(_flow(f"{p}_fa{k:02d}", ids["sp"], w))
            flows.append(_flow(f"{p}_fb{k:02d}", w, ids["jn"]))
            behaviors[w] = {
                "store_actions": [
                    {
                        "action": "insert",
                        "store": "st",
                        "entity": "Rec",
                        "assignments": {"pool": str(i), "slot": str(k), "val": _quote(values[k - 1])},
                    }
                ]
            }
        flows += [
            _flow(f"{p}_fj", ids["jn"], ids["rd"]),
            _flow(f"{p}_fr", ids["rd"], ids["gw"]),
            _flow(f"{p}_fga", ids["gw"], ids["ya"], guard=f"{q}.Rec.val = {_quote(guard_value)}"),
            _flow(f"{p}_fgb", ids["gw"], ids["yb"]),
            _flow(f"{p}_fam", ids["ya"], ids["mg"], [(r, "output")]),
            _flow(f"{p}_fbm", ids["yb"], ids["mg"], [(r, "output")]),
            _flow(f"{p}_fm", ids["mg"], ids["snd"], [(r, "input")]),
            _flow(f"{p}_fe", ids["snd"], ids["e"]),
        ]
        edges += [(f["source"], f["target"]) for f in flows]
        data_flows = [{"id": f"{p}_df", "source": "st", "target": ids["rd"], "object": q}]
        all_pools.append(_pool(p, f"Lane {i}", nodes, flows, data_flows))
        objects += [
            _object(q, [("Rec.pool", "number"), ("Rec.slot", "number"), ("Rec.val", "string")], "st"),
            _object(r, [("br", "string")]),
            _object(m, [("br", "string"), ("val", "string")]),
        ]
        behaviors[ids["rd"]] = {
            "store_actions": [
                {
                    "action": "read",
                    "store": "st",
                    "entity": "Rec",
                    "object": q,
                    "filter": f"Rec.pool = {i} and Rec.slot = {slot}",
                }
            ]
        }
        behaviors[ids["ya"]] = {"effects": [{"target": f"{r}.br", "expr": "'A'"}]}
        behaviors[ids["yb"]] = {"effects": [{"target": f"{r}.br", "expr": "'B'"}]}
        behaviors[ids["snd"]] = {
            "effects": [
                {"target": f"{m}.br", "expr": f"{r}.br"},
                {"target": f"{m}.val", "expr": f"{q}.Rec.val"},
            ]
        }
        last = i == pools - 1
        message_flows.append(
            _flow(
                f"{p}_mf",
                ids["snd"],
                "env" if last else f"p{i + 1}_rd",
                [(m, "output")] if last else [(m, "output"), (m, "input")],
            )
        )
        taken = ids["ya"] if branch == "A" else ids["yb"]
        fired |= {ids["sp"], ids["jn"], ids["rd"], ids["gw"], taken, ids["mg"], ids["snd"], ids["e"]}
        fired |= set(workers)
        final[(q, "Rec.val")] = read_value
        final[(q, "Rec.slot")] = slot
        final[(r, "br")] = branch
        final[(m, "br")] = branch
        final[(m, "val")] = read_value
    all_pools.append({"id": "env", "name": "Environment", "nodes": [], "sequence_flows": [], "explicit_data_flows": []})
    store = {
        "id": "st",
        "name": "Records",
        "icon": "database",
        "entities": [
            {
                "name": "Rec",
                "fields": [
                    {"name": "pool", "vtype": "number"},
                    {"name": "slot", "vtype": "number"},
                    {"name": "val", "vtype": "string"},
                ],
            }
        ],
        "scope": "diagram",
    }
    diagram_id = f"fanout_{seed}_{index}_{pools}x{width}"
    text = _document(
        diagram_id, all_pools, stores=[store], objects=objects, message_flows=message_flows, behaviors=behaviors
    )
    fired_set = frozenset(fired)
    steps = pools * (width + 8)
    if bounded_oracle:
        oracle_steps, outcomes = FANOUT_ORACLE_DEPTH, _fanout_prefixes(pools, width)
    else:
        oracle_steps, outcomes = steps + 10, {fired_set}
    return Model(
        name=diagram_id,
        text=text,
        node_ids=sorted(node_ids),
        task_names=task_names,
        flow_edges=edges,
        status="completed",
        steps=steps,
        fired=fired_set,
        final_values=final,
        oracle=True,
        oracle_max_steps=oracle_steps,
        oracle_outcomes=outcomes,
        gating_check=True,
    )


def _fanout_prefixes(pools: int, width: int) -> set[frozenset[str]]:
    """Fired sets after two firings: initially only the parallel splits are
    enabled; a fired split enables its pool's writers."""
    splits = [f"p{i}_sp" for i in range(pools)]
    out = {frozenset({a, b}) for a in splits for b in splits if a != b}
    for i, s in enumerate(splits):
        out |= {frozenset({s, f"p{i}_w{k:02d}"}) for k in range(1, width + 1)}
    return out


# ---------------------------------------------------------------------------
# desk: the committed fixtures


# Simulate exit codes that follow from what a fixture exemplifies; every
# other command, and simulate on every other fixture, exits 0.
DESK_SIMULATE_EXITS = {
    # task A needs y, which only the downstream task B produces
    "deadlock": 3,
    # the sub-process input o rides the none start's flow; a none start binds no data
    "patterns/p10": 3,
    "patterns/p11": 3,
    # t1 waits on a message from the black-box environment, which never sends
    "patterns/p17": 3,
    # t2 needs o on f2, but t1 only reads o from a store and outputs nothing
    "patterns/p31": 3,
    # message start needs object o and the fixture gives no start inputs
    "patterns/p21": 1,
    "patterns/p38": 1,
    # mapping m1 copies a.x, which no behavior ever assigns
    "patterns/p32": 1,
    "patterns/p33": 1,
    "validator/good_v3": 1,
    # the gateway guard reads o.v, which no behavior ever assigns
    "patterns/p40": 1,
}

# Fixtures whose validation reports a warning (V9 is the only warning rule).
DESK_WARNINGS = {"validator/bad_v9": "V9 warning"}


def _walk_nodes(nodes: list) -> list[dict]:
    out = []
    for n in nodes:
        out.append(n)
        out += _walk_nodes(n.get("children", []))
    return out


def desk_models(fixtures: Path) -> list[Model]:
    """Every fixture that is meant to validate and has nodes. ``bad_v1`` ..
    ``bad_v8`` exist to fail a rule and are left out; ``bad_v9`` fails only
    the warning rule V9 and stays."""
    models = []
    for path in sorted(fixtures.rglob("*.bpdmn.json")):
        key = path.relative_to(fixtures).as_posix().removesuffix(".bpdmn.json")
        if key.startswith("validator/bad_v") and key != "validator/bad_v9":
            continue
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        nodes = [n for pool in doc.get("pools", []) for n in _walk_nodes(pool.get("nodes", []))]
        if not nodes:
            continue
        exit_code = DESK_SIMULATE_EXITS.get(key, 0)
        pattern = key.removeprefix("patterns/p").removeprefix("_") if key.startswith("patterns/") else None
        models.append(
            Model(
                name=key,
                text=text,
                path=path,
                node_ids=sorted(n["id"] for n in nodes),
                flow_edges=[
                    (f["source"], f["target"]) for pool in doc["pools"] for f in pool.get("sequence_flows", [])
                ],
                exits={"simulate": exit_code},
                status={0: "completed", 3: "deadlocked"}.get(exit_code),
                patterns_expected={pattern} if pattern else set(),
                validate_first_line=DESK_WARNINGS.get(key, "ok"),
                oracle=exit_code in (0, 3),
            )
        )
    return models


def workload_models(workload: str, seed: int, root: Path) -> list[Model]:
    if workload == "desk":
        return desk_models(root / "fixtures")
    if workload == "chain":
        return [chain_model(seed, i) for i in range(CHAIN_MODELS)]
    if workload == "fanout":
        pools, width = FANOUT_SHAPE
        models = [fanout_model(seed, i, pools, width, bounded_oracle=True) for i in range(FANOUT_MODELS)]
        for m in models:
            m.simulate_args = ["--policy", "random", "--seed", str(seed)]
        return models
    if workload == "interleave":
        return [fanout_model(seed, i, p, w) for i, (p, w) in enumerate(INTERLEAVE_SHAPES)]
    raise ValueError(f"unknown workload {workload!r}")
