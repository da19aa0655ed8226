from __future__ import annotations

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bpdmn import format as fmt, model
from bpdmn.format import ParseError, parse_diagram, serialize_diagram

from conftest import FIXTURES, fixture_text, run_cli
from randgen import fuzz_input, mutant as _mutant, mutations as _mutations, random_diagram, random_regions

ALL_FIXTURES = sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.bpdmn.json"))


def _dumps(text: str) -> str:
    """*text* decoded and written again by ``json.dumps``, as canonical text."""
    return json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("relpath", ALL_FIXTURES, ids=str)
def test_every_fixture_round_trips(relpath):
    text = fixture_text(str(relpath))
    assert serialize_diagram(parse_diagram(text)) == text
    assert text == _dumps(text)


def test_canonical_output_shape(travel):
    text = serialize_diagram(travel)
    assert text.endswith("\n") and not text.endswith("\n\n")
    doc = json.loads(text)
    assert list(doc)[:2] == ["bpdmn", "id"]
    ids = [o["id"] for o in doc["objects"]]
    assert ids == sorted(ids)
    assert text.splitlines()[1].startswith('  "')  # two-space indentation


def test_mapping_rule_order_is_preserved(travel):
    doc = json.loads(serialize_diagram(travel))
    dm1 = next(m for m in doc["mappings"] if m["id"] == "dm1")
    assert [r["to"] for r in dm1["rules"]] == ["cardNumber", "cardType"]


def test_empty_document_round_trips():
    text = serialize_diagram(model.Diagram("diagram"))
    d = parse_diagram(text)
    assert not d.pools and not d.objects
    assert serialize_diagram(d) == text


def test_an_object_id_with_a_dot_is_refused_where_it_is_declared():
    document = json.loads(serialize_diagram(model.Diagram("diagram")))
    document["objects"] = [{"id": "a.b", "name": "AB"}]
    with pytest.raises(ParseError) as err:
        parse_diagram(json.dumps(document, indent=2))
    (diag,) = err.value.diagnostics
    assert diag.message == "object a.b: an object id may not contain '.'"
    assert diag.span.line == json.dumps(document, indent=2).splitlines().index('      "id": "a.b",') + 1


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_diagram('{"bpdmn": "1.0",\n  "pools": [,]}')
    diag = err.value.diagnostics[0]
    assert diag.span.line == 2
    assert "malformed" in diag.message


def test_missing_version_is_an_error():
    with pytest.raises(ParseError, match="format version"):
        parse_diagram('{"pools": [], "stores": [], "objects": [], "mappings": [], "message_flows": []}')


def test_unknown_key_strict_vs_lenient():
    text = json.loads(serialize_diagram(model.Diagram("diagram")))
    text["mystery"] = 1
    raw = json.dumps(text)
    with pytest.raises(ParseError, match="unknown key 'mystery'"):
        parse_diagram(raw)


def test_unknown_node_kind_is_located():
    raw = fixture_text("travel.bpdmn.json").replace('"kind": "task"', '"kind": "jobby"', 1)
    with pytest.raises(ParseError) as err:
        parse_diagram(raw)
    diag = err.value.diagnostics[0]
    assert "jobby" in diag.message
    assert diag.span.line > 1  # best-effort location points into the document


def test_dangling_reference_is_a_parse_error():
    raw = fixture_text("handoff/direct.bpdmn.json").replace('"object": "x"', '"object": "zz"')
    with pytest.raises(ParseError):
        parse_diagram(raw)


def test_behaviors_and_start_inputs_round_trip(eco):
    text = serialize_diagram(eco)
    again = parse_diagram(text)
    assert set(again.behaviors) == set(eco.behaviors)
    b = again.behaviors["m_check"]
    assert len(b.store_actions) == 1 and b.store_actions[0].object == "ECO_Data"
    assert again.start_inputs == eco.start_inputs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_diagram_round_trip(seed):
    d = random_diagram(seed)
    text = serialize_diagram(d)
    assert serialize_diagram(parse_diagram(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_fuzz_inputs_never_crash(seed):
    try:
        parse_diagram(fuzz_input(seed))
    except ParseError:
        pass


def _document() -> dict:
    """A small valid document holding every list-valued key of the schema."""
    return {
        "bpdmn": "1.0",
        "pools": [
            {
                "id": "p",
                "name": "P",
                "nodes": [
                    {"id": "s", "name": "s", "kind": "start_event_none"},
                    {"id": "sp", "name": "sp", "kind": "sub_process", "children": [], "local_stores": []},
                ],
                "sequence_flows": [{"id": "f", "source": "s", "target": "sp", "attachments": []}],
                "explicit_data_flows": [],
            },
            {"id": "q", "name": "Q", "nodes": [], "sequence_flows": [], "explicit_data_flows": []},
        ],
        "stores": [
            {
                "id": "st",
                "name": "St",
                "entities": [{"name": "E", "fields": []}],
                "relationships": [],
                "generalizations": [],
            }
        ],
        "objects": [{"id": "o", "name": "O", "variables": []}],
        "mappings": [{"id": "m", "source_object": "o", "target_object": "o", "rules": [{"from": "1", "to": "v"}]}],
        "message_flows": [{"id": "mf", "source": "sp", "target": "q", "attachments": []}],
        "behaviors": {"sp": {"effects": [], "store_actions": []}},
    }


# (path to the holder, list-valued key)
LIST_VALUED = [
    ((), "pools"),
    ((), "stores"),
    ((), "objects"),
    ((), "mappings"),
    ((), "message_flows"),
    (("pools", 0), "nodes"),
    (("pools", 0), "sequence_flows"),
    (("pools", 0), "explicit_data_flows"),
    (("pools", 0, "nodes", 1), "children"),
    (("pools", 0, "nodes", 1), "local_stores"),
    (("pools", 0, "sequence_flows", 0), "attachments"),
    (("stores", 0), "entities"),
    (("stores", 0), "relationships"),
    (("stores", 0), "generalizations"),
    (("stores", 0, "entities", 0), "fields"),
    (("objects", 0), "variables"),
    (("mappings", 0), "rules"),
    (("message_flows", 0), "attachments"),
    (("behaviors", "sp"), "effects"),
    (("behaviors", "sp"), "store_actions"),
]


def _with_number_at(path, key) -> str:
    doc = _document()
    holder = doc
    for step in path:
        holder = holder[step]
    holder[key] = 5
    return json.dumps(doc, indent=2)


def _list_valued_id(case) -> str:
    path, key = case
    return ".".join([*(str(p) for p in path), key])


def test_list_valued_document_parses():
    parse_diagram(json.dumps(_document()))


@pytest.mark.parametrize("value", [5, ["x"], None, True])
def test_non_string_document_id_is_a_parse_error(value):
    doc = _document()
    doc["id"] = value
    with pytest.raises(ParseError, match="'id' of document must be a string"):
        parse_diagram(json.dumps(doc))


@pytest.mark.parametrize("path, key", LIST_VALUED, ids=[_list_valued_id(c) for c in LIST_VALUED])
def test_non_list_value_is_a_parse_error(path, key):
    with pytest.raises(ParseError, match=f"'{key}' of .* must be a list"):
        parse_diagram(_with_number_at(path, key))


@pytest.mark.parametrize("path, key", LIST_VALUED, ids=[_list_valued_id(c) for c in LIST_VALUED])
def test_cli_rejects_non_list_value_with_exit_2(path, key, tmp_path):
    model = tmp_path / "model.bpdmn.json"
    model.write_text(_with_number_at(path, key), encoding="utf-8")
    result = run_cli("validate", str(model))
    assert result.code == 2
    assert "must be a list" in result.err and "Traceback" not in result.err


def _nested_document(depth: int) -> str:
    """A document whose one node is *depth* sub-processes deep; written as
    text, because encoding it with `json` would recurse as deep."""
    head = "".join(f'{{"id": "n{i}", "name": "n", "kind": "sub_process", "children": [' for i in range(depth))
    node = head + '{"id": "leaf", "name": "leaf", "kind": "task"}' + "]}" * depth
    doc = _document()
    doc["pools"][0]["nodes"].append({"id": "@"})
    return json.dumps(doc).replace('{"id": "@"}', node)


def _start_input(doc: dict, path: str) -> None:
    """Make the start event a message start that outputs o, and give o a
    start input at *path*."""
    pool = doc["pools"][0]
    pool["nodes"][0]["kind"] = "start_event_message"
    pool["sequence_flows"][0]["attachments"] = [{"object": "o", "direction": "output"}]
    doc["start_inputs"] = {"o": {path: 1}}


# (description, edit of the document, expected message)
BAD_VALUES = [
    ("instances-abc", lambda d: d["behaviors"]["sp"].update(instances="abc"), "'instances' of behavior of sp must be an integer"),
    ("instances-list", lambda d: d["behaviors"]["sp"].update(instances=[1]), "'instances' of behavior of sp must be an integer"),
    (
        "assignments-list",
        lambda d: d["behaviors"]["sp"]["store_actions"].append(
            {"action": "insert", "store": "st", "entity": "E", "assignments": [1]}
        ),
        "'assignments' of insert of sp must be an object",
    ),
    ("origin-store-list", lambda d: d["objects"][0].update(origin_store=["st"]), "'origin_store' of object o must be a string or null"),
    ("origin-store-object", lambda d: d["objects"][0].update(origin_store={"id": "st"}), "'origin_store' of object o must be a string or null"),
    ("url-number", lambda d: d["objects"][0].update(url=5), "'url' of object o must be a string or null"),
    ("node-name-number", lambda d: d["pools"][0]["nodes"][0].update(name=5), "'name' of node s must be a string"),
    ("pool-name-null", lambda d: d["pools"][0].update(name=None), "'name' of pool p must be a string"),
    (
        "start-input-list",
        lambda d: d.update(start_inputs={"o": {"cardType": ["VISA"]}}),
        "'cardType' of start inputs of o must be a string, number, boolean or null",
    ),
    # each of these was read with str(), bool() or int(), or skipped, and so rewritten
    ("pool-id-number", lambda d: d["pools"][0].update(id=5), "'id' of pool must be a string"),
    ("node-id-null", lambda d: d["pools"][0]["nodes"][0].update(id=None), "'id' of node of pool p must be a string"),
    ("node-kind-null", lambda d: d["pools"][0]["nodes"][0].update(kind=None), "'kind' of node s must be a string"),
    ("node-kind-empty", lambda d: d["pools"][0]["nodes"][0].update(kind=""), "node s: unknown kind ''"),
    (
        "attachment-optional-string",
        lambda d: d["pools"][0]["sequence_flows"][0]["attachments"].append(
            {"object": "o", "direction": "input", "optional": "no"}
        ),
        "'optional' of attachment of sequence flow f must be a boolean",
    ),
    (
        "variable-name-number",
        lambda d: d["objects"][0]["variables"].append({"name": 7, "vtype": "string"}),
        "'name' of variable of object o must be a string",
    ),
    ("store-collapsed-string", lambda d: d["stores"][0].update(collapsed="false"), "'collapsed' of store st must be a boolean"),
    ("relationship-number", lambda d: d["stores"][0].update(relationships=[5]), "relationship of store st must be an object"),
    (
        "relationship-unknown-key",
        lambda d: d["stores"][0].update(relationships=[{"name": "r", "left": "E", "right": "E", "via": "x"}]),
        "unknown key 'via' in relationship of store st",
    ),
    ("generalization-string", lambda d: d["stores"][0].update(generalizations=["x"]), "generalization of store st must be an object"),
    ("instances-float", lambda d: d["behaviors"]["sp"].update(instances=2.7), "'instances' of behavior of sp must be an integer"),
    ("instances-true", lambda d: d["behaviors"]["sp"].update(instances=True), "'instances' of behavior of sp must be an integer"),
    ("instances-string", lambda d: d["behaviors"]["sp"].update(instances="3"), "'instances' of behavior of sp must be an integer"),
    # raised the model's own error instead of a ParseError
    ("scope-without-node", lambda d: d["stores"][0].update(scope="sub_process:"), "sub-process scope requires a node id"),
    # parsed and kept, though nothing could ever run or read them
    ("behavior-unknown-node", lambda d: d["behaviors"].update(nosuch={"instances": 3}), "behavior of nosuch: unknown node"),
    ("behavior-of-a-pool", lambda d: d["behaviors"].update(q={}), "behavior of q: unknown node"),
    ("start-input-unknown-object", lambda d: d.update(start_inputs={"nosuch": {"v": 1}}), "start input nosuch: unknown object"),
    ("start-input-not-produced", lambda d: d.update(start_inputs={"o": {"v": 1}}), "start input o: no message start event produces it"),
    # parsed, and bound a variable that no expression can name
    ("start-input-empty-path", lambda d: _start_input(d, ""), "start input o: invalid variable path ''"),
    ("start-input-empty-segment", lambda d: _start_input(d, "v..w"), "start input o: invalid variable path 'v..w'"),
    # parsed and validated clean, then deadlocked or failed the run
    (
        "effect-unknown-object",
        lambda d: d["behaviors"]["sp"]["effects"].append({"target": "nosuch.v", "expr": "1"}),
        "behavior of sp: unknown object 'nosuch'",
    ),
    # validated clean, then failed the run at a later node: an empty path
    # segment is refused as in a variable name
    (
        "effect-target-empty-path",
        lambda d: d["behaviors"]["sp"]["effects"].append({"target": "o.", "expr": "1"}),
        "effect on o: invalid target path ''",
    ),
    (
        "effect-target-empty-segment",
        lambda d: d["behaviors"]["sp"]["effects"].append({"target": "o.v..w", "expr": "1"}),
        "effect on o: invalid target path 'v..w'",
    ),
    (
        "store-action-unknown-store",
        lambda d: d["behaviors"]["sp"]["store_actions"].append(
            {"action": "insert", "store": "nosuch", "entity": "E", "assignments": {}}
        ),
        "behavior of sp: unknown store 'nosuch'",
    ),
    (
        "store-action-unknown-entity",
        lambda d: d["behaviors"]["sp"]["store_actions"].append(
            {"action": "read", "store": "st", "entity": "Nosuch", "object": "o"}
        ),
        "behavior of sp: unknown entity 'Nosuch' of store st",
    ),
    (
        "read-unknown-object",
        lambda d: d["behaviors"]["sp"]["store_actions"].append(
            {"action": "read", "store": "st", "entity": "E", "object": "nosuch"}
        ),
        "behavior of sp: unknown object 'nosuch'",
    ),
    # parsed and written back, while the simulator ran one instance
    ("instances-zero", lambda d: d["behaviors"]["sp"].update(instances=0), "behavior: instances must be at least 1, not 0"),
    ("instances-negative", lambda d: d["behaviors"]["sp"].update(instances=-3), "behavior: instances must be at least 1, not -3"),
    # a start input that is not a finite number broke parse(serialize(d)) == d,
    # and one of more digits than int() reads raised ValueError
    *[
        (
            f"start-input-{name}",
            lambda d, value=value: d.update(start_inputs={"o": {"v": value}}),
            "'v' of start inputs of o must be a string, number, boolean or null",
        )
        for name, value in [
            ("nan", math.nan),
            ("infinity", math.inf),
            ("minus-infinity", -math.inf),
            ("1e400", "<bare 1e400>"),
        ]
    ],
    ("start-input-5000-digits", lambda d: d.update(start_inputs={"o": {"v": "<bare " + "9" * 5000 + ">"}}), "integer of more than"),
]


def _bad_document(edit) -> str:
    """`_document()` after *edit*; a string `<bare N>` in it is written as the
    bare JSON number N, which `json.dumps` cannot write when N is `1e400` or
    holds 5000 digits."""
    doc = _document()
    edit(doc)
    return re.sub(r'"<bare ([^>]*)>"', r"\1", json.dumps(doc, indent=2))


@pytest.mark.parametrize("edit, message", [c[1:] for c in BAD_VALUES], ids=[c[0] for c in BAD_VALUES])
def test_bad_behavior_value_is_a_parse_error(edit, message):
    with pytest.raises(ParseError, match=message):
        parse_diagram(_bad_document(edit))


@pytest.mark.parametrize("depth", [400, 900])
def test_deep_nesting_is_a_parse_error(depth):
    parse_diagram(_nested_document(20))
    with pytest.raises(ParseError, match="document nested too deeply"):
        parse_diagram(_nested_document(depth))


@pytest.mark.parametrize(
    "text, message",
    [(_bad_document(c[1]), c[2]) for c in BAD_VALUES] + [(_nested_document(900), "document nested too deeply")],
    ids=[c[0] for c in BAD_VALUES] + ["nested-900"],
)
def test_cli_rejects_bad_document_with_exit_2(text, message, tmp_path):
    model = tmp_path / "model.bpdmn.json"
    model.write_text(text, encoding="utf-8")
    result = run_cli("validate", str(model))
    assert result.code == 2
    assert message in result.err and "Traceback" not in result.err


# (description, fixture, edit of its document, the one expected message)
ONE_FAULT = [
    (
        "node-kind-null",
        "travel.bpdmn.json",
        lambda d: d["pools"][0]["nodes"][0].update(kind=None),
        "'kind' of node archive must be a string",
    ),
    (
        "variable-name-number",
        "travel.bpdmn.json",
        lambda d: d["objects"][0]["variables"][0].update(name=7),
        "'name' of variable of object carRequest must be a string",
    ),
    (
        "attachment-direction-missing",
        "travel.bpdmn.json",
        lambda d: d["pools"][0]["sequence_flows"][0]["attachments"][0].pop("direction"),
        "missing key 'direction' in attachment of sequence flow f01",
    ),
    (
        "effect-target-number",
        "eco.bpdmn.json",
        lambda d: d["behaviors"]["m_check"]["effects"][0].update(target=5),
        "'target' of effect of m_check must be a string",
    ),
]


@pytest.mark.parametrize("name, edit, message", [c[1:] for c in ONE_FAULT], ids=[c[0] for c in ONE_FAULT])
def test_a_field_that_fails_to_read_gives_one_diagnostic(name, edit, message):
    """The element holding the field is not built, so the stand-in the field
    read as cannot fail a check of its own."""
    doc = json.loads(fixture_text(name))
    edit(doc)
    with pytest.raises(ParseError) as info:
        parse_diagram(json.dumps(doc, indent=2))
    assert [d.message for d in info.value.diagnostics] == [message]


def _check_effect(doc: dict) -> dict:
    return doc["behaviors"]["m_check"]["effects"][0]


# (description, edit of eco's document, every expected diagnostic): a value
# that fails to convert is reported only when no earlier field of its element
# failed, is located at the value when the element has no string read before
# it, and does not fail its element, so a fault of the enclosing one shows
MANY_FAULTS = [
    (
        "store-icon-and-scope",
        lambda d: d["stores"][0].update(icon=5, scope="bogus"),
        ["109:21: 'icon' of store OracleDB must be a string"],
    ),
    (
        "effect-target-and-instances",
        lambda d: (_check_effect(d).update(target="nodot"), d["behaviors"]["m_check"].update(instances=0)),
        [
            "399:21: effect target 'nodot' must be object.path",
            "10:17: behavior: instances must be at least 1, not 0",
        ],
    ),
    (
        "effect-target-and-unknown-id",
        lambda d: _check_effect(d).update(id="zzz", target="nodot"),
        ["3:3: unknown key 'id' in effect of m_check", "399:21: effect target 'nodot' must be object.path"],
    ),
]


@pytest.mark.parametrize("edit, expected", [c[1:] for c in MANY_FAULTS], ids=[c[0] for c in MANY_FAULTS])
def test_faults_in_two_fields_give_the_located_diagnostics(edit, expected):
    doc = json.loads(fixture_text("eco.bpdmn.json"))
    edit(doc)
    with pytest.raises(ParseError) as info:
        parse_diagram(json.dumps(doc, indent=2))
    assert [str(d) for d in info.value.diagnostics] == expected


# (description, map of eco's document to add the entries to, the diagnostic):
# a map's entry named "id" is no element id, so a sibling's fault is located
# at the sibling's own key, not at the first text match of the entry's value
# ("Order_ID" first appears at 56:25, in a pool's attachment)
MAP_FAULTS = [
    (
        "start-inputs",
        lambda d: d["start_inputs"]["ECO_Request"],
        {"zz": [1]},
        "468:7: 'zz' of start inputs of ECO_Request must be a string, number, boolean or null",
    ),
    (
        "insert-assignments",
        lambda d: d["behaviors"]["t_submit"]["store_actions"][0]["assignments"],
        {"zz": 5},
        "457:13: 'zz' of insert of t_submit must be an expression string",
    ),
]


@pytest.mark.parametrize("entries, wrong, expected", [c[1:] for c in MAP_FAULTS], ids=[c[0] for c in MAP_FAULTS])
def test_a_map_value_is_located_at_its_key_not_at_an_entry_named_id(entries, wrong, expected):
    doc = json.loads(fixture_text("eco.bpdmn.json"))
    entries(doc).update({"id": "Order_ID", **wrong})
    with pytest.raises(ParseError) as info:
        parse_diagram(json.dumps(doc, indent=2))
    assert [str(d) for d in info.value.diagnostics] == [expected]


# ---------------------------------------------------------------------------
# Mutation fuzzing: every single-point change of a few valid documents


def _every_key_document() -> dict:
    """`_document()` plus an element holding each optional key of the schema."""
    doc = _document()
    doc["id"] = "every-key"
    pool = doc["pools"][0]
    # a message start producing o, the object of the start inputs
    pool["nodes"][0]["kind"] = "start_event_message"
    pool["sequence_flows"][0]["attachments"] = [{"object": "o", "direction": "output"}]
    pool["nodes"][1]["local_stores"] = ["st"]
    pool["nodes"] += [
        {"id": "t", "name": "t", "kind": "task", "multi_instance": True},
        {"id": "g", "name": "g", "kind": "gateway_exclusive_data", "condition": "o.v = 1"},
    ]
    attachment = {"object": "o", "direction": "input", "optional": True}
    pool["sequence_flows"].append(
        {"id": "f2", "source": "sp", "target": "t", "guard": "true", "attachments": [attachment]}
    )
    pool["explicit_data_flows"].append({"id": "d", "source": "st", "target": "t", "object": "o", "optional": True})
    doc["stores"][0].update(
        icon="folder",
        relationships=[{"name": "r", "left": "E", "right": "E"}],
        generalizations=[{"parent": "E", "child": "F"}],
        scope="sub_process:sp",
        collapsed=True,
    )
    doc["objects"].append(
        {
            "id": "o2",
            "name": "O2",
            "stereotype": "document",
            "physicality": "physical",
            "variables": [{"name": "v", "vtype": "number"}],
            "url": "u",
            "state": "new",
            "origin_store": "st",
        }
    )
    doc["behaviors"]["t"] = {
        "effects": [{"target": "o.v", "expr": "1"}],
        "store_actions": [
            {"action": "insert", "store": "st", "entity": "E", "assignments": {"x": "1"}},
            {"action": "read", "store": "st", "entity": "E", "object": "o", "filter": "true"},
        ],
        "instances": 2,
    }
    doc["start_inputs"] = {"o": {"v": 1}}
    return doc


# each expression key of the every-key document -> where it is set
EXPRESSION_KEYS = {
    "guard": lambda d, text: d["pools"][0]["sequence_flows"][1].update(guard=text),
    "condition": lambda d, text: d["pools"][0]["nodes"][3].update(condition=text),
    "filter": lambda d, text: d["behaviors"]["t"]["store_actions"][1].update(filter=text),
    "from": lambda d, text: d["mappings"][0]["rules"][0].update({"from": text}),
    "expr": lambda d, text: d["behaviors"]["t"]["effects"][0].update(expr=text),
    "assignment": lambda d, text: d["behaviors"]["t"]["store_actions"][0]["assignments"].update(x=text),
}
# numbers the expression tokenizer once read with int() or float() unchecked
HOSTILE_NUMBERS = {"1e5": True, "2E+3": True, "1.2.3": False, "9..": False, "1.0e999": False, "²": False, "9" * 5000: False}


@pytest.mark.parametrize("key", EXPRESSION_KEYS)
@pytest.mark.parametrize("text", HOSTILE_NUMBERS, ids=lambda text: text if len(text) < 10 else f"{len(text)}-digits")
def test_a_hostile_number_in_an_expression_parses_or_is_a_parse_error(key, text):
    doc = _every_key_document()
    EXPRESSION_KEYS[key](doc, text)
    try:
        canonical = serialize_diagram(parse_diagram(json.dumps(doc)))
    except ParseError as exc:
        assert not HOSTILE_NUMBERS[text] and "bad expression" in str(exc)
        return
    assert HOSTILE_NUMBERS[text]
    assert serialize_diagram(parse_diagram(canonical)) == canonical


@pytest.mark.parametrize("guard", ["o.v = 0.00001", "o.v = 10000000000000000.0", "o.v = -1.5e-300"])
def test_a_float_in_a_guard_is_written_as_text_that_reads_back(guard):
    doc = _every_key_document()
    EXPRESSION_KEYS["guard"](doc, guard)
    # the canonical text lists elements sorted, so compare diagrams read from it
    diagram = parse_diagram(serialize_diagram(parse_diagram(json.dumps(doc))))
    assert parse_diagram(serialize_diagram(diagram)) == diagram


FUZZ_DOCUMENTS = ["every-key", "travel.bpdmn.json", "eco.bpdmn.json"]


def _fuzz_cases(name: str) -> tuple[dict, list]:
    """The document and its mutations: all of them for the every-key
    document, every third one for a fixture, which keeps two or three of the
    seven mutations of each path (seven and three are coprime)."""
    if name == "every-key":
        doc = _every_key_document()
        return doc, list(_mutations(doc))
    doc = json.loads(fixture_text(name))
    return doc, list(_mutations(doc))[::3]


@pytest.mark.parametrize("cls", list(fmt._TABLES), ids=lambda cls: cls.__name__)
def test_table_keys_fill_the_fields_of_their_class_in_order(cls):
    """`_Reader.build` passes the fields by position, in the table's order."""
    table = fmt._TABLES[cls]
    assert [f for key in table.keys for f in key.fields] == list(cls._fields)


def _elements(table, data: dict):
    """(table, object) for the object *data* that *table* reads and for each
    element within it."""
    yield table, data
    for key in table.keys:
        value = data.get(key.name)
        if key.name == "behaviors":
            for spec in value.values():
                yield from _elements(fmt._TABLES[model.TaskBehavior], spec)
        elif key.name == "store_actions":
            for action in value:
                yield from _elements(fmt._ACTIONS[action["action"]], action)
        elif key.kind.of is not None and value:
            for item in value:
                yield from _elements(fmt._TABLES[key.kind.of], item)


def test_every_key_is_read_as_a_scalar_a_list_or_a_map():
    """No key has a codec of its own: both passes read each one through the
    generic code of its kind's shape."""
    assert not {"read", "fast"} & set(fmt._Kind._fields)
    kinds = [key.kind for table in fmt._TABLES.values() for key in table.keys]
    while kinds:
        kind = kinds.pop()
        shapes = [kind.check is not None, kind.of is not None, kind.values is not None]
        assert shapes.count(True) == 1, kind
        if isinstance(kind.values, fmt._Kind):
            kinds.append(kind.values)


def test_every_key_document_holds_every_key_of_every_table():
    held = {(table.cls, key) for table, data in _elements(fmt._DOCUMENT, _every_key_document()) for key in data}
    keys = {(table.cls, name) for table in fmt._TABLES.values() for name in table.names}
    assert keys <= held, sorted(f"{cls.__name__}.{name}" for cls, name in keys - held)


def test_readme_names_every_key_of_the_schema():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Model format")[1].split("\n## ")[0]
    named = set(re.findall(r"`([^`]+)`", section))
    keys = {name for table in fmt._TABLES.values() for name in table.names}
    assert keys <= named, sorted(keys - named)


def test_mutations_cover_every_key_the_parser_reads(monkeypatch):
    read: set[str] = set()

    class Logged(dict):
        """A decoded object that logs each key the parser looks up in it."""

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            read.add(key)
            return super().__contains__(key)

    decode = SimpleNamespace(
        loads=lambda text: json.loads(text, object_hook=Logged), JSONDecodeError=json.JSONDecodeError
    )
    monkeypatch.setattr(fmt, "json", decode)
    mutated = set()
    for name in FUZZ_DOCUMENTS:
        doc, mutations = _fuzz_cases(name)
        parse_diagram(json.dumps(doc))
        mutated |= {path[-1] for path, _ in mutations}
    assert read and read <= mutated, sorted(read - mutated)

    # the fast pass refuses a Logged object, so the keys it reads are taken
    # from the source of each table's fast pass, compiled afresh
    source: list[str] = []
    compile_ = fmt._compile
    monkeypatch.setattr(fmt, "_compile", lambda *args: source.extend(args[2]) or compile_(*args))
    for table in fmt._TABLES.values():
        fmt._Element.fast.func(table)
    fast_read = set(re.findall(r"(?:get\(|data\[)'([^']+)'", "\n".join(source)))
    assert fast_read and fast_read <= mutated, sorted(fast_read - mutated)


@pytest.mark.parametrize("name", FUZZ_DOCUMENTS)
def test_every_mutant_is_refused_or_parses_to_a_fixpoint(name, tmp_path):
    doc, mutations = _fuzz_cases(name)
    refused = []
    for path, value in mutations:
        text = json.dumps(_mutant(doc, path, value))
        try:
            canonical = serialize_diagram(parse_diagram(text))
        except ParseError:
            refused.append(text)
            continue
        assert serialize_diagram(parse_diagram(canonical)) == canonical, (path, value)
        # a number, string or boolean the parser accepts is written back as is
        # (null, [] and {} may stand for an absent key, which is not written)
        if isinstance(path[-1], str) and isinstance(value, (int, str)):
            assert f"{json.dumps(path[-1])}: {json.dumps(value)}" in canonical, (path, value)
    assert refused
    model = tmp_path / "mutant.bpdmn.json"
    for text in refused[::50]:
        model.write_text(text, encoding="utf-8")
        result = run_cli("validate", str(model))
        assert result.code == 2, result.err
        assert "error: " in result.err and "Traceback" not in result.err


def _travel_text(edit, ensure_ascii: bool = True) -> str:
    doc = json.loads(fixture_text("travel.bpdmn.json"))
    edit(doc)
    return json.dumps(doc, indent=2, ensure_ascii=ensure_ascii)


LONE_SURROGATES = [
    ("high", lambda d: d["pools"][0].update(name="bad\ud800name")),
    ("low", lambda d: d["pools"][0].update(name="\udc00")),
    ("pair-reversed", lambda d: d["objects"][0].update(name="\ude00\ud83d")),
    ("in-a-key", lambda d: d.update(behaviors={"\udbff": {"instances": 2}})),
]


@pytest.mark.parametrize("edit", [c[1] for c in LONE_SURROGATES], ids=[c[0] for c in LONE_SURROGATES])
def test_lone_surrogate_is_a_parse_error(edit):
    for ensure_ascii in (True, False):  # escaped, or raw in the text handed to the parser
        with pytest.raises(ParseError, match="holds a lone surrogate"):
            parse_diagram(_travel_text(edit, ensure_ascii))


def test_lone_surrogate_is_located():
    text = _travel_text(LONE_SURROGATES[0][1])
    with pytest.raises(ParseError) as info:
        parse_diagram(text)
    line = next(n for n, row in enumerate(text.splitlines(), 1) if "bad\\ud800name" in row)
    assert str(info.value).startswith(f"{line}:")


def test_escaped_surrogate_pair_round_trips():
    text = _travel_text(lambda d: d["pools"][0].update(name="smile \U0001f600"))
    assert "\\ud83d\\ude00" in text
    canonical = serialize_diagram(parse_diagram(text))
    assert '"smile \U0001f600"' in canonical
    assert serialize_diagram(parse_diagram(canonical)) == canonical


# ---------------------------------------------------------------------------
# The two passes: the fast pass builds a diagram without diagnostics or gives
# up, and the diagnostic reader runs only on a document it gave up on.


def _passes(text: str) -> tuple[model.Diagram | None, model.Diagram | None]:
    """What the fast pass and the diagnostic reader each make of the JSON
    document *text*: its diagram, or ``None`` when the pass refuses it."""
    data = json.loads(text)
    try:
        fast = fmt._DOCUMENT.fast(fmt._Exprs(), data, 0)
    except fmt._GIVE_UP:
        fast = None
    try:
        read = fmt._read(text, data)
    except ParseError:
        read = None
    return fast, read


def _assert_passes_agree(text: str) -> None:
    """A document the fast pass accepts, the reader accepts as an equal
    diagram; a document the reader refuses, the fast pass refuses."""
    fast, read = _passes(text)
    if fast is not None:
        assert read == fast, text
    if read is None:
        assert fast is None, text


@pytest.mark.parametrize("seed", range(8))
def test_the_fast_pass_accepts_only_what_the_reader_accepts_alike(seed):
    doc = json.loads(serialize_diagram(random_diagram(seed)))
    _assert_passes_agree(json.dumps(doc))
    for path, value in _mutations(doc):
        _assert_passes_agree(json.dumps(_mutant(doc, path, value)))


@pytest.mark.parametrize("name", FUZZ_DOCUMENTS)
def test_the_fast_pass_agrees_with_the_reader_on_every_mutant(name):
    doc, mutations = _fuzz_cases(name)
    assert None not in _passes(json.dumps(doc))
    for path, value in mutations:
        _assert_passes_agree(json.dumps(_mutant(doc, path, value)))


def test_the_fast_pass_agrees_with_the_reader_on_fuzz_inputs():
    for seed in range(300):
        text = fuzz_input(seed)
        try:
            json.loads(text)
        except ValueError:
            continue  # refused before either pass runs
        _assert_passes_agree(text)


# (path to the holder, list-valued key) of the lists a null must not empty
NULL_LISTS = [(("pools", 0, "sequence_flows", 0), "attachments"), (("pools", 0), "sequence_flows"), ((), "objects")]


@pytest.mark.parametrize("path, key", NULL_LISTS, ids=[key for _, key in NULL_LISTS])
def test_a_null_list_is_refused_by_both_passes_not_read_as_absent(path, key):
    doc = _document()
    holder = doc
    for step in path:
        holder = holder[step]
    holder[key] = None
    text = json.dumps(doc)
    assert _passes(text) == (None, None)
    with pytest.raises(ParseError, match=f"'{key}' of .* must be a list"):
        parse_diagram(text)


def _same_guard_document(guard: str) -> str:
    """`_document()` with a second flow, and *guard* on both flows."""
    doc = _document()
    pool = doc["pools"][0]
    pool["nodes"].append({"id": "t", "name": "t", "kind": "task"})
    pool["sequence_flows"][0]["guard"] = guard
    pool["sequence_flows"].append({"id": "f2", "source": "sp", "target": "t", "guard": guard})
    return json.dumps(doc, indent=2)


def test_each_expression_text_is_parsed_once_per_document(monkeypatch):
    parse_expr, parsed = fmt.parse_expr, []
    monkeypatch.setattr(fmt, "parse_expr", lambda text: parsed.append(text) or parse_expr(text))
    text = _same_guard_document("o.v = 1")
    diagram = parse_diagram(text)
    assert sorted(parsed) == ["1", "o.v = 1"]
    first, second = diagram.pools[0].sequence_flows
    assert first.guard == second.guard == parse_expr("o.v = 1")
    # nothing parsed outlives the call: a second parse parses each text again
    parse_diagram(text)
    assert sorted(parsed) == ["1", "1", "o.v = 1", "o.v = 1"]


def test_a_bad_expression_on_two_flows_gives_two_located_diagnostics():
    with pytest.raises(ParseError) as info:
        parse_diagram(_same_guard_document("o.v = = 1"))
    diagnostics = info.value.diagnostics
    assert [d.message.split(":")[0] for d in diagnostics] == [
        "bad expression in guard of flow f",
        "bad expression in guard of flow f2",
    ]
    assert all(d.span.line > 1 for d in diagnostics)


# ---------------------------------------------------------------------------
# The writer: its text is what json.dumps(indent=2) writes for the same data
# (for the fixtures, see test_every_fixture_round_trips), and it reads back as
# the diagram it was written from.


def _unordered(value):
    """*value* with each element a tuple of its compared fields and each
    list sorted, so that diagrams differing only in the order of their lists,
    which the writer sorts, compare equal."""
    if hasattr(value, "_fields") and not isinstance(value, tuple):  # a model element, not an expression
        return (type(value).__name__, *(_unordered(getattr(value, name)) for name in value._fields))
    if isinstance(value, list):
        return sorted(map(_unordered, value), key=repr)
    if isinstance(value, dict):
        return {name: _unordered(item) for name, item in value.items()}
    return value


@pytest.mark.parametrize("generate", [random_diagram, random_regions], ids=lambda generate: generate.__name__)
def test_a_written_random_diagram_is_json_dumps_text_and_reads_back_equal(generate):
    for seed in range(200):
        diagram = generate(seed)
        text = serialize_diagram(diagram)
        assert text == _dumps(text), seed
        assert _unordered(parse_diagram(text)) == _unordered(diagram), seed


# quotes, a backslash, control characters, U+2028 and text outside ASCII
HOSTILE = "\u00dcn\u00efc\u00f8d\u00e9 \"q\" \\ \x01\t\n\x1f \u2028 \u20ac\U0001f600"


def _every_key_diagram() -> model.Diagram:
    """A diagram built in code that sets each optional key away from its
    default, with names and start inputs at the edges of JSON text. A start
    input that no document can hold (``NaN``, the infinities) is refused by
    the diagram too (``tests/test_model.py``)."""
    m, expr = model, fmt.parse_expr
    nodes = [
        m.Node("s", "Start", "start_event_message"),
        m.Node("sp", HOSTILE, "sub_process", children=[m.Node("c", "C", "task")], local_stores=["st2", "st"]),
        m.Node("g", "G", "gateway_exclusive_data", condition=expr("o.v = 1")),
        m.Node("t", "T", "task", multi_instance=True),
        m.Node("e", "E", "end_event"),
    ]
    flows = [
        m.SequenceFlow("f1", "s", "sp", attachments=[m.ObjectAttachment("o", "output")]),
        m.SequenceFlow("f2", "sp", "g"),
        m.SequenceFlow("f3", "g", "t", [m.ObjectAttachment("o", "input", optional=True)], expr("o.v > 2.5")),
        m.SequenceFlow("f4", "t", "e"),
    ]
    data_flows = [m.ExplicitDataFlow("d", "st", "t", "o", optional=True)]
    store = m.DataStore(
        "st",
        "St",
        icon="folder",
        entities=[m.Entity("F"), m.Entity("E", [m.Variable("x", "number"), m.Variable("n")])],
        relationships=[m.Relationship("r", "E", "F")],
        generalizations=[m.Generalization("E", "F")],
        scope=m.Scope("sub_process", "sp"),
        collapsed=True,
    )
    objects = [
        m.DataObject("o2", "O2", "document", "physical", [m.Variable("v")], "u", "new", "st"),
        m.DataObject("o", "O", variables=[m.Variable("v", "number")]),
    ]
    behavior = m.TaskBehavior(
        [m.Effect("o", "v", expr("not o.v"))],
        [
            m.StoreInsert("st", "E", {"x": expr("o.v"), "n": expr("'n'")}),
            m.StoreRead("st", "E", "o2", filter=expr("x = 1")),
        ],
        instances=2,
    )
    inputs = {"a": -0.0, "b": 1e300}
    inputs.update({"f": None, "g": True, "h": False, "i": 10**20, HOSTILE: HOSTILE})
    return m.Diagram(
        HOSTILE,
        pools=[m.Pool("p", "P", nodes, flows, data_flows), m.Pool("q", "Q")],
        stores=[m.DataStore("st2", "St2"), store],
        objects=objects,
        mappings=[m.DataMapping("m", "o", "o2", [m.CopyRule(expr("o.v"), "v"), m.CopyRule(expr("'a'"), "w")])],
        message_flows=[m.MessageFlow("mf", "t", "q", [m.ObjectAttachment("o2", "output")])],
        behaviors={"t": behavior, "c": m.TaskBehavior()},
        start_inputs={"o": inputs},
    )


EVERY_KEY_TEXT = """\
{
  "bpdmn": "1.0",
  "id": "\u00dcn\u00efc\u00f8d\u00e9 \\"q\\" \\\\ \\u0001\\t\\n\\u001f \u2028 \u20ac\U0001f600",
  "pools": [
    {
      "id": "p",
      "name": "P",
      "nodes": [
        {
          "id": "e",
          "name": "E",
          "kind": "end_event"
        },
        {
          "id": "g",
          "name": "G",
          "kind": "gateway_exclusive_data",
          "condition": "o.v = 1"
        },
        {
          "id": "s",
          "name": "Start",
          "kind": "start_event_message"
        },
        {
          "id": "sp",
          "name": "\u00dcn\u00efc\u00f8d\u00e9 \\"q\\" \\\\ \\u0001\\t\\n\\u001f \u2028 \u20ac\U0001f600",
          "kind": "sub_process",
          "children": [
            {
              "id": "c",
              "name": "C",
              "kind": "task"
            }
          ],
          "local_stores": [
            "st",
            "st2"
          ]
        },
        {
          "id": "t",
          "name": "T",
          "kind": "task",
          "multi_instance": true
        }
      ],
      "sequence_flows": [
        {
          "id": "f1",
          "source": "s",
          "target": "sp",
          "attachments": [
            {
              "object": "o",
              "direction": "output"
            }
          ]
        },
        {
          "id": "f2",
          "source": "sp",
          "target": "g"
        },
        {
          "id": "f3",
          "source": "g",
          "target": "t",
          "attachments": [
            {
              "object": "o",
              "direction": "input",
              "optional": true
            }
          ],
          "guard": "o.v > 2.5"
        },
        {
          "id": "f4",
          "source": "t",
          "target": "e"
        }
      ],
      "explicit_data_flows": [
        {
          "id": "d",
          "source": "st",
          "target": "t",
          "object": "o",
          "optional": true
        }
      ]
    },
    {
      "id": "q",
      "name": "Q",
      "nodes": [],
      "sequence_flows": [],
      "explicit_data_flows": []
    }
  ],
  "stores": [
    {
      "id": "st",
      "name": "St",
      "icon": "folder",
      "entities": [
        {
          "name": "E",
          "fields": [
            {
              "name": "n",
              "vtype": "string"
            },
            {
              "name": "x",
              "vtype": "number"
            }
          ]
        },
        {
          "name": "F",
          "fields": []
        }
      ],
      "relationships": [
        {
          "name": "r",
          "left": "E",
          "right": "F"
        }
      ],
      "generalizations": [
        {
          "parent": "E",
          "child": "F"
        }
      ],
      "scope": "sub_process:sp",
      "collapsed": true
    },
    {
      "id": "st2",
      "name": "St2",
      "icon": "database",
      "entities": [],
      "scope": "diagram"
    }
  ],
  "objects": [
    {
      "id": "o",
      "name": "O",
      "stereotype": "generic",
      "variables": [
        {
          "name": "v",
          "vtype": "number"
        }
      ]
    },
    {
      "id": "o2",
      "name": "O2",
      "stereotype": "document",
      "physicality": "physical",
      "variables": [
        {
          "name": "v",
          "vtype": "string"
        }
      ],
      "url": "u",
      "state": "new",
      "origin_store": "st"
    }
  ],
  "mappings": [
    {
      "id": "m",
      "source_object": "o",
      "target_object": "o2",
      "rules": [
        {
          "from": "o.v",
          "to": "v"
        },
        {
          "from": "'a'",
          "to": "w"
        }
      ]
    }
  ],
  "message_flows": [
    {
      "id": "mf",
      "source": "t",
      "target": "q",
      "attachments": [
        {
          "object": "o2",
          "direction": "output"
        }
      ]
    }
  ],
  "behaviors": {
    "c": {},
    "t": {
      "effects": [
        {
          "target": "o.v",
          "expr": "not o.v"
        }
      ],
      "store_actions": [
        {
          "action": "insert",
          "store": "st",
          "entity": "E",
          "assignments": {
            "n": "'n'",
            "x": "o.v"
          }
        },
        {
          "action": "read",
          "store": "st",
          "entity": "E",
          "object": "o2",
          "filter": "x = 1"
        }
      ],
      "instances": 2
    }
  },
  "start_inputs": {
    "o": {
      "a": -0.0,
      "b": 1e+300,
      "f": null,
      "g": true,
      "h": false,
      "i": 100000000000000000000,
      "\u00dcn\u00efc\u00f8d\u00e9 \\"q\\" \\\\ \\u0001\\t\\n\\u001f \u2028 \u20ac\U0001f600": "\u00dcn\u00efc\u00f8d\u00e9 \\"q\\" \\\\ \\u0001\\t\\n\\u001f \u2028 \u20ac\U0001f600"
    }
  }
}
"""


def test_a_diagram_with_every_key_and_edge_values_is_written_as_its_golden_text():
    text = serialize_diagram(_every_key_diagram())
    assert text == EVERY_KEY_TEXT
    assert text == _dumps(text)


def test_serializing_takes_no_generic_json_writer(monkeypatch):
    def refuse(*args):
        raise AssertionError("the generic JSON writer ran")

    monkeypatch.setattr(fmt, "json_text", refuse)
    monkeypatch.setattr(fmt, "_write_json", refuse)
    for relpath in ALL_FIXTURES:
        text = fixture_text(str(relpath))
        assert serialize_diagram(parse_diagram(text)) == text


def test_a_value_outside_the_schema_type_is_a_type_error_not_a_refused_document():
    diagram = model.Diagram("d", pools=[model.Pool("p", "P", [model.Node(5, "n", "task")])])
    with pytest.raises(TypeError):
        serialize_diagram(diagram)
