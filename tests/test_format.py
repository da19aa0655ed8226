from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from bpdmn.cli import main
from bpdmn.format import (
    EMPTY_DOCUMENT,
    ParseError,
    parse_diagram,
    parse_diagram_with_warnings,
    serialize_diagram,
)

from conftest import FIXTURES, fixture_text
from randgen import fuzz_input, random_diagram

ALL_FIXTURES = sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.bpdmn.json"))


@pytest.mark.parametrize("relpath", ALL_FIXTURES, ids=str)
def test_every_fixture_round_trips(relpath):
    text = fixture_text(str(relpath))
    assert serialize_diagram(parse_diagram(text)) == text


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


def test_empty_document_constant_round_trips():
    d = parse_diagram(EMPTY_DOCUMENT)
    assert not d.pools and not d.objects
    assert serialize_diagram(d) == EMPTY_DOCUMENT


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
    text = json.loads(EMPTY_DOCUMENT)
    text["mystery"] = 1
    raw = json.dumps(text)
    with pytest.raises(ParseError, match="unknown key 'mystery'"):
        parse_diagram(raw)
    diagram, warnings = parse_diagram_with_warnings(raw, strict=False)
    assert diagram is not None
    assert any("mystery" in str(w) for w in warnings)


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
    result = CliRunner().invoke(main, ["validate", str(model)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "must be a list" in result.output and "Traceback" not in result.output


def _nested_document(depth: int) -> str:
    """A document whose one node is *depth* sub-processes deep; written as
    text, because encoding it with `json` would recurse as deep."""
    head = "".join(f'{{"id": "n{i}", "name": "n", "kind": "sub_process", "children": [' for i in range(depth))
    node = head + '{"id": "leaf", "name": "leaf", "kind": "task"}' + "]}" * depth
    doc = _document()
    doc["pools"][0]["nodes"].append({"id": "@"})
    return json.dumps(doc).replace('{"id": "@"}', node)


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
]


def _bad_document(edit) -> str:
    doc = _document()
    edit(doc)
    return json.dumps(doc, indent=2)


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
    result = CliRunner().invoke(main, ["validate", str(model)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output and "Traceback" not in result.output
