from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bpdmn.expr import parse_expr
from bpdmn.format import serialize_diagram
from bpdmn.model import Diagram, Node, Pool, SequenceFlow

from conftest import FIXTURES, fixture_text, run_cli

ROOT = Path(__file__).resolve().parent.parent


def fx(relpath: str) -> str:
    return str(FIXTURES / relpath)


def test_validate_ok():
    result = run_cli("validate", fx("travel.bpdmn.json"))
    assert result.code == 0
    assert result.out.strip() == "ok"


def test_validate_reports_errors_with_exit_1():
    result = run_cli("validate", fx("validator/bad_v3.bpdmn.json"))
    assert result.code == 1
    assert result.out.startswith("V3 error m1:")


def test_validate_json_mode():
    result = run_cli("validate", "--json", fx("validator/bad_v7.bpdmn.json"))
    assert result.code == 1
    payload = json.loads(result.out)
    assert {d["rule"] for d in payload} == {"V7"}


def test_missing_file_exit_2():
    result = run_cli("validate", "/nonexistent.bpdmn.json")
    assert result.code == 2


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.bpdmn.json"
    bad.write_text("{not json")
    result = run_cli("validate", str(bad))
    assert result.code == 2
    assert "error:" in result.err


def test_translate_bpel_to_stdout():
    result = run_cli("translate", fx("travel.bpdmn.json"), "--to", "bpel")
    assert result.code == 0
    assert '<invoke name="Check Credit Card"' in result.out


def test_translate_xpdl_to_file(tmp_path):
    out = tmp_path / "eco.xpdl"
    result = run_cli("translate", fx("eco.bpdmn.json"), "--to", "xpdl", "-o", str(out))
    assert result.code == 0
    assert 'DataField Id="OracleDB.Device.deviceID"' in out.read_text()


def test_translate_invalid_model_exit_1():
    result = run_cli("translate", fx("validator/bad_v1.bpdmn.json"), "--to", "bpel")
    assert result.code == 1


def test_simulate_completed():
    result = run_cli("simulate", fx("travel.bpdmn.json"))
    assert result.code == 0
    assert "status: completed" in result.out


def test_simulate_deadlock_exit_3():
    result = run_cli("simulate", fx("deadlock.bpdmn.json"))
    assert result.code == 3


def test_simulate_step_limit_exit_4():
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--max-steps", "2")
    assert result.code == 4


def test_simulate_max_steps_0_fires_nothing_and_exits_4():
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--max-steps", "0", "--json")
    assert result.code == 4
    assert json.loads(result.out)["fired"] == []


def test_simulate_set_override_changes_route():
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", "input.cardNumber=00000000", "--json")
    payload = json.loads(result.out)
    assert payload["status"] == "completed"
    assert "check_hotel" not in payload["fired"]


@pytest.mark.parametrize("value", ["[1,2]", '{"a":1}'])
def test_simulate_set_refuses_a_value_start_inputs_refuse(value):
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", f"input.cardNumber={value}")
    assert result.code == 2
    assert "error: bad --set" in result.err


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 5000], ids=["nan", "inf", "-inf", "1e400", "5000-digits"]
)
def test_simulate_set_refuses_a_number_start_inputs_refuse(value):
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", f"input.cardNumber={value}")
    assert result.code == 2
    assert result.out == ""
    assert result.err.startswith("error: bad --set") and result.err.count("\n") == 1


def test_simulate_set_refuses_an_undeclared_object():
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", "nosuch.v=1")
    assert result.code == 2
    assert "error: bad --set 'nosuch.v=1', the model declares no object 'nosuch'" in result.err


def test_simulate_set_refuses_an_object_no_message_start_produces():
    # plan is declared, but init would never bind it from a start input
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", "plan.nosuch=1", "--json")
    assert result.code == 2
    assert "error: bad --set 'plan.nosuch=1', no message start event produces 'plan'" in result.err


def test_simulate_set_without_a_value_exits_2():
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", "novar")
    assert (result.code, result.out) == (2, "")
    assert result.err == "error: bad --set 'novar', expected OBJ.VAR=VALUE\n"


@pytest.mark.parametrize("key", ["input.", "input..x", "input.a..b", "input.a."])
def test_simulate_set_refuses_a_variable_path_with_an_empty_name(key):
    # no expression can name such a path, and a document's start inputs refuse it
    result = run_cli("simulate", fx("travel.bpdmn.json"), "--set", f"{key}=1")
    assert (result.code, result.out) == (2, "")
    assert result.err == f"error: bad --set '{key}=1', VAR must be names joined by '.', none empty\n"


def test_simulate_stuck_exclusive_gateway_exits_1(tmp_path):
    # x has only false guards and no default flow: no branch can be taken
    nodes = [Node("s", "s", "start_event_none"), Node("x", "x", "gateway_exclusive_data"), Node("e", "e", "end_event")]
    flows = [SequenceFlow("f1", "s", "x"), SequenceFlow("f2", "x", "e", guard=parse_expr("false"))]
    model = tmp_path / "stuck.bpdmn.json"
    model.write_text(serialize_diagram(Diagram("stuck", pools=[Pool("p", "P", nodes, flows)])), encoding="utf-8")
    assert run_cli("validate", str(model)).code == 0
    result = run_cli("simulate", str(model))
    assert (result.code, result.out) == (1, "")
    assert result.err == "error: gateway x: no true guard and no default flow\n"


def test_simulate_refuses_an_invalid_model_with_one_error_line():
    result = run_cli("simulate", fx("validator/bad_v1.bpdmn.json"))
    assert (result.code, result.out) == (1, "")
    assert result.err == "error: diagram has validation errors: V1 error o: object is never produced (no source)\n"


def test_simulate_seeded_random_policy():
    args = ["simulate", fx("eco.bpdmn.json"), "--policy", "random", "--seed", "3", "--json"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.out == second.out


def test_patterns_matrix():
    result = run_cli("patterns", "--matrix")
    assert result.code == 0
    assert "BPMN  BPDMN" in result.out


def test_patterns_matrix_json_on_a_model_is_one_document():
    result = run_cli("patterns", fx("travel.bpdmn.json"), "--matrix", "--json")
    assert result.code == 0
    document = json.loads(result.out)
    assert list(document) == ["matrix", "instances"]
    assert document["matrix"] == json.loads(run_cli("patterns", "--matrix", "--json").out)
    assert document["instances"] == json.loads(run_cli("patterns", fx("travel.bpdmn.json"), "--json").out)
    invalid = run_cli("patterns", fx("validator/bad_v1.bpdmn.json"), "--matrix", "--json")
    assert (invalid.code, invalid.out) == (1, "")


def test_patterns_on_model():
    result = run_cli("patterns", fx("patterns/p40.bpdmn.json"))
    assert result.code == 0
    assert any(line.startswith("40:") for line in result.out.splitlines())


def test_patterns_invalid_model_exit_1():
    result = run_cli("patterns", fx("validator/bad_v1.bpdmn.json"))
    assert result.code == 1


def test_patterns_without_a_model_or_matrix_exits_2():
    result = run_cli("patterns")
    assert (result.code, result.out) == (2, "")
    assert result.err == "error: provide a model file or --matrix\n"


def test_render_hide_data():
    result = run_cli("render", fx("travel.bpdmn.json"), "--hide-data")
    assert result.code == 0
    assert result.out.startswith('digraph "travel"')
    assert "cylinder" not in result.out


def test_render_to_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.dot"
    result = run_cli("render", fx("travel.bpdmn.json"), "-o", str(target))
    assert (result.code, result.out) == (2, "")
    assert result.err.startswith(f"error: cannot write {target}: ") and result.err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [["validate"], ["translate", "--to", "xpdl"], ["render"]])
def test_non_string_document_id_exit_2(tmp_path, command):
    doc = json.loads(fixture_text("travel.bpdmn.json"))
    doc["id"] = 5
    model = tmp_path / "travel.bpdmn.json"
    model.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    result = run_cli(command[0], str(model), *command[1:])
    assert result.code == 2
    assert "'id' of document must be a string" in result.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["validate"],
        ["validate", "--js", fx("travel.bpdmn.json")],
        ["validate", fx("travel.bpdmn.json"), fx("eco.bpdmn.json")],
        ["translate", fx("travel.bpdmn.json")],
        ["translate", fx("travel.bpdmn.json"), "--to", "wsdl"],
        ["simulate", fx("travel.bpdmn.json"), "--max-steps", "many"],
        ["simulate", fx("travel.bpdmn.json"), "--max-steps", "-1"],
        ["simulate", fx("travel.bpdmn.json"), "--policy", "fifo"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "no-model",
        "abbreviated-option",
        "extra-argument",
        "no-target",
        "unknown-target",
        "non-integer",
        "negative-max-steps",
        "unknown-policy",
    ],
)
def test_usage_error_exit_2(argv):
    result = run_cli(*argv)
    assert result.code == 2
    assert result.out == ""
    assert "usage: bpdmn" in result.err


def test_help_exits_0_and_names_every_command():
    result = run_cli("--help")
    assert result.code == 0
    for command in ("validate", "translate", "simulate", "patterns", "render"):
        assert command in result.out
    result = run_cli("simulate", "--help")
    assert result.code == 0
    assert "[default: 1000]" in " ".join(result.out.split())


def test_only_the_first_call_builds_a_parser(monkeypatch):
    run_cli("validate", fx("travel.bpdmn.json"))
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli("render", fx("travel.bpdmn.json")).code == 0
    assert run_cli("validate", "--js", fx("travel.bpdmn.json")).code == 2
    assert built == []


def _travel_with_escape_in_a_name(tmp_path) -> Path:
    doc = json.loads(fixture_text("travel.bpdmn.json"))
    doc["pools"][0]["nodes"][0]["name"] = "a\u001b[31mred\u001b[0m"
    model = tmp_path / "travel.bpdmn.json"
    model.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return model


def test_stdout_carries_the_text_of_dash_o(tmp_path):
    # stdout is a pipe here, not a terminal: it gets the layer's text unchanged
    model = _travel_with_escape_in_a_name(tmp_path)
    out = tmp_path / "out.dot"
    written = subprocess.run(
        [sys.executable, "-m", "bpdmn.cli", "render", str(model), "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        timeout=60,
    )
    printed = subprocess.run(
        [sys.executable, "-m", "bpdmn.cli", "render", str(model)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        timeout=60,
    )
    assert written.returncode == printed.returncode == 0
    assert b"\x1b[31m" in printed.stdout
    assert printed.stdout == out.read_bytes()


def test_stdout_closed_by_its_reader_exits_1_quietly():
    # as in `bpdmn render model | head -1`, with the reader gone before the write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bpdmn.cli", "render", fx("travel.bpdmn.json")],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_no_source_imports_click():
    importers = []
    for directory in ("src/bpdmn", "tests", "scripts"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "click" for name in names):
                    importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert importers == []


def test_version_from_a_checkout():
    src = ROOT / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "bpdmn.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "bpdmn, version 0.1.0\n"


# Inputs that once ended in a traceback, malformed XML or exponential time.
# Each model runs through every subcommand that reads a model (and the
# unwritable -o case through both writers), in a subprocess with a timeout:
# the exit code is the documented one and no traceback is printed.
MODEL_COMMANDS = {
    "validate": ["validate"],
    "bpel": ["translate", "--to", "bpel"],
    "xpdl": ["translate", "--to", "xpdl"],
    "simulate": ["simulate"],
    "patterns": ["patterns"],
    "render": ["render"],
}
# an output file in a directory that does not exist
OUTPUT_COMMANDS = {
    "bpel -o": ["translate", "--to", "bpel", "-o", "{missing}"],
    "render -o": ["render", "-o", "{missing}"],
}


def _with_store(**fields) -> bytes:
    """good_v8 (object o carries E.f of its origin store st) with the store's
    entity graph replaced."""
    doc = json.loads(fixture_text("validator/good_v8.bpdmn.json"))
    doc["stores"][0].update(fields)
    return json.dumps(doc, indent=2).encode()


def _chain(child_first: bool) -> bytes:
    """3000 entities, each a child of the one before; the root E has f."""
    names = ["E"] + [f"E{i}" for i in range(1, 3000)]
    entities = [{"name": n, "fields": [{"name": "f", "vtype": "string"}] if n == "E" else []} for n in names]
    links = [{"parent": p, "child": c} for p, c in zip(names, names[1:])]
    return _with_store(entities=entities, generalizations=links[::-1] if child_first else links)


def _ladder(layers: int) -> bytes:
    """Layers of two entities, each a child of both entities of the layer above."""
    entities = [{"name": "E", "fields": [{"name": "f", "vtype": "string"}]}, {"name": "F"}]
    links = []
    for layer in range(1, layers):
        above = [entities[-2]["name"], entities[-1]["name"]]
        for side in "ab":
            entities.append({"name": f"L{layer}{side}", "fields": [{"name": f"g{layer}", "vtype": "string"}]})
            links += [{"parent": p, "child": f"L{layer}{side}"} for p in above]
    return _with_store(entities=entities, generalizations=links)


def _travel_with(name: str) -> bytes:
    doc = json.loads(fixture_text("travel.bpdmn.json"))
    doc["pools"][0]["nodes"][0]["name"] = name
    return json.dumps(doc, indent=2).encode()


def _travel_replacing(old: str, new: str) -> bytes:
    """The travel fixture's text with its one *old* replaced by *new*."""
    text = fixture_text("travel.bpdmn.json")
    assert text.count(old) == 1
    return text.replace(old, new).encode()


ALL_OK = dict.fromkeys(MODEL_COMMANDS, 0)
ALL_IO = dict.fromkeys(MODEL_COMMANDS, 2)
HOSTILE_INPUTS = {
    "v4-chain-child-first": (_chain(child_first=True), ALL_OK),
    "v8-chain-parent-first": (_chain(child_first=False), ALL_OK),
    "v8-ladder-30": (_ladder(30), ALL_OK),
    "not-utf8": (b'{"bpdmn": "1.0", "id": "\xff"}', ALL_IO),
    "lone-surrogate": (_travel_with("bad\ud800name"), ALL_IO),
    "xml-illegal-char": (_travel_with("bad\u0001name"), {**ALL_OK, "bpel": 1, "xpdl": 1}),
    "guard-1.2.3": (_travel_replacing('"guard": "response.valid"', '"guard": "1.2.3"'), ALL_IO),
    "start-input-5000-digits": (_travel_replacing('"cardNumber": "12345678"', '"cardNumber": ' + "9" * 5000), ALL_IO),
    "guard-3000-terms": (_travel_replacing('"guard": "response.valid"', '"guard": "' + " or ".join(["response.valid"] * 3000) + '"'), ALL_OK),
    "output-into-missing-directory": (fixture_text("travel.bpdmn.json").encode(), dict.fromkeys(OUTPUT_COMMANDS, 2)),
}


@pytest.mark.parametrize("case", HOSTILE_INPUTS)
def test_hostile_input_exits_as_documented_without_traceback(tmp_path, case):
    data, expected = HOSTILE_INPUTS[case]
    model = tmp_path / "model.bpdmn.json"
    model.write_bytes(data)
    src = ROOT / "src"
    commands = {**MODEL_COMMANDS, **OUTPUT_COMMANDS}
    for command, code in expected.items():
        args = [str(tmp_path / "missing" / "out") if a == "{missing}" else a for a in commands[command]]
        proc = subprocess.run(
            [sys.executable, "-m", "bpdmn.cli", args[0], str(model), *args[1:]],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            encoding="utf-8",
            errors="replace",
            timeout=10,
        )
        assert "Traceback" not in proc.stderr, (command, proc.stderr)
        assert proc.returncode == code, (command, proc.stderr)
        if args[0] == "translate" and code == 0:
            ET.fromstring(proc.stdout.encode())
        if code == 2:
            assert proc.stderr.startswith("error: "), (command, proc.stderr)
