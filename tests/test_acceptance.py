"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its time budget, and
prints a single ``CRITERION n: PASS/FAIL`` line directly to the terminal
(bypassing pytest capture) so the suite's verdict is readable at a glance.
"""

from __future__ import annotations

import functools
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bpdmn import patterns, simulator, validator
from bpdmn.codegen_bpel import to_bpel
from bpdmn.codegen_xpdl import to_xpdl
from bpdmn.format import ParseError, parse_diagram, serialize_diagram

from conftest import FIXTURES, load
from randgen import fuzz_input, random_diagram

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _console(request):
    # remember pytest's capture manager so verdict lines reach the terminal
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line: str):
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _report(number: int, description: str, started: float, budget: float | None):
    elapsed = time.perf_counter() - started
    ok = budget is None or elapsed <= budget
    _emit(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {description}")
    if budget is not None:
        assert elapsed <= budget, f"time budget exceeded: {elapsed:.2f}s > {budget}s"


def _fail(number: int, description: str, exc: BaseException):
    _emit(f"CRITERION {number}: FAIL {description} -- {exc}")


def _criterion(number: int, description: str, budget: float | None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                _fail(number, description, exc)
                raise
            _report(number, description, started, budget)

        return wrapper

    return decorate


# -- criterion 1: BPEL fragments of the travel model ------------------------


@_criterion(1, "travel BPEL contains the credit-card fragments", 1.0)
def test_criterion_1_travel_bpel(travel):
    root = ET.fromstring(to_bpel(travel)[0])

    variables = {
        v.get("name"): v.get("messageType")
        for v in root.find("variables")
        if v.get("messageType")
    }
    assert variables["input"] == "input"
    assert variables["request"] == "doCreditCardCheckingRequest"

    assign = root.find(".//assign[@name='dm1']")
    assert assign is not None
    copies = assign.findall("copy")
    assert len(copies) == 2
    assert {(c.find("from").get("variable"), c.find("from").get("part"),
             c.find("to").get("variable"), c.find("to").get("part")) for c in copies} == {
        ("input", "cardNumber", "request", "cardNumber"),
        ("input", "cardType", "request", "cardType"),
    }

    invoke = root.find(".//invoke[@name='Check Credit Card']")
    assert invoke is not None
    assert invoke.get("inputVariable") == "request"
    assert invoke.get("outputVariable") == "response"


# -- criterion 2: XPDL fragments of the eco model ---------------------------


@_criterion(2, "eco XPDL contains the device data fragments", 1.0)
def test_criterion_2_eco_xpdl(eco):
    root = ET.fromstring(to_xpdl(eco)[0])

    field = root.find("DataFields/DataField[@Id='OracleDB.Device.deviceID']")
    assert field is not None and field.get("Name") == "deviceID"
    assert field.find("DataType/BasicType").get("Type") == "STRING"

    data_object = root.find("DataObjects/DataObject[@Id='ECO_Data']")
    assert data_object is not None
    refs = {f.get("Id") for f in data_object.findall("DataFields/DataField")}
    assert {"Device.deviceID", "Device.description"} <= refs

    activity = root.find(".//Activity[@Name='Check ECO Data']")
    assert activity is not None
    inputs = {i.get("ArtifactId") for i in activity.findall("InputSets/InputSet/Input")}
    outputs = {o.get("ArtifactId") for o in activity.findall("OutputSets/OutputSet/Output")}
    assert "ECO_Data" in inputs and "Checked_Data" in outputs
    assert "ECO_Data.Device.deviceID" in [p.text for p in activity.iter("ActualParameter")]

    assignment = activity.find("Assignments/Assignment")
    assert assignment is not None
    assert assignment.find("Target").text == "Input.device"
    assert assignment.find("Expression").text == "ECO_Data.Device.deviceID"


# -- criterion 3: capability matrix fidelity --------------------------------

_P, _S, _U = "+/-", "+", "-"
EXPECTED_MATRIX: dict[str, tuple[str, str]] = {
    "1": (_S, _S), "2": (_S, _S), "3": (_U, _U), "4": (_P, _S), "5": (_S, _S),
    "6": (_U, _U), "7": (_U, _S), "8": (_U, _S), "9": (_S, _S), "10": (_S, _S),
    "11": (_S, _S), "12": (_U, _S), "13": (_U, _S), "14": (_U, _S), "15": (_S, _S),
    "16": (_S, _S), "17": (_S, _S), "18": (_S, _S), "19": (_U, _S), "20": (_U, _S),
    "21": (_U, _S), "22": (_U, _S), "23": (_U, _S), "24": (_U, _S), "25": (_U, _S),
    "26": (_U, _S), "27": (_S, _S), "28": (_S, _S), "29": (_P, _S), "30": (_U, _S),
    "31": (_S, _S), "32": (_P, _S), "33": (_P, _S), "34": (_S, _S), "35": (_U, _U),
    "36": (_S, _S), "37": (_U, _U), "38": (_S, _S), "39": (_S, _S), "40": (_S, _S),
    "structure": (_U, _S),
    "explicit_data_flow": (_P, _S),
    "data_control_flow": (_P, _S),
    "process_data_store": (_U, _S),
}


@_criterion(3, "capability matrix matches the expected 44-row table exactly", None)
def test_criterion_3_matrix():
    actual = {
        key: (a.symbol, b.symbol) for key, (a, b) in patterns.capability_matrix().items()
    }
    assert actual == EXPECTED_MATRIX


# -- criterion 4: execution semantics ---------------------------------------


@_criterion(4, "data-aware execution of the travel and eco scenarios", 5.0)
def test_criterion_4_semantics(travel, eco):
    checks = {"check_hotel", "check_car", "check_flight"}

    valid = simulator.run(travel)
    assert valid.status == "completed"
    assert checks <= valid.fired_nodes()
    assert len(valid.state.stores["arch_db"]) == 1

    bad_inputs = {k: dict(v) for k, v in travel.start_inputs.items()}
    bad_inputs["input"]["cardNumber"] = "00000000"
    invalid = simulator.run(travel, start_inputs=bad_inputs)
    assert invalid.status == "completed"
    assert invalid.fired_nodes() & checks == set()
    assert "arch_db" not in invalid.state.stores

    fail_inputs = {k: dict(v) for k, v in eco.start_inputs.items()}
    fail_inputs["ECO_Request"]["deviceID"] = "D999"
    failure = simulator.run(eco, start_inputs=fail_inputs)
    assert failure.status == "completed"
    assert "m_process" not in failure.fired_nodes()

    for seed in range(100):
        diagram = travel if seed % 2 == 0 else eco
        result = simulator.run(diagram, policy="random", seed=seed)
        assert result.status == "completed"
        assert simulator.check_data_gating(result.trace, diagram) == []


# -- criterion 5: exhaustive interleaving oracle ----------------------------


@_criterion(5, "scheduler agrees with the exhaustive interleaving oracle", 30.0)
def test_criterion_5_oracle():
    for name in ("direct", "shared_store", "global_store"):
        diagram = load(f"handoff/{name}.bpdmn.json")
        assert len(diagram.index.nodes) <= 8
        assert all(n.kind.startswith(("task", "start", "end")) for n in diagram.index.nodes.values())
        oracle = simulator.explore_interleavings(diagram)
        assert oracle, "oracle found no complete runs"
        for policy, seed in [("smallest", 0)] + [("random", s) for s in range(25)]:
            result = simulator.run(diagram, policy=policy, seed=seed)
            assert result.status == "completed"
            assert frozenset(result.fired_nodes()) in oracle


# -- criterion 6: validation rule coverage ----------------------------------


@_criterion(6, "every rule has passing and failing fixtures; example models clean", None)
def test_criterion_6_validation():
    cases = 0
    for i in range(1, 10):
        rule = f"V{i}"
        good = validator.validate(load(f"validator/good_v{i}.bpdmn.json"))
        assert not any(d.rule == rule for d in good)
        assert not validator.has_errors(good)
        bad = validator.validate(load(f"validator/bad_v{i}.bpdmn.json"))
        assert any(d.rule == rule for d in bad), f"bad_v{i} does not trip {rule}"
        cases += 2
    assert cases >= 18
    for name in ("travel.bpdmn.json", "eco.bpdmn.json"):
        assert not validator.has_errors(validator.validate(load(name)))


# -- criterion 7: serialization robustness ----------------------------------


@_criterion(7, "1000 random diagrams round-trip; 10000 fuzz inputs survive", 60.0)
def test_criterion_7_robustness():
    for seed in range(1000):
        text = serialize_diagram(random_diagram(seed))
        assert serialize_diagram(parse_diagram(text)) == text
    for seed in range(10_000):
        try:
            parse_diagram(fuzz_input(seed))
        except ParseError:
            pass  # rejection is fine; crashing is not


# -- criterion 8: pattern exemplars -----------------------------------------


@_criterion(8, "each supported pattern has a detecting exemplar; empty model has none", None)
def test_criterion_8_exemplars():
    fixture_files = sorted(Path(FIXTURES, "patterns").glob("*.bpdmn.json"))
    assert len(fixture_files) == 40
    for path in fixture_files:
        stem = path.name.split(".")[0]
        key = stem[1:] if stem[1].isdigit() else stem[2:]
        report = patterns.analyze(load(f"patterns/{path.name}"))
        assert report.instances[key], f"{path.name}: no instance of pattern {key}"
    empty = patterns.analyze(load("empty.bpdmn.json"))
    assert all(not w for w in empty.instances.values())
