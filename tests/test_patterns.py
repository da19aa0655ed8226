from __future__ import annotations

from pathlib import Path

import pytest

from bpdmn.patterns import (
    PATTERNS,
    InvalidDiagramError,
    Support,
    analyze,
    capability_matrix,
    render_matrix,
)

from conftest import FIXTURES, load

PATTERN_FIXTURES = sorted(Path(FIXTURES, "patterns").glob("*.bpdmn.json"))
NO_DETECTOR = {p.key for p in PATTERNS if p.detector is None}


def _key_of(path: Path) -> str:
    stem = path.name.split(".")[0]  # p1 / p_structure
    return stem[1:] if stem[1].isdigit() else stem[2:]


def test_matrix_has_44_rows_in_pattern_order():
    matrix = capability_matrix()
    assert len(matrix) == 44
    assert list(matrix) == [p.key for p in PATTERNS]


def test_matrix_totals():
    matrix = capability_matrix()
    bpdmn = [b for _, b in matrix.values()]
    assert bpdmn.count(Support.SUPPORTED) == 40
    assert bpdmn.count(Support.PARTIAL) == 0
    assert {k for k, (_, b) in matrix.items() if b is Support.UNSUPPORTED} == {"3", "6", "35", "37"}
    bpmn_partial = {k for k, (a, _) in matrix.items() if a is Support.PARTIAL}
    assert bpmn_partial == {"4", "29", "32", "33", "explicit_data_flow", "data_control_flow"}


def test_patterns_without_a_detector_are_the_unsupported_rows():
    matrix = capability_matrix()
    assert NO_DETECTOR == {
        k for k, (_, b) in matrix.items() if b is Support.UNSUPPORTED
    }


@pytest.mark.parametrize("path", PATTERN_FIXTURES, ids=lambda p: p.name.split(".")[0])
def test_each_exemplar_yields_its_pattern(path):
    key = _key_of(path)
    report = analyze(load(f"patterns/{path.name}"))
    assert report.instances[key], f"no instance of pattern {key}"


def test_empty_diagram_yields_nothing():
    report = analyze(load("empty.bpdmn.json"))
    assert all(not w for w in report.instances.values())


def test_unsupported_patterns_never_report(travel, eco):
    for d in (travel, eco):
        report = analyze(d)
        for key in NO_DETECTOR:
            assert report.instances[key] == []


def test_analyze_rejects_invalid_diagrams():
    with pytest.raises(InvalidDiagramError):
        analyze(load("validator/bad_v1.bpdmn.json"))


def test_travel_exercises_expected_rows(travel):
    report = analyze(travel)
    for key in ("1", "9", "27", "28", "32", "33", "34", "36", "40", "structure"):
        assert report.instances[key], f"travel should exercise pattern {key}"
    assert ("f03", "gw") in report.instances["40"]


def test_eco_exercises_store_and_message_rows(eco):
    report = analyze(eco)
    for key in ("7", "14", "21", "30", "32", "38", "process_data_store"):
        assert report.instances[key], f"eco should exercise pattern {key}"


def test_witnesses_are_deduplicated_and_sorted(travel):
    report = analyze(travel)
    for found in report.instances.values():
        assert len(found) == len(set(found))
        assert found == sorted(found)
        assert all(isinstance(w, tuple) and list(w) == sorted(w) for w in found)


def test_each_detector_documents_its_predicate_in_one_sentence():
    for pattern in PATTERNS:
        if pattern.detector is None:
            continue
        doc = (pattern.detector.__doc__ or "").strip()
        assert doc and doc.endswith(".")


def test_render_matrix_layout():
    text = render_matrix()
    lines = text.splitlines()
    assert lines[0].endswith("BPMN  BPDMN")
    widths = {len(line) for line in lines if line and not line.startswith("[")}
    assert len(widths) == 1  # fixed-width rows
    assert "[data visibility]" in text
    assert sum(line.count("+") for line in lines) >= 40
