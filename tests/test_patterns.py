from __future__ import annotations

from pathlib import Path

import pytest

from bpdmn.patterns import (
    PATTERNS,
    UNSUPPORTED_KEYS,
    InvalidDiagramError,
    Support,
    analyze,
    capability_matrix,
    detector_doc,
    render_matrix,
)

from conftest import FIXTURES, load

PATTERN_FIXTURES = sorted(Path(FIXTURES, "patterns").glob("*.bpdmn.json"))


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


def test_unsupported_keys_constant_matches_matrix():
    matrix = capability_matrix()
    assert UNSUPPORTED_KEYS == {
        k for k, (_, b) in matrix.items() if b is Support.UNSUPPORTED
    }


@pytest.mark.parametrize("path", PATTERN_FIXTURES, ids=lambda p: p.name.split(".")[0])
def test_each_exemplar_yields_its_pattern(path):
    key = _key_of(path)
    report = analyze(load(f"patterns/{path.name}"))
    assert report.witnesses(key), f"no instance of pattern {key}"


def test_empty_diagram_yields_nothing():
    report = analyze(load("empty.bpdmn.json"))
    assert all(not w for w in report.instances.values())


def test_unsupported_patterns_never_report(travel, eco):
    for d in (travel, eco):
        report = analyze(d)
        for key in UNSUPPORTED_KEYS:
            assert report.witnesses(key) == []


def test_analyze_rejects_invalid_diagrams():
    with pytest.raises(InvalidDiagramError):
        analyze(load("validator/bad_v1.bpdmn.json"))


def test_travel_exercises_expected_rows(travel):
    report = analyze(travel)
    for key in ("1", "9", "27", "28", "32", "33", "34", "36", "40", "structure"):
        assert report.witnesses(key), f"travel should exercise pattern {key}"
    assert ("f03", "gw") in report.witnesses("40")


def test_eco_exercises_store_and_message_rows(eco):
    report = analyze(eco)
    for key in ("7", "14", "21", "30", "32", "38", "process_data_store"):
        assert report.witnesses(key), f"eco should exercise pattern {key}"


def test_witnesses_are_deduplicated_and_sorted(travel):
    report = analyze(travel)
    for witnesses in report.instances.values():
        assert len(witnesses) == len(set(witnesses))
        assert witnesses == sorted(witnesses)
        assert all(isinstance(w, tuple) and list(w) == sorted(w) for w in witnesses)


def test_detector_doc_is_one_sentence():
    for pattern in PATTERNS:
        if pattern.key in UNSUPPORTED_KEYS:
            continue
        doc = detector_doc(pattern.key)
        assert doc and doc.strip().endswith(".")


def test_render_matrix_layout():
    text = render_matrix()
    lines = text.splitlines()
    assert lines[0].endswith("BPMN  BPDMN")
    widths = {len(line) for line in lines if line and not line.startswith("[")}
    assert len(widths) == 1  # fixed-width rows
    assert "[data visibility]" in text
    assert sum(line.count("+") for line in lines) >= 40
