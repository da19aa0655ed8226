"""Every committed fixture validates exactly as its path says.

A ``validator/bad_vN`` fixture reports rule VN and nothing else, an error for
V1–V8 and a warning for V9; every other fixture reports nothing. The
fixtures are edited as canonical JSON; ``test_format`` checks that each is a
canonical fixpoint and ``test_patterns`` that each pattern exemplar yields
its row.
"""

from __future__ import annotations

import re

import pytest

from bpdmn import validator

from conftest import FIXTURES, load

PATHS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))


def expected_diagnostics(relpath: str) -> set[tuple[str, str]]:
    bad = re.fullmatch(r"validator/bad_v(\d)\.bpdmn\.json", relpath)
    if bad is None:
        return set()
    return {(f"V{bad[1]}", "warning" if bad[1] == "9" else "error")}


@pytest.mark.parametrize("relpath", PATHS)
def test_fixture_validates_as_its_path_says(relpath):
    reported = {(d.rule, d.severity.value) for d in validator.validate(load(relpath))}
    assert reported == expected_diagnostics(relpath)
