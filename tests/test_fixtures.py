"""The committed fixtures are exactly what ``scripts/gen_fixtures.py`` builds."""

from __future__ import annotations

import importlib.util

from bpdmn import validator
from bpdmn.format import serialize_diagram

from conftest import FIXTURES

GENERATOR = FIXTURES.parent / "scripts" / "gen_fixtures.py"


def _generator():
    spec = importlib.util.spec_from_file_location("gen_fixtures", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_fixtures_match_their_builders():
    built = _generator().all_fixtures()
    committed = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))
    assert sorted(built) == committed
    for relpath, (diagram, expect_valid) in built.items():
        assert serialize_diagram(diagram) == (FIXTURES / relpath).read_text(encoding="utf-8"), relpath
        if expect_valid:
            assert not validator.has_errors(validator.validate(diagram)), relpath
