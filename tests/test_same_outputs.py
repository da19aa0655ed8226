"""``scripts/same_outputs.py`` writes the same digest every time it runs."""

from __future__ import annotations

import importlib.util
import json

from conftest import FIXTURES

SCRIPT = FIXTURES.parent / "scripts" / "same_outputs.py"
MODELS = ["travel.bpdmn.json", "eco.bpdmn.json", "deadlock.bpdmn.json", "handoff/shared_store.bpdmn.json"]


def _script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_reproducible(tmp_path):
    script = _script()
    args = ["--random", "2", *(str(FIXTURES / m) for m in MODELS)]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert script.main([*args, "--out", str(first)]) == 0
    assert script.main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    digest = json.loads(first.read_text(encoding="utf-8"))
    assert sorted(digest) == sorted([f"fixtures/{m}" for m in MODELS] + ["random0", "random1"])
    travel = digest["fixtures/travel.bpdmn.json"]
    assert set(travel) == set(script.COMMANDS) | {"serialize", "explore_interleavings", "refusals"}
    assert {"patterns --matrix", "patterns --matrix --json"} <= set(script.COMMANDS)
    assert travel["serialize"]["text"] == (FIXTURES / "travel.bpdmn.json").read_text(encoding="utf-8")
    assert json.loads(travel["simulate --json"]["stdout"])["status"] == "completed"
    assert digest["fixtures/deadlock.bpdmn.json"]["simulate --json"]["exit"] == 3
    assert travel["explore_interleavings"]["outcomes"]
    assert travel["explore_interleavings"]["states"] > 0
    # refused mutants, with spans that point into the document
    located = [d for refusal in travel["refusals"] for d in refusal["diagnostics"] if not d.startswith("1:1: ")]
    assert located

