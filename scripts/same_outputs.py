#!/usr/bin/env python3
"""Write one canonical JSON digest of what the toolchain does on a set of models.

For each model it records the exit code, stdout and stderr of
``validate --json``, ``translate --to bpel``, ``translate --to xpdl``,
``patterns --json``, ``patterns --matrix``, ``patterns --matrix --json``,
``simulate --json`` (default policy, ``--policy random --seed 3`` and
``--policy random --seed 7``) and ``render``, the canonical text
``serialize_diagram`` writes for the parsed model, the outcome set of
``simulator.explore_interleavings`` with the number of states it visits (its
``enabled()`` calls, one per new state, so a state key that merges or splits
states shows), and the refusals: the diagnostics,
spans and messages, of every third single-point mutant of the model's
document (``tests/randgen.mutations``) that ``parse_diagram`` refuses.
The models are the committed fixtures (or the model files named on the
command line) and ``--random N`` seeded ``tests/randgen.random_diagram``
diagrams.

The script imports the ``bpdmn`` of the checkout it sits in, so two checkouts
can be compared byte for byte::

    python3 /path/to/parent/scripts/same_outputs.py --out parent.json
    python3 /path/to/change/scripts/same_outputs.py --out change.json
    cmp parent.json change.json

Name the same model files in both runs when passing them explicitly; a model
is keyed by its path relative to the checkout (or as given, outside it).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bpdmn import simulator
from bpdmn.cli import main as cli
from bpdmn.format import ParseError, parse_diagram, serialize_diagram
from randgen import DROP, mutant, mutations, random_diagram

COMMANDS = {
    "validate --json": ["validate", "{model}", "--json"],
    "translate --to bpel": ["translate", "{model}", "--to", "bpel"],
    "translate --to xpdl": ["translate", "{model}", "--to", "xpdl"],
    "patterns --json": ["patterns", "{model}", "--json"],
    "patterns --matrix": ["patterns", "{model}", "--matrix"],
    "patterns --matrix --json": ["patterns", "{model}", "--matrix", "--json"],
    "simulate --json": ["simulate", "{model}", "--json"],
    "simulate --json --policy random --seed 3": ["simulate", "{model}", "--json", "--policy", "random", "--seed", "3"],
    "simulate --json --policy random --seed 7": ["simulate", "{model}", "--json", "--policy", "random", "--seed", "7"],
    "render": ["render", "{model}"],
}


def _cli_call(argv: list[str]) -> dict:
    """One in-process CLI call: exit code, stdout and stderr, and any
    exception other than ``SystemExit`` it raised, counted as exit 1."""
    stdout, stderr = io.StringIO(), io.StringIO()
    entry = {}
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli(argv)
        except SystemExit as exc:
            entry["exit"] = exc.code
        except Exception as exc:
            entry["exit"] = 1
            entry["exception"] = f"{type(exc).__name__}: {exc}"
    return {**entry, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _cli_outputs(path: Path, name: str) -> dict:
    out = {}
    for label, template in COMMANDS.items():
        entry = _cli_call([str(path) if arg == "{model}" else arg for arg in template])
        entry["stderr"] = entry["stderr"].replace(str(path), name)
        out[label] = entry
    return out


def _canonical_text(path: Path) -> dict:
    try:
        return {"text": serialize_diagram(parse_diagram(path.read_text(encoding="utf-8")))}
    except ParseError as exc:
        return {"error": f"ParseError: {exc}"}


def _oracle_outcomes(path: Path, max_steps: int) -> dict:
    original = simulator.enabled
    states = 0

    def enabled_counted(*args):
        nonlocal states
        states += 1
        return original(*args)

    simulator.enabled = enabled_counted
    try:
        diagram = parse_diagram(path.read_text(encoding="utf-8"))
        outcomes = simulator.explore_interleavings(diagram, max_steps=max_steps)
    except (ParseError, simulator.SimulationError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "states": states}
    finally:
        simulator.enabled = original
    return {"outcomes": sorted(sorted(fired) for fired in outcomes), "states": states}


def _refusals(path: Path) -> list[dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    out = []
    for where, value in list(mutations(doc))[::3]:
        try:
            parse_diagram(json.dumps(mutant(doc, where, value), indent=2))
        except ParseError as exc:
            change = "dropped" if value is DROP else f"= {json.dumps(value)}"
            out.append(
                {
                    "mutation": f"{'.'.join(map(str, where))} {change}",
                    "diagnostics": [str(d) for d in exc.diagnostics],
                }
            )
    return out


def digest(models: dict[str, Path], oracle_steps: int) -> dict:
    return {
        name: {
            **_cli_outputs(path, name),
            "serialize": _canonical_text(path),
            "explore_interleavings": _oracle_outcomes(path, oracle_steps),
            "refusals": _refusals(path),
        }
        for name, path in models.items()
    }


def _name(path: Path) -> str:
    resolved = path.resolve()
    return resolved.relative_to(ROOT).as_posix() if resolved.is_relative_to(ROOT) else str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("models", nargs="*", type=Path, help="model files (default: every committed fixture)")
    parser.add_argument("--random", type=int, default=40, metavar="N", help="seeded random diagrams 0..N-1")
    parser.add_argument(
        "--oracle-steps",
        type=int,
        default=50,
        metavar="K",
        help="max_steps of explore_interleavings (the oracle is exhaustive: bound it on wide models)",
    )
    parser.add_argument("--out", type=Path, required=True, help="digest file to write")
    args = parser.parse_args(argv)

    paths = args.models or sorted((ROOT / "fixtures").rglob("*.bpdmn.json"))
    models = {_name(path): path for path in paths}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(args.random):
            path = Path(tmp) / f"random{seed}.bpdmn.json"
            path.write_text(serialize_diagram(random_diagram(seed)), encoding="utf-8")
            models[f"random{seed}"] = path
        result = digest(models, args.oracle_steps)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
