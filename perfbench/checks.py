"""Checks of the program's outputs against each model's known answers.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import ast
import json
import re
import xml.etree.ElementTree as ET

from models import Model

_BOUND = re.compile(r"^step \d+: bound ([^.\s]+)\.(\S+) = (.*)$")


def cli(model: Model, command: str, code: int, out: str) -> list[str]:
    expected = model.exits.get(command, 0)
    if code != expected:
        return [f"{command}: exit {code}, expected {expected}"]
    return _BY_COMMAND[command](model, out)


def _validate(model: Model, out: str) -> list[str]:
    if model.validate_first_line == "ok":
        return [] if out == "ok\n" else [f"validate: output {out[:80]!r}, expected 'ok'"]
    if not out.startswith(model.validate_first_line):
        return [f"validate: output {out[:80]!r}, expected {model.validate_first_line!r}"]
    return []


def _xml(command: str, out: str, root_tag: str):
    try:
        root = ET.fromstring(out)
    except ET.ParseError as exc:
        return None, [f"{command}: malformed XML: {exc}"]
    if root.tag != root_tag:
        return None, [f"{command}: root element {root.tag!r}, expected {root_tag!r}"]
    return root, []


def _bpel(model: Model, out: str) -> list[str]:
    root, problems = _xml("bpel", out, "process")
    if root is None:
        return problems
    names: dict[str, int] = {}
    for el in root.iter():
        name = el.get("name")
        if name is not None:
            names[name] = names.get(name, 0) + 1
    for node_id, name in sorted(model.task_names.items()):
        if names.get(name, 0) != 1:
            problems.append(f"bpel: task {node_id} ({name!r}) named {names.get(name, 0)} times")
    return problems


def _xpdl(model: Model, out: str) -> list[str]:
    root, problems = _xml("xpdl", out, "Package")
    if root is None:
        return problems
    values = {v for el in root.iter() for v in el.attrib.values()}
    missing = [n for n in model.node_ids if n not in values]
    if missing:
        problems.append(f"xpdl: node ids never named: {missing[:5]}")
    return problems


def _patterns(model: Model, out: str) -> list[str]:
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"patterns: malformed JSON: {exc}"]
    if not isinstance(report, dict) or not all(
        isinstance(w, list) and all(isinstance(i, str) for i in w) for ws in report.values() for w in ws
    ):
        return ["patterns: expected a JSON object of witness lists"]
    missing = sorted(model.patterns_expected - set(report))
    return [f"patterns: expected pattern rows not reported: {missing}"] if missing else []


def bound_values(trace: list[str]) -> dict[tuple[str, str], object]:
    """Last value bound to each (object, variable) in a rendered trace."""
    values: dict[tuple[str, str], object] = {}
    for line in trace:
        match = _BOUND.match(line)
        if match:
            values[(match.group(1), match.group(2))] = ast.literal_eval(match.group(3))
    return values


def _simulate(model: Model, out: str) -> list[str]:
    if model.exits.get("simulate", 0) not in (0, 3, 4):
        return []  # a refused run prints no result
    try:
        result = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"simulate: malformed JSON: {exc}"]
    problems = []
    if model.status is not None and result.get("status") != model.status:
        problems.append(f"simulate: status {result.get('status')!r}, expected {model.status!r}")
    if model.steps is not None and result.get("steps") != model.steps:
        problems.append(f"simulate: {result.get('steps')} steps, expected {model.steps}")
    if model.fired is not None and frozenset(result.get("fired", ())) != model.fired:
        problems.append("simulate: fired set differs from the expected one")
    if model.final_values:
        values = bound_values(result.get("trace", []))
        for key, expected in sorted(model.final_values.items()):
            if values.get(key) != expected:
                problems.append(f"simulate: {key[0]}.{key[1]} = {values.get(key)!r}, expected {expected!r}")
    return problems


def _render(model: Model, out: str) -> list[str]:
    lines = out.split("\n")
    if not lines[0].startswith("digraph ") or out[-2:] != "}\n":
        return ["render: not a dot digraph"]
    depth = 0
    for char in re.sub(r'"(?:[^"\\]|\\.)*"', '""', out):
        depth += {"{": 1, "}": -1}.get(char, 0)
        if depth < 0:
            break
    if depth != 0:
        return ["render: unbalanced braces"]
    problems = []
    declared = [n for n in model.node_ids if f'"{n}" [shape=' not in out]
    if declared:
        problems.append(f"render: nodes not declared: {declared[:5]}")
    edges = [e for e in model.flow_edges if f'"{e[0]}" -> "{e[1]}"' not in out]
    if edges:
        problems.append(f"render: sequence flows not drawn: {edges[:5]}")
    return problems


_BY_COMMAND = {
    "validate": _validate,
    "bpel": _bpel,
    "xpdl": _xpdl,
    "patterns": _patterns,
    "simulate": _simulate,
    "render": _render,
}


def roundtrip(model: Model, text: str) -> list[str]:
    return [] if text == model.text else ["roundtrip: serialized text differs from the input"]


def oracle(model: Model, outcomes) -> list[str]:
    if model.oracle_outcomes is not None:
        if set(outcomes) != model.oracle_outcomes:
            return [f"oracle: outcome set differs ({len(outcomes)} outcomes, expected {len(model.oracle_outcomes)})"]
        return []
    if model.fired not in outcomes:
        return ["oracle: the scheduler's fired set is not among the oracle's outcomes"]
    return []
