#!/usr/bin/env python3
"""Where the time of a cold ``bpdmn`` call goes: a profile of module loading.

For each subcommand it runs a fresh ``python -X importtime -m bpdmn.cli
<command> MODEL`` a few times and prints, as medians over the runs, the
process's wall time and the ``bpdmn`` modules it loaded with each one's self
and cumulative import time. The first line is the interpreter's own baseline,
``python -X importtime -c pass``. ``bpdmn.cli`` runs as ``__main__``, so it
is compiled outside the import timer and shows only in the wall time.

The last three lines split out costs that ``-X importtime`` folds into the
import of a module, or cannot see, each a median over fresh processes:

- Class creation: the time ``dataclasses`` (``dataclasses._process_class``)
  and ``collections.namedtuple`` (which ``typing.NamedTuple`` calls) spend
  building classes during one cold ``bpdmn validate MODEL``, with how many
  classes each builds: package classes and those of any module it loads.
- Compiling: ``bpdmn.format`` compiles the fast pass and the writer of each
  schema table on first use, not on import. The two lines give the time
  ``format._compile`` takes and the functions and source lines it compiles:
  first while one ``parse_diagram`` reads MODEL, which compiles the fast pass
  of each table the parse reaches, whether MODEL is valid or refused (the
  diagnostic pass a refused MODEL takes compiles nothing); then while the
  first ``serialize_diagram`` writes the parsed MODEL, which compiles the
  writer of each table it reaches (nothing when MODEL is refused).

The script runs the ``bpdmn`` of the checkout it sits in; stdlib only::

    python3 scripts/import_cost.py [MODEL]     # default fixtures/travel.bpdmn.json

Times include compiling each module from source unless the interpreter finds
(or may write) cached bytecode, so they depend on ``PYTHONDONTWRITEBYTECODE``
and on any ``__pycache__`` directories present.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = 11

# prints the ms, functions and source lines format._compile spends and
# compiles while parse_diagram reads the model named by argv[1], then the
# same for the first serialize_diagram of the parsed model
COMPILE_PROBE = """
import sys
from time import perf_counter
from bpdmn import format
compile_, spent = format._compile, [0.0, 0, 0]
def timed(name, params, body, namespace):
    start = perf_counter()
    try:
        return compile_(name, params, body, namespace)
    finally:
        spent[0] += (perf_counter() - start) * 1e3
        spent[1] += 1
        spent[2] += 1 + len(body)
format._compile = timed
with open(sys.argv[1], encoding="utf-8") as model:
    text = model.read()
try:
    diagram = format.parse_diagram(text)
except format.ParseError:
    diagram = None
print(*spent)
spent[:] = [0.0, 0, 0]
if diagram is not None:
    format.serialize_diagram(diagram)
print(*spent)
"""
# prints the ms spent building classes, then the dataclasses and the named
# tuples built, during one ``bpdmn validate`` of the model named by argv[1]
CLASS_PROBE = """
import collections, contextlib, dataclasses, os, sys
from time import perf_counter
spent = [0.0, 0, 0]
def timed(build, kind):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            spent[0] += (perf_counter() - start) * 1e3
            spent[kind] += 1
    return wrapper
dataclasses._process_class = timed(dataclasses._process_class, 1)
collections.namedtuple = timed(collections.namedtuple, 2)
from bpdmn import cli
with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
    try:
        cli.main(["validate", sys.argv[1]])
    except SystemExit:
        pass
print(*spent)
"""
COMMANDS = (
    ("validate",),
    ("translate", "--to", "bpel"),
    ("translate", "--to", "xpdl"),
    ("simulate",),
    ("patterns",),
    ("render",),
)


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter run on *args*, importing ``bpdmn`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)


def _run(args: list[str]) -> tuple[float, dict[str, tuple[int, int]]]:
    """Wall time in ms and {module: (self us, cumulative us)} of one process."""
    start = perf_counter()
    proc = _python(["-X", "importtime", *args])
    wall = (perf_counter() - start) * 1e3
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:") :].split("|")
        if self_us.strip().isdigit():  # skip the header
            times[name.strip()] = (int(self_us), int(cumulative_us))
    return wall, times


def profile(args: list[str]) -> tuple[float, dict[str, tuple[float, float]]]:
    """Median wall time and per-module (self, cumulative) ms over RUNS runs."""
    walls = []
    samples: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for _ in range(RUNS):
        wall, times = _run(args)
        walls.append(wall)
        for name, pair in times.items():
            samples[name].append(pair)
    modules = {
        name: (statistics.median(s for s, _ in pairs) / 1e3, statistics.median(c for _, c in pairs) / 1e3)
        for name, pairs in samples.items()
    }
    return statistics.median(walls), modules


def compile_cost(model: str) -> list[tuple[float, int, int]]:
    """Median ms, functions and lines ``format._compile`` spends on one parse
    of *model* and on its first serialize, over RUNS fresh processes."""
    runs = []
    for _ in range(RUNS):
        proc = _python(["-c", COMPILE_PROBE, model])
        if proc.returncode != 0:
            raise SystemExit(proc.stderr)
        stages = [line.split() for line in proc.stdout.splitlines()]
        runs.append([(float(ms), int(functions), int(lines)) for ms, functions, lines in stages])
    return [
        (statistics.median(run[stage][0] for run in runs), runs[0][stage][1], runs[0][stage][2])
        for stage in range(2)
    ]


def class_cost(model: str) -> tuple[float, int, int]:
    """Median ms spent building classes during one cold ``validate`` of
    *model*, over RUNS fresh processes, with the dataclasses and the named
    tuples built."""
    runs = []
    for _ in range(RUNS):
        proc = _python(["-c", CLASS_PROBE, model])
        if proc.returncode != 0:
            raise SystemExit(proc.stderr)
        ms, dataclasses, namedtuples = proc.stdout.split()
        runs.append((float(ms), int(dataclasses), int(namedtuples)))
    return statistics.median(ms for ms, _, _ in runs), runs[0][1], runs[0][2]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("model", nargs="?", default=str(ROOT / "fixtures" / "travel.bpdmn.json"))
    model = parser.parse_args().model

    wall, modules = profile(["-c", "pass"])
    total = sum(s for s, _ in modules.values())
    print(f"baseline `-c pass`: process {wall:.1f} ms, {len(modules)} modules, self import total {total:.1f} ms")
    for command in COMMANDS:
        wall, modules = profile(["-m", "bpdmn.cli", command[0], model, *command[1:]])
        ours = sorted(name for name in modules if name.split(".")[0] == "bpdmn")
        print(f"\n== {' '.join(command)}: process {wall:.1f} ms, {len(ours)} bpdmn modules")
        print(f"  {'module':24s} {'self ms':>9s} {'cumulative ms':>14s}")
        for name in ours:
            self_ms, cumulative_ms = modules[name]
            print(f"  {name:24s} {self_ms:9.2f} {cumulative_ms:14.2f}")

    ms, dataclasses, namedtuples = class_cost(model)
    print(f"\n== classes a cold validate builds: {ms:.2f} ms, {dataclasses} dataclasses, {namedtuples} named tuples")
    (ms, functions, lines), (write_ms, writers, write_lines) = compile_cost(model)
    print(f"== fast pass one parse compiles: {ms:.2f} ms, {functions} functions, {lines} lines")
    print(f"== writers the first serialize compiles: {write_ms:.2f} ms, {writers} functions, {write_lines} lines")


if __name__ == "__main__":
    main()
