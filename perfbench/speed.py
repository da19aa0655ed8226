"""The machine's current speed, from fixed reference work.

The host slows this process in stretches of seconds to a whole run (by up
to 1.7x, in CPU time as much as in wall time), so raw times of one run
differ from the next by more than any useful regression bound. Each run
times a fixed piece of interpreter work, shaped like the program's hot
paths (scan a list of small objects, compare strings, fill sets), between
its calls, and scales its times by ``REFERENCE_MS / reference time``. The
reference never changes with the program, so a change to the program shows
in full while the machine's speed cancels out.

Fresh processes (a cold CLI call, a set-up) spend their time starting the
interpreter, loading modules and faulting in pages, which the host slows
differently; their times are scaled by a fresh interpreter that imports a
fixed set of standard modules.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# About the references' times on the machine the baseline was recorded on
# (x86_64, 2 vCPUs, CPython 3.11) when it runs fast, so scaled times read as
# milliseconds on that machine at that speed.
REFERENCE_MS = 0.125
COLD_REFERENCE_MS = 65.0
COLD_IMPORTS = "import argparse, dataclasses, enum, json, pathlib, random, typing, xml.etree.ElementTree"


@dataclass
class _Edge:
    id: str
    source: str
    target: str
    tags: list[str] = field(default_factory=list)


_EDGES = [_Edge(f"f{i}", f"n{i}", f"n{(i * 7 + 1) % 120}", [f"o{i % 13}"]) for i in range(120)]


def _reference() -> int:
    seen: dict[str, set[str]] = {}
    for node in range(0, 120, 3):
        key = f"n{node}"
        for edge in _EDGES:
            if edge.target == key:
                for tag in edge.tags:
                    seen.setdefault(tag, set()).add(edge.source)
    return len(seen)


def sample() -> float:
    """One timing of the reference loop, in milliseconds."""
    start = perf_counter()
    _reference()
    return (perf_counter() - start) * 1e3


def cold_sample(cwd: Path) -> float:
    """One timing of a fresh interpreter importing COLD_IMPORTS, in milliseconds."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_IMPORTS], cwd=cwd, capture_output=True, check=True, timeout=60)
    return (perf_counter() - start) * 1e3
