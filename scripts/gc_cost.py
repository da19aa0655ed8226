#!/usr/bin/env python3
"""What a built diagram costs the garbage collector, on benchmark chain models.

For chain models of 300, 1200 and 4800 tasks it prints, per model:

- the GC-tracked objects that parsing its text adds, in all and per task;
- the GC-tracked objects that building its ``DiagramIndex`` adds, in all and
  per task;
- the gen-0, gen-1 and gen-2 collections that one parse, and one index build,
  run with the collector at its default thresholds.

Object counts are taken after a full collection, so a tuple that CPython
stops tracking at its first collection (one holding only strings, numbers
or such tuples) does not count. The models are perfbench's ``chain_model``,
imported from ``perfbench/models.py`` with its ``CHAIN_TASKS`` set on the
imported module. The script runs the ``bpdmn`` of the checkout it sits in;
stdlib only::

    python3 scripts/gc_cost.py
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bpdmn.format import parse_diagram  # noqa: E402

SIZES = (300, 1200, 4800)
SEED = 1


def _chain_models():
    """perfbench's model generators, loaded from the file without running perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_models", ROOT / "perfbench" / "models.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def _cost(build) -> tuple[object, int, list[int]]:
    """What ``build()`` returns, the tracked objects it adds, and the
    collections of each generation it runs."""
    tracked = _tracked()
    counts = _collections()
    result = build()
    runs = [after - before for after, before in zip(_collections(), counts)]
    return result, _tracked() - tracked, runs


def main() -> None:
    models = _chain_models()
    models.CHAIN_TASKS = 10
    parse_diagram(models.chain_model(SEED, 0).text).index  # compile the parser's passes first
    print("tasks  parse objects (per task)  index objects (per task)  parse gen0/1/2  index gen0/1/2")
    for tasks in SIZES:
        models.CHAIN_TASKS = tasks
        text = models.chain_model(SEED, 0).text
        diagram, parsed, parse_runs = _cost(lambda: parse_diagram(text))
        _, indexed, index_runs = _cost(lambda: diagram.index)
        print(
            f"{tasks:5d}  {parsed:9d} ({parsed / tasks:6.2f})"
            f"      {indexed:9d} ({indexed / tasks:6.2f})"
            f"       {'/'.join(map(str, parse_runs)):>12}  {'/'.join(map(str, index_runs)):>14}"
        )
        del diagram


if __name__ == "__main__":
    main()
