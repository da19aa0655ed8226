#!/usr/bin/env python3
"""What the interleaving oracle costs on benchmark fanout models, by shape.

For fanout models of 2x2, 2x3, 3x2, 3x3, 4x3, 4x4 and 6x6 pools x parallel
width it prints, per model:

- whether ``simulator.explore_interleavings`` returns the outcome set the
  generator expects (the one fired set of a full run);
- the states it visits, counted as its ``enabled()`` calls, one per new
  state, as ``scripts/same_outputs.py`` counts them;
- its ``step()`` calls;
- the median time of one call over five, each on a freshly parsed model,
  as the benchmark times it.

The models are perfbench's ``fanout_model`` without the bounded oracle,
imported from ``perfbench/models.py``. The script runs the ``bpdmn`` of the
checkout it sits in; stdlib only::

    python3 scripts/oracle_cost.py

It exits 1 when the outcome set of any shape is not the generator's, so a
CI step that runs it fails on a wrong oracle at shapes the tests do not
reach (they stop at 4x4).
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bpdmn import simulator  # noqa: E402
from bpdmn.format import parse_diagram  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 4), (6, 6))
SEED = 1
TIMED = 5


def _models():
    """perfbench's model generators, loaded from the file without running perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_models", ROOT / "perfbench" / "models.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _counted(text: str, max_steps: int) -> tuple[set[frozenset[str]], int, int]:
    """The outcome set of one oracle call, its ``enabled()`` calls and its
    ``step()`` calls."""
    calls = {"enabled": 0, "step": 0}
    originals = {name: getattr(simulator, name) for name in calls}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return call

    for name in calls:
        setattr(simulator, name, counting(name))
    try:
        outcomes = simulator.explore_interleavings(parse_diagram(text), max_steps)
    finally:
        for name, original in originals.items():
            setattr(simulator, name, original)
    return outcomes, calls["enabled"], calls["step"]


def _median_ms(text: str, max_steps: int) -> float:
    times = []
    for _ in range(TIMED):
        diagram = parse_diagram(text)
        start = time.perf_counter()
        simulator.explore_interleavings(diagram, max_steps)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def main() -> int:
    models = _models()
    wrong = 0
    print("shape  expected  states  step() calls  median ms")
    for index, (pools, width) in enumerate(SHAPES):
        model = models.fanout_model(SEED, index, pools, width)
        outcomes, states, steps = _counted(model.text, model.oracle_max_steps)
        ms = _median_ms(model.text, model.oracle_max_steps)
        expected = "yes" if outcomes == model.oracle_outcomes else "NO"
        wrong += expected == "NO"
        print(f"{pools}x{width:<3}  {expected:>8}  {states:6d}  {steps:12d}  {ms:9.2f}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
