"""A run's final state is the replay of its trace.

``state.bindings`` is the one store of bound values, and every write to it
traces an ``ObjectBound`` event. So for each object and path, the last event
that binds it holds the value the final state holds, and the value an
expression reads for ``object.path`` is that value too; no bound value lacks
an event. Values are compared with their types, since 1, 1.0 and True are
equal in Python.
"""

from __future__ import annotations

import pytest

from bpdmn import simulator, validator
from bpdmn.simulator import ObjectBound, SimulationError, _Env

from conftest import FIXTURES, load
from randgen import random_diagram

FIXTURE_PATHS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))
VALID_FIXTURES = [path for path in FIXTURE_PATHS if not validator.has_errors(validator.validate(load(path)))]
SCHEDULES = [("smallest", 0), ("random", 1), ("random", 2)]


def _typed(value):
    return type(value), value


@pytest.mark.parametrize(
    "model",
    [pytest.param(path, id=path) for path in VALID_FIXTURES]
    + [pytest.param(seed, id=f"random{seed}") for seed in range(300)],
)
def test_a_runs_final_state_is_the_replay_of_its_trace(model):
    diagram = random_diagram(model) if isinstance(model, int) else load(model)
    for policy, seed in SCHEDULES:
        try:
            result = simulator.run(diagram, policy=policy, seed=seed)
        except SimulationError:
            continue  # a diagram that cannot start, or a failing guard, leaves no final state
        last = {(e.object, e.variable): e.value for e in result.trace if isinstance(e, ObjectBound)}
        bindings = result.state.bindings
        bound = {(obj, path): value for obj, paths in bindings.items() for path, value in paths.items()}
        assert last.keys() == bound.keys(), policy
        env = _Env({}, bindings)
        for (obj, path), value in bound.items():
            assert _typed(last[obj, path]) == _typed(value) == _typed(env[f"{obj}.{path}"]), (policy, obj, path)
