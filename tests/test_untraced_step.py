"""``step(..., traced=False)``, the firing the oracle makes.

An untraced firing changes the state exactly as a traced one does, but it
builds no trace event and returns an empty delta.
"""

from __future__ import annotations

import copy
import importlib.util
import sys
from pathlib import Path

import pytest

from bpdmn import simulator
from bpdmn.format import parse_diagram

from conftest import FIXTURES, load

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_PATHS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.bpdmn.json"))
TRACE_EVENTS = ("NodeFired", "ObjectBound", "StoreChanged", "MessageSent", "MessageReceived")


def _facts(state: simulator.ExecutionState) -> tuple:
    return (
        state.tokens,
        state.bindings,
        state.env,
        state.stores,
        state.inbox,
        state.completed,
        state.pending_starts,
        state.step_count,
    )


@pytest.mark.parametrize("relpath", FIXTURE_PATHS)
def test_an_untraced_step_changes_the_state_as_a_traced_one(relpath, monkeypatch):
    diagram = load(relpath)
    original = simulator.step
    checked = []

    def step_both(state, d, node_id, *, traced=True):
        assert traced is False  # the oracle's firings are untraced
        twin = copy.deepcopy(state)
        try:
            twin, trace = original(twin, d, node_id)
        except simulator.SimulationError as exc:
            with pytest.raises(type(exc)) as untraced:
                original(state, d, node_id, traced=False)
            assert str(untraced.value) == str(exc)
            raise
        state, delta = original(state, d, node_id, traced=False)
        assert delta == [] and trace[0] == simulator.NodeFired(state.step_count, node_id)
        assert _facts(state) == _facts(twin), f"{node_id} at step {state.step_count}"
        checked.append(node_id)
        return state, delta

    monkeypatch.setattr(simulator, "step", step_both)
    try:
        simulator.explore_interleavings(diagram)
    except simulator.InitializationError:
        pytest.skip("the diagram cannot start without further start inputs")
    except simulator.SimulationError:
        pass  # a failing guard ends the exploration; earlier firings were checked
    assert checked or not simulator.enabled(simulator.init(diagram), diagram)


def _fanout():
    """The smallest shape of the interleave workload, with its known outcome."""
    spec = importlib.util.spec_from_file_location("perfbench_models", ROOT / "perfbench" / "models.py")
    models = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = models  # its dataclasses look their module up
    spec.loader.exec_module(models)
    model = models.fanout_model(1, 0, 2, 2)
    return parse_diagram(model.text), model.oracle_max_steps, model.oracle_outcomes


def _cases():
    travel = frozenset(
        {"split", "check_cc", "check_hotel", "check_car", "check_flight", "join", "gw", "archive", "n_end"}
    )
    eco = frozenset({"m_start", "m_check", "m_gw", "m_process", "m_end", "t_submit", "t_send", "t_end"})
    return [
        pytest.param(lambda: (load("travel.bpdmn.json"), 50, {travel}), id="travel"),
        pytest.param(lambda: (load("eco.bpdmn.json"), 50, {eco}), id="eco"),
        pytest.param(_fanout, id="fanout-2x2"),
    ]


@pytest.mark.parametrize("case", _cases())
def test_the_oracle_builds_no_trace_event(case, monkeypatch):
    diagram, max_steps, outcomes = case()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built a trace event")

    for name in TRACE_EVENTS:
        monkeypatch.setattr(simulator, name, refuse)
    assert simulator.explore_interleavings(diagram, max_steps=max_steps) == outcomes
