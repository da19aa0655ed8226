from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import NamedTuple

import pytest

from bpdmn.cli import main
from bpdmn.format import parse_diagram
from bpdmn.model import Diagram
from bpdmn.simulator import ExecutionState, _add_token, _bind_object

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(relpath: str) -> Diagram:
    return parse_diagram((FIXTURES / relpath).read_text(encoding="utf-8"))


def fixture_text(relpath: str) -> str:
    return (FIXTURES / relpath).read_text(encoding="utf-8")


def built_state(
    diagram: Diagram,
    tokens: tuple[str, ...] = (),
    bindings: dict[str, dict] | None = None,
    stores: dict[str, list[dict]] | None = None,
) -> ExecutionState:
    """A state built by the simulator's own writers, as ``init`` builds one:
    ``_add_token`` puts a token on each flow in *tokens*, ``_bind_object``
    binds each object in *bindings*, and each store of *stores* holds a list
    of its records."""
    state = ExecutionState()
    for flow_id in tokens:
        _add_token(state, diagram.index.flows[flow_id])
    for obj, values in (bindings or {}).items():
        _bind_object(state, None, 0, obj, values)
    for store, records in (stores or {}).items():
        state.stores[store] = list(records)
    return state


class CliRun(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(*argv: str) -> CliRun:
    """One in-process ``bpdmn`` call: its exit code, stdout and stderr. The
    call must end in ``SystemExit``, as every call of ``main`` does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    return CliRun(exit_info.value.code, out.getvalue(), err.getvalue())


@pytest.fixture
def travel() -> Diagram:
    return load("travel.bpdmn.json")


@pytest.fixture
def eco() -> Diagram:
    return load("eco.bpdmn.json")
