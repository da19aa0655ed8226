from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import NamedTuple

import pytest

from bpdmn.cli import main
from bpdmn.format import parse_diagram
from bpdmn.model import Diagram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(relpath: str) -> Diagram:
    return parse_diagram((FIXTURES / relpath).read_text(encoding="utf-8"))


def fixture_text(relpath: str) -> str:
    return (FIXTURES / relpath).read_text(encoding="utf-8")


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
