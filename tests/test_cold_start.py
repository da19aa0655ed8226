"""What a fresh process loads: the CLI imports only ``format``, ``validator``
and the layer of the subcommand it runs, and ``import bpdmn`` loads the
other layers on first attribute access. Parsing a document compiles only the
fast pass of the schema tables it reaches, even when the document is refused,
and a first serialize compiles one writer for each table it reaches."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = {"bpdmn", "bpdmn.cli", "bpdmn.expr", "bpdmn.format", "bpdmn.model", "bpdmn.validator"}

# prints [exit code, loaded bpdmn modules, loaded click modules] after
# running the CLI on argv
CLI_PROBE = """
import contextlib, io, json, sys
from bpdmn.cli import main
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(args=sys.argv[1:], prog_name="bpdmn")
    except SystemExit as exc:
        code = exc.code
loaded = sorted(sys.modules)
ours = [m for m in loaded if m.split(".")[0] == "bpdmn"]
click = [m for m in loaded if m.split(".")[0] == "click"]
print(json.dumps([code, ours, click]))
"""


def _python(code: str, *args: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_layer():
    loaded = _python(
        "import json, sys, bpdmn.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'bpdmn')))"
    )
    assert set(loaded) == BASE


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["validate"], set()),
        (["translate", "--to", "bpel"], {"codegen_bpel"}),
        (["translate", "--to", "xpdl"], {"codegen_bpel", "codegen_xpdl"}),
        (["simulate"], {"simulator"}),
        (["patterns"], {"patterns"}),
        (["render"], {"render"}),
    ],
    ids=["validate", "translate-bpel", "translate-xpdl", "simulate", "patterns", "render"],
)
def test_each_subcommand_loads_only_its_layer(argv, layers):
    code, loaded, click = _python(CLI_PROBE, argv[0], str(FIXTURES / "travel.bpdmn.json"), *argv[1:])
    assert code == 0
    assert set(loaded) == BASE | {f"bpdmn.{layer}" for layer in layers}
    assert click == []


def test_layers_load_on_first_access():
    resolved = _python(
        """
import json, sys
import bpdmn
before = sorted(m for m in sys.modules if m.split(".")[0] == "bpdmn")
names = [
    bpdmn.simulator.run.__name__,
    bpdmn.patterns.analyze.__name__,
    bpdmn.render.to_dot.__name__,
    bpdmn.codegen_bpel.to_bpel.__name__,
    bpdmn.codegen_xpdl.to_xpdl.__name__,
]
try:
    bpdmn.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, names, missing]))
"""
    )
    before, names, missing = resolved
    assert set(before) == BASE - {"bpdmn.cli"}
    assert names == ["run", "analyze", "to_dot", "to_bpel", "to_xpdl"]
    assert missing == "module 'bpdmn' has no attribute 'nope'"


# prints [refused, names of the functions format._compile builds] after
# parsing the model argv[1] with its first node's id made a number
REFUSED_PROBE = """
import json, sys
from bpdmn import format
compiled, compile_ = [], format._compile
format._compile = lambda name, *args: compiled.append(name) or compile_(name, *args)
with open(sys.argv[1], encoding="utf-8") as model:
    doc = json.load(model)
doc["pools"][0]["nodes"][0]["id"] = 5
try:
    format.parse_diagram(json.dumps(doc))
    refused = False
except format.ParseError:
    refused = True
print(json.dumps([refused, compiled]))
"""


def test_parsing_a_refused_document_compiles_only_the_fast_pass():
    refused, compiled = _python(REFUSED_PROBE, str(FIXTURES / "eco.bpdmn.json"))
    assert refused
    assert compiled and set(compiled) == {"fast"}


# prints [what format._compile builds while a valid model, argv[1], is parsed,
# what it builds while the diagram is first serialized, the number of tables
# whose writer that serialize compiled, what a second serialize builds]
SERIALIZE_PROBE = """
import json, sys
from bpdmn import format
compiled, compile_ = [], format._compile
format._compile = lambda name, *args: compiled.append(name) or compile_(name, *args)
def writers():
    return {cls for cls, table in format._TABLES.items() if "write" in vars(table)}
with open(sys.argv[1], encoding="utf-8") as model:
    diagram = format.parse_diagram(model.read())
parsed, before = compiled[:], writers()
format.serialize_diagram(diagram)
written = compiled[len(parsed):]
reached = len(writers() - before)
format.serialize_diagram(diagram)
print(json.dumps([parsed, written, reached, compiled[len(parsed) + len(written):]]))
"""


def test_a_first_serialize_compiles_one_writer_per_table_it_reaches():
    parsed, written, reached, again = _python(SERIALIZE_PROBE, str(FIXTURES / "eco.bpdmn.json"))
    assert parsed and set(parsed) == {"fast"}
    assert set(written) == {"write"} and len(written) == reached
    assert again == []
