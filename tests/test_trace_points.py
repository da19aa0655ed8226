"""Every name ``perfbench/tracing.py`` instruments exists and is reached.

The benchmark's ``--trace 1`` pass rebinds layer entry points from outside
the package. A name that is renamed away, or no longer called on the path
the benchmark drives, silently drops its per-layer metrics from the result
line. This test installs the tracer, runs what a traced benchmark round runs
on one fixture, and checks that no trace point is absent, every per-layer
metric the tracer computes is reported, and the simulator's evaluations are
counted.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json

import pytest

import bpdmn.cli
import bpdmn.codegen_bpel
import bpdmn.codegen_xpdl
import bpdmn.format
import bpdmn.patterns
import bpdmn.render
import bpdmn.simulator
import bpdmn.validator  # noqa: F401  (every traced module is loaded before install)

from conftest import FIXTURES, fixture_text

ROOT = FIXTURES.parent
MODEL = "travel.bpdmn.json"
# the CLI commands of a benchmark round, by request kind
COMMANDS = {
    "validate": ("validate",),
    "bpel": ("translate", "--to", "bpel"),
    "xpdl": ("translate", "--to", "xpdl"),
    "patterns": ("patterns", "--json"),
    "simulate": ("simulate", "--json"),
    "render": ("render",),
}
# per-layer metrics the benchmark measures itself, not from the trace
MEASURED_BY_RUN = {"cli.import_ms", "format.model_kb", "trace.overhead_ms", "trace.overhead_pct"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_traced(tracer) -> dict[str, int]:
    """One traced round on the model: the CLI commands, a round trip and the
    oracle, each its own request. Returns each command's exit code."""
    path = str(FIXTURES / MODEL)
    codes = {}
    for kind, (command, *options) in COMMANDS.items():
        tracer.begin(f"cli:{kind}")
        main = tracer.span("cli", bpdmn.cli.main)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exit_info:
                main(args=[command, path, *options], prog_name="bpdmn")
        codes[kind] = exit_info.value.code
    text = fixture_text(MODEL)
    tracer.begin("roundtrip")
    assert bpdmn.format.serialize_diagram(bpdmn.format.parse_diagram(text)) == text
    tracer.begin("oracle")
    assert bpdmn.simulator.explore_interleavings(bpdmn.format.parse_diagram(text))
    return codes


def test_every_trace_point_is_present_and_reached():
    tracing = _tracing()
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        codes = _run_traced(tracer)
    finally:
        tracing.uninstall(undo)
    assert codes == dict.fromkeys(COMMANDS, 0)
    assert tracer.absent == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    expected = {metric["name"] for metric in declared} - MEASURED_BY_RUN
    metrics = tracing.layer_metrics(tracer, {})
    assert set(metrics) == expected
    # travel's guards are evaluated through simulator.eval_expr, the name the
    # tracer counts: an evaluation routed around it would read 0 here
    assert metrics["simulator.eval_calls"] > 0
