"""Command-line interface.

Subcommands: ``validate``, ``translate``, ``simulate``, ``patterns``,
``render``. Exit codes: 0 success, 1 model error (validation failures,
generation refusals), 2 I/O or parse error (a model file that cannot be
read or is not UTF-8, an output file that cannot be written), 3 simulated
run deadlocked, 4 step limit reached. Each subcommand imports the layer it
runs when it runs, so a call loads only ``format``, ``validator`` and its
own layer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__, format as fmt, validator

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2
EXIT_DEADLOCK = 3
EXIT_STEP_LIMIT = 4


def _load(path: str):
    """Read and parse a diagram file; exits with code 2 on failure."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    try:
        return fmt.parse_diagram(text)
    except fmt.ParseError as exc:
        for diag in exc.diagnostics:
            click.echo(f"error: {path}:{diag}", err=True)
        sys.exit(EXIT_IO)


def _write_out(text: str, output: str | None) -> None:
    """Write to *output*, or stdout; exits with code 2 when it cannot be written."""
    if output is None or output == "-":
        click.echo(text, nl=False)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        click.echo(f"error: cannot write {output}: {exc}", err=True)
        sys.exit(EXIT_IO)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Tooling for data-extended BPMN models: validation, pattern analysis,
    translation to BPEL and XPDL, and simulation."""


@main.command()
@click.argument("model_file", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="Emit diagnostics as JSON.")
def validate(model_file: str, as_json: bool) -> None:
    """Check a model against the well-formedness rule catalog."""
    diagram = _load(model_file)
    diagnostics = validator.validate(diagram)
    if as_json:
        click.echo(
            fmt.json_text(
                [
                    {
                        "rule": d.rule,
                        "severity": d.severity.value,
                        "element": d.element,
                        "message": d.message,
                    }
                    for d in diagnostics
                ],
                ensure_ascii=True,
            )
        )
    else:
        for d in diagnostics:
            click.echo(str(d))
        if not diagnostics:
            click.echo("ok")
    sys.exit(EXIT_MODEL if validator.has_errors(diagnostics) else EXIT_OK)


@main.command()
@click.argument("model_file", type=click.Path())
@click.option("--to", "target", type=click.Choice(["bpel", "xpdl"]), required=True)
@click.option("-o", "--output", type=click.Path(), default=None, help="Output file (default stdout).")
def translate(model_file: str, target: str, output: str | None) -> None:
    """Translate a valid model to a BPEL or XPDL fragment."""
    from . import codegen_bpel

    diagram = _load(model_file)
    if target == "bpel":
        generator = codegen_bpel.to_bpel
    else:
        from . import codegen_xpdl

        generator = codegen_xpdl.to_xpdl
    try:
        text, warnings = generator(diagram)
    except codegen_bpel.GenerationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_MODEL)
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    _write_out(text, output)
    sys.exit(EXIT_OK)


@main.command()
@click.argument("model_file", type=click.Path())
@click.option("--max-steps", type=int, default=1000, show_default=True)
@click.option("--policy", type=click.Choice(["smallest", "random"]), default="smallest", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--set",
    "overrides",
    multiple=True,
    metavar="OBJ.VAR=VALUE",
    help="Override a start input (repeatable). VALUE is parsed as JSON when possible; "
    "it must be a string, number, boolean or null.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit the run result as JSON.")
def simulate(
    model_file: str,
    max_steps: int,
    policy: str,
    seed: int,
    overrides: tuple[str, ...],
    as_json: bool,
) -> None:
    """Execute a model under data-aware enablement and print the trace."""
    from . import simulator

    diagram = _load(model_file)
    diagnostics = validator.validate(diagram)
    if validator.has_errors(diagnostics):
        for d in diagnostics:
            click.echo(str(d), err=True)
        sys.exit(EXIT_MODEL)

    start_inputs = {obj: dict(vals) for obj, vals in diagram.start_inputs.items()}
    produced = diagram.start_objects()
    for item in overrides:
        key, sep, raw = item.partition("=")
        obj, dot, var = key.partition(".")
        if not sep or not dot:
            click.echo(f"error: bad --set {item!r}, expected OBJ.VAR=VALUE", err=True)
            sys.exit(EXIT_IO)
        try:
            value = fmt.decode_json(raw)
        except json.JSONDecodeError:
            value = raw
        except fmt.ParseError as exc:
            click.echo(f"error: bad --set {item!r}, VALUE is an {exc.diagnostics[0].message}", err=True)
            sys.exit(EXIT_IO)
        if not fmt.is_scalar(value):
            click.echo(f"error: bad --set {item!r}, VALUE must be a string, number, boolean or null", err=True)
            sys.exit(EXIT_IO)
        if diagram.object(obj) is None:
            click.echo(f"error: bad --set {item!r}, the model declares no object {obj!r}", err=True)
            sys.exit(EXIT_IO)
        if obj not in produced:
            click.echo(f"error: bad --set {item!r}, no message start event produces {obj!r}", err=True)
            sys.exit(EXIT_IO)
        start_inputs.setdefault(obj, {})[var] = value

    try:
        result = simulator.run(
            diagram,
            start_inputs=start_inputs,
            max_steps=max_steps,
            policy=policy,
            seed=seed,
        )
    except simulator.SimulationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_MODEL)

    if as_json:
        click.echo(
            fmt.json_text(
                {
                    "status": result.status,
                    "steps": result.state.step_count,
                    "fired": sorted(result.fired_nodes()),
                    "trace": [str(e) for e in result.trace],
                },
                ensure_ascii=True,
            )
        )
    else:
        click.echo(simulator.render_trace(result.trace), nl=False)
        click.echo(f"status: {result.status}")
    if result.status == "deadlocked":
        sys.exit(EXIT_DEADLOCK)
    if result.status == "step_limit":
        sys.exit(EXIT_STEP_LIMIT)
    sys.exit(EXIT_OK)


@main.command(name="patterns")
@click.argument("model_file", type=click.Path(), required=False)
@click.option("--matrix", "show_matrix", is_flag=True, help="Print the static capability matrix.")
@click.option("--json", "as_json", is_flag=True, help="Emit results as JSON.")
def patterns_cmd(model_file: str | None, show_matrix: bool, as_json: bool) -> None:
    """Report which capability-matrix rows a model exercises."""
    from . import patterns

    if show_matrix:
        if as_json:
            matrix = {
                key: {"bpmn": a.value, "bpdmn": b.value}
                for key, (a, b) in patterns.capability_matrix().items()
            }
            click.echo(fmt.json_text(matrix, ensure_ascii=True))
        else:
            click.echo(patterns.render_matrix(), nl=False)
        if model_file is None:
            sys.exit(EXIT_OK)
    if model_file is None:
        click.echo("error: provide a model file or --matrix", err=True)
        sys.exit(EXIT_IO)
    diagram = _load(model_file)
    try:
        report = patterns.analyze(diagram)
    except patterns.InvalidDiagramError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_MODEL)
    found = {key: ids for key, ids in sorted(report.ids.items()) if ids}
    if as_json:
        click.echo(fmt.json_text(found, ensure_ascii=True))
    else:
        for key, ids in found.items():
            shown = ", ".join("{" + ", ".join(w) + "}" for w in ids)
            click.echo(f"{key}: {len(ids)} instance(s): {shown}")
    sys.exit(EXIT_OK)


@main.command(name="render")
@click.argument("model_file", type=click.Path())
@click.option("--hide-data", is_flag=True, help="Suppress data objects, stores and data connectors.")
@click.option("-o", "--output", type=click.Path(), default=None, help="Output file (default stdout).")
def render_cmd(model_file: str, hide_data: bool, output: str | None) -> None:
    """Emit a Graphviz dot drawing of the model."""
    from . import render

    diagram = _load(model_file)
    _write_out(render.to_dot(diagram, hide_data=hide_data), output)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
