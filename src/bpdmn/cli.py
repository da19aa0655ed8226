"""Command-line interface.

Subcommands: ``validate``, ``translate``, ``simulate``, ``patterns``,
``render``. Exit codes: 0 success, 1 model error (validation failures,
generation refusals), 2 usage error, or I/O or parse error (a model file
that cannot be read or is not UTF-8, an output file that cannot be written),
3 simulated run deadlocked, 4 step limit reached. Each subcommand imports the
layer it runs when it runs, so a call loads only ``format``, ``validator``
and its own layer.

Output goes through ``sys.stdout`` and ``sys.stderr`` as they are at the
time of the write, unchanged, so a caller may swap either stream per call.
The argument parser is built on the first call and kept for the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__, format as fmt, model, validator

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2
EXIT_DEADLOCK = 3
EXIT_STEP_LIMIT = 4


def _fail(message: str, code: int) -> NoReturn:
    """Write an ``error:`` line to stderr and end the call with *code*."""
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _load(path: str):
    """Read and parse a diagram file; exits with code 2 on failure."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}", EXIT_IO)
    try:
        return fmt.parse_diagram(text)
    except fmt.ParseError as exc:
        sys.stderr.write("".join(f"error: {path}:{diag}\n" for diag in exc.diagnostics))
        sys.exit(EXIT_IO)


def _write_out(text: str, output: str | None) -> None:
    """Write to *output*, or stdout; exits with code 2 when it cannot be written."""
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {output}: {exc}", EXIT_IO)


def validate(args: argparse.Namespace) -> int:
    """Check a model against the well-formedness rule catalog."""
    diagnostics = validator.validate(_load(args.model_file))
    if args.as_json:
        rows = [
            {"rule": d.rule, "severity": d.severity.value, "element": d.element, "message": d.message}
            for d in diagnostics
        ]
        sys.stdout.write(fmt.json_text(rows) + "\n")
    else:
        sys.stdout.write("".join(f"{d}\n" for d in diagnostics) if diagnostics else "ok\n")
    return EXIT_MODEL if validator.has_errors(diagnostics) else EXIT_OK


def translate(args: argparse.Namespace) -> int:
    """Translate a valid model to a BPEL or XPDL fragment."""
    from . import codegen_bpel

    diagram = _load(args.model_file)
    if args.target == "bpel":
        generator = codegen_bpel.to_bpel
    else:
        from . import codegen_xpdl

        generator = codegen_xpdl.to_xpdl
    try:
        text, warnings = generator(diagram)
    except codegen_bpel.GenerationError as exc:
        _fail(str(exc), EXIT_MODEL)
    sys.stderr.write("".join(f"warning: {warning}\n" for warning in warnings))
    _write_out(text, args.output)
    return EXIT_OK


# how --set words each rule of model.start_input_fault that an override breaks
_SET_REFUSALS = {
    "object": "the model declares no object {obj!r}",
    "start": "no message start event produces {obj!r}",
    "path": "VAR must be names joined by '.', none empty",
    "value": "VALUE must be a string, number, boolean or null",
}


def simulate(args: argparse.Namespace) -> int:
    """Execute a model under data-aware enablement and print the trace."""
    from . import simulator

    diagram = _load(args.model_file)
    errors = validator.errors_text(diagram)
    if errors is not None:
        _fail(errors, EXIT_MODEL)
    start_inputs = {obj: dict(vals) for obj, vals in diagram.start_inputs.items()}
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        obj, dot, var = key.partition(".")
        if not sep or not dot:
            _fail(f"bad --set {item!r}, expected OBJ.VAR=VALUE", EXIT_IO)
        try:
            value = fmt.decode_json(raw)
        except json.JSONDecodeError:
            value = raw
        except fmt.ParseError as exc:
            _fail(f"bad --set {item!r}, VALUE is an {exc.diagnostics[0].message}", EXIT_IO)
        fault = model.start_input_fault(diagram, obj, {var: value})
        if fault is not None:
            _fail(f"bad --set {item!r}, " + _SET_REFUSALS[fault[0]].format(obj=obj), EXIT_IO)
        start_inputs.setdefault(obj, {})[var] = value

    try:
        result = simulator.run(
            diagram,
            start_inputs=start_inputs,
            max_steps=args.max_steps,
            policy=args.policy,
            seed=args.seed,
        )
    except simulator.SimulationError as exc:
        _fail(str(exc), EXIT_MODEL)

    if args.as_json:
        run = {
            "status": result.status,
            "steps": result.state.step_count,
            "fired": sorted(result.fired_nodes()),
            "trace": [str(e) for e in result.trace],
        }
        sys.stdout.write(fmt.json_text(run) + "\n")
    else:
        sys.stdout.write(f"{simulator.render_trace(result.trace)}status: {result.status}\n")
    if result.status == "deadlocked":
        return EXIT_DEADLOCK
    if result.status == "step_limit":
        return EXIT_STEP_LIMIT
    return EXIT_OK


def patterns_cmd(args: argparse.Namespace) -> int:
    """Report which capability-matrix rows a model exercises."""
    from . import patterns

    matrix = None  # with --json, written with the instances as one document
    if args.show_matrix:
        if args.as_json:
            matrix = {
                key: {"bpmn": a.value, "bpdmn": b.value}
                for key, (a, b) in patterns.capability_matrix().items()
            }
        else:
            sys.stdout.write(patterns.render_matrix())
        if args.model_file is None:
            if matrix is not None:
                sys.stdout.write(fmt.json_text(matrix) + "\n")
            return EXIT_OK
    if args.model_file is None:
        _fail("provide a model file or --matrix", EXIT_IO)
    diagram = _load(args.model_file)
    try:
        report = patterns.analyze(diagram)
    except patterns.InvalidDiagramError as exc:
        _fail(str(exc), EXIT_MODEL)
    found = {key: ids for key, ids in sorted(report.instances.items()) if ids}
    if args.as_json:
        document = found if matrix is None else {"matrix": matrix, "instances": found}
        sys.stdout.write(fmt.json_text(document) + "\n")
    else:
        for key, ids in found.items():
            shown = ", ".join("{" + ", ".join(w) + "}" for w in ids)
            sys.stdout.write(f"{key}: {len(ids)} instance(s): {shown}\n")
    return EXIT_OK


def render_cmd(args: argparse.Namespace) -> int:
    """Emit a Graphviz dot drawing of the model."""
    from . import render

    _write_out(render.to_dot(_load(args.model_file), hide_data=args.hide_data), args.output)
    return EXIT_OK


def _step_count(text: str) -> int:
    """*text* as a ``--max-steps`` value: an integer of at least 0."""
    try:
        steps = int(text)
    except ValueError:
        steps = -1
    if steps < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative integer value: {text!r}")
    return steps


@functools.cache
def _parser(prog: str) -> argparse.ArgumentParser:
    """The argument parser, built once per program name."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Tooling for data-extended BPMN models: validation, pattern analysis, "
        "translation to BPEL and XPDL, and simulation.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"bpdmn, version {__version__}")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name: str, run, model_nargs: str | None = None) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        sub.add_argument("model_file", metavar="MODEL_FILE", nargs=model_nargs)
        return sub

    sub = command("validate", validate)
    sub.add_argument("--json", dest="as_json", action="store_true", help="Emit diagnostics as JSON.")

    sub = command("translate", translate)
    sub.add_argument("--to", dest="target", choices=("bpel", "xpdl"), required=True)
    sub.add_argument("-o", "--output", metavar="PATH", help="Output file (default stdout).")

    sub = command("simulate", simulate)
    sub.add_argument(
        "--max-steps",
        type=_step_count,
        default=1000,
        metavar="INTEGER",
        help="Fire at most this many nodes [default: 1000]; a run still going after them ends with "
        "status step_limit and exit code 4.",
    )
    sub.add_argument("--policy", choices=("smallest", "random"), default="smallest", help="[default: smallest]")
    sub.add_argument("--seed", type=int, default=0, metavar="INTEGER", help="[default: 0]")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="OBJ.VAR=VALUE",
        help="Override a start input (repeatable). VALUE is parsed as JSON when possible; "
        "it must be a string, number, boolean or null.",
    )
    sub.add_argument("--json", dest="as_json", action="store_true", help="Emit the run result as JSON.")

    sub = command("patterns", patterns_cmd, model_nargs="?")
    sub.add_argument("--matrix", dest="show_matrix", action="store_true", help="Print the static capability matrix.")
    sub.add_argument("--json", dest="as_json", action="store_true", help="Emit results as JSON.")

    sub = command("render", render_cmd)
    sub.add_argument("--hide-data", action="store_true", help="Suppress data objects, stores and data connectors.")
    sub.add_argument("-o", "--output", metavar="PATH", help="Output file (default stdout).")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run one ``bpdmn`` call on *args* (default ``sys.argv[1:]``), with
    *prog_name* (default ``bpdmn``) in usage messages. Always ends in
    ``SystemExit`` with the exit code."""
    namespace = _parser(prog_name or "bpdmn").parse_args(args)
    try:
        code = namespace.run(namespace)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away (``bpdmn render m | head -1``): end
        # quietly, so the interpreter's last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_MODEL
    raise SystemExit(code)


main.main = main  # perfbench/run.py calls main.main(args=..., prog_name=...)


if __name__ == "__main__":
    main()
