"""Benchmark of the bpdmn toolchain, end to end and per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory. ``--trace 0`` prints the end-to-end metrics, measured with
tracing off; ``--trace 1`` prints the per-layer metrics from a traced pass,
the tracing overhead against an untraced pass, span self times and a
cProfile top-10 per command. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

One process, no extra threads. Fresh processes (set-up probes and cold CLI
calls) run one at a time. Every timed pass first warms up, then visits the
models round-robin and runs every command on each, so drift in the machine
hits all metrics alike.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import checks  # noqa: E402
import models as model_gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("desk", "chain", "fanout", "interleave")
COMMANDS = {
    "validate": ("validate",),
    "bpel": ("translate", "--to", "bpel"),
    "xpdl": ("translate", "--to", "xpdl"),
    "patterns": ("patterns", "--json"),
    "simulate": ("simulate", "--json"),
    "render": ("render",),
}
OPERATIONS = (*COMMANDS, "roundtrip", "oracle")
SETUP_PROBES = 7
TRACE_IMPORT_PROBES = 3
COLD_TIMEOUT_S = 60
# The host changes this process's speed within seconds (see speed.py), so
# REFERENCE_SAMPLES reference timings follow every call, and each call time
# is scaled by the median of the reference timings just before and just
# after it (a fresh process by the cold reference timed right after it).
# A call's cost is the median of its scaled repeats, an operation's the
# median over models. Calls under CHEAP_MS run up to REPEATS times a visit,
# so cheap operations get more samples. A cold CLI call runs after a
# model's operations once COLD_EVERY_S have passed since the last one.
REFERENCE_SAMPLES = 3
CHEAP_MS = 15
REPEATS = 4
COLD_EVERY_S = 1.5
# The CLI tail is the highest percentile of all scaled in-process CLI calls
# with TAIL_BEYOND calls beyond it. It is printed but is not a bounded
# metric: a workload's few models and six commands give call times in
# clusters, and a percentile near the edge of the slowest cluster jumps
# between clusters from run to run (on interleave, x86_64 with 2 vCPUs,
# ten seeds gave a p95 of 5.1 to 7.7 ms).
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "cold_cli_ms": "ms",
    "validate_ms": "ms",
    "bpel_ms": "ms",
    "xpdl_ms": "ms",
    "patterns_ms": "ms",
    "simulate_ms": "ms",
    "render_ms": "ms",
    "roundtrip_ms": "ms",
    "oracle_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program():
    """Import ``bpdmn`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "bpdmn" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'bpdmn'}")
    sys.path.insert(0, str(SRC))
    import bpdmn.cli

    if Path(bpdmn.cli.__file__).resolve().parent != (SRC / "bpdmn").resolve():
        raise SystemExit(f"error: imported bpdmn from {bpdmn.cli.__file__}, not from {SRC}")
    return bpdmn


def prepare(workload: str, seed: int, work: Path) -> list[model_gen.Model]:
    """Generate the workload's models and write them where the program reads them."""
    if workload == "desk" and not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"error: no fixtures at {ROOT / 'fixtures'}")
    models = model_gen.workload_models(workload, seed, ROOT)
    work.mkdir(parents=True, exist_ok=True)
    for m in models:
        if m.path is None:
            m.path = work / f"{m.name}.bpdmn.json"
            m.path.write_text(m.text, encoding="utf-8")
    return models


class Bench:
    def __init__(self, bpdmn, models: list[model_gen.Model], tracer: tracing.Tracer | None = None):
        self.bpdmn = bpdmn
        self.models = models
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (metric, model name) -> call times in ms, scaled and raw
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.raw: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.pending: list[tuple[str, str, float]] = []  # not yet scaled
        self.factors: list[float] = []
        self.cold_factors: list[float] = []
        self.reference = [speed.sample() for _ in range(REFERENCE_SAMPLES)]
        # one pair of streams for every call, as in a process: click caches
        # each stream it writes to for good, so a fresh one per call would leak
        self.out, self.err = io.StringIO(), io.StringIO()
        # fresh processes always validate the largest model
        self.cold_model = max(models, key=lambda m: (len(m.text), m.name))
        self.next_cold = 0.0

    # -- one operation: run, time, check

    def _record(self, metric: str, elapsed: float | None, problems: list[str], model) -> float | None:
        """Count the operation and keep its time; returns the time in ms."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{model.name}: {'; '.join(problems)}")
        if elapsed is None:
            return None
        self.pending.append((metric, model.name, elapsed * 1e3))
        return elapsed * 1e3

    def call(self, name: str, model) -> float | None:
        """One call of a CLI command, ``roundtrip`` or ``oracle``, unscaled."""
        return self.cli(name, model) if name in COMMANDS else getattr(self, name)(model)

    def op(self, name: str, model) -> float | None:
        """One call, scaled by the reference timed just before and after it."""
        ms = self.call(name, model)
        after = [speed.sample() for _ in range(REFERENCE_SAMPLES)]
        factor = speed.REFERENCE_MS / statistics.median(self.reference + after)
        self.reference = after
        self.factors.append(factor)
        self.scale(factor)
        if self.tracer is not None:
            self.tracer.factors[self.tracer.current] = factor
        return ms

    def reset(self) -> None:
        """Forget the timings so far (after a warm-up); checks stay counted."""
        for timings in (self.samples, self.raw, self.pending, self.factors, self.cold_factors):
            timings.clear()

    def scale(self, factor: float) -> None:
        """Scale the pending call times by *factor* into the samples."""
        for metric, model, ms in self.pending:
            self.samples[(metric, model)].append(ms * factor)
            self.raw[(metric, model)].append(ms)
        self.pending.clear()

    def cli(self, command: str, model) -> float | None:
        argv = [COMMANDS[command][0], str(model.path), *COMMANDS[command][1:]]
        if command == "simulate":
            argv += model.simulate_args
        main = self.bpdmn.cli.main.main
        if self.tracer is not None:
            self.tracer.begin(f"cli:{command}")
            main = self.tracer.span("cli", main)
        out, err = self.out, self.err
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                main(args=argv, prog_name="bpdmn")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:  # a crash of the program counts as failed, not stop the run
                code = exc
            elapsed = perf_counter() - start
        try:
            if isinstance(code, Exception):
                problems = [f"{command}: raised {code!r}"]
            else:
                problems = checks.cli(model, command, code, out.getvalue())
        except Exception as exc:  # so does a malformed output
            problems = [f"{command}: check raised {exc!r}"]
        if command == "simulate" and model.fired is None and model.status is not None and not problems:
            # desk: the scheduler's fired set, for the oracle check and later runs
            model.fired = frozenset(json.loads(out.getvalue())["fired"])
        return self._record(f"{command}_ms", elapsed, problems, model)

    def roundtrip(self, model) -> float | None:
        fmt = self.bpdmn.format
        if self.tracer is not None:
            self.tracer.begin("roundtrip")
        try:
            start = perf_counter()
            text = fmt.serialize_diagram(fmt.parse_diagram(model.text))
            elapsed = perf_counter() - start
            problems = checks.roundtrip(model, text)
        except Exception as exc:
            elapsed, problems = None, [f"roundtrip: raised {exc!r}"]
        return self._record("roundtrip_ms", elapsed, problems, model)

    def oracle(self, model) -> float | None:
        if self.tracer is not None:
            self.tracer.begin("oracle")
        # a fresh diagram per call, so nothing cached on a diagram carries over
        diagram = self.bpdmn.format.parse_diagram(model.text)
        try:
            start = perf_counter()
            outcomes = self.bpdmn.simulator.explore_interleavings(diagram, max_steps=model.oracle_max_steps)
            elapsed = perf_counter() - start
            problems = checks.oracle(model, outcomes)
        except Exception as exc:
            elapsed, problems = None, [f"oracle: raised {exc!r}"]
        return self._record("oracle_ms", elapsed, problems, model)

    def cold_cli(self, model) -> None:
        argv = [sys.executable, "-m", "bpdmn.cli", "validate", str(model.path)]
        start = perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=COLD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self._record("cold_cli_ms", None, ["cold validate: timed out"], model)
            return
        elapsed = perf_counter() - start
        self._record("cold_cli_ms", elapsed, checks.cli(model, "validate", proc.returncode, proc.stdout), model)
        self.cold_factors.append(speed.COLD_REFERENCE_MS / speed.cold_sample(ROOT))
        self.scale(self.cold_factors[-1])

    # -- passes

    def visit(self, model, cold: bool, repeats: int = REPEATS) -> None:
        """Every operation on *model*, a cheap one up to *repeats* times."""
        for name in OPERATIONS:
            if name == "oracle" and not model.oracle:
                continue
            for _ in range(repeats):
                ms = self.op(name, model)
                if ms is None or ms >= CHEAP_MS:
                    break
        if cold and perf_counter() >= self.next_cold:
            self.cold_cli(self.cold_model)
            self.next_cold = perf_counter() + COLD_EVERY_S

    def warm_up(self, cold: bool) -> None:
        """Every operation on every model once, checked; the times are dropped."""
        for model in self.models:
            self.visit(model, cold, repeats=1)
        self.reset()

    def timed(self, seconds: float, cold: bool, probes=()) -> int:
        """Visit the models round-robin until *seconds* have passed and every
        model has been visited; returns the number of visits. *probes* are
        set-up probes to run evenly spread over the time, between visits, so
        they sample the machine as the calls do."""
        start = perf_counter()
        probes = list(probes)
        total = len(probes)
        visits = 0
        while visits < len(self.models) or perf_counter() < start + seconds or probes:
            if probes and perf_counter() >= start + seconds * (1 - len(probes) / total):
                probes.pop()()
                continue
            self.visit(self.models[visits % len(self.models)], cold)
            visits += 1
        return visits

    def gating(self) -> None:
        """Library check: a scheduler run fires no node before its required inputs."""
        sim = self.bpdmn.simulator
        for model in self.models:
            if not model.gating_check:
                continue
            diagram = self.bpdmn.format.parse_diagram(model.text)
            result = sim.run(diagram, max_steps=10 * (model.steps or 100))
            problems = [f"gating: {v}" for v in sim.check_data_gating(result.trace, diagram)][:3]
            if result.status != model.status:
                problems.append(f"gating: run status {result.status!r}")
            self._record("gating", None, problems, model)


# ---------------------------------------------------------------------------
# set-up


def probe(workload: str, seed: int) -> None:
    """Fresh-process set-up: import, generate and write the models, one
    warm-up call. Prints its timings as JSON."""
    start = perf_counter()
    bpdmn = import_program()
    imported = perf_counter()
    work = WORK / f"probe-{workload}-{seed}-{os.getpid()}"
    try:
        models = prepare(workload, seed, work)
        Bench(bpdmn, models).cli("validate", models[0])
        done = perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": done - start, "import_s": imported - start}))


def run_probe(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=COLD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# reporting


def quantile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def per_model(bench: Bench, samples=None) -> dict[str, dict[str, float]]:
    """metric -> model -> the model's median over repeated calls."""
    out: dict[str, dict[str, float]] = defaultdict(dict)
    for (metric, model), values in (bench.samples if samples is None else samples).items():
        out[metric][model] = statistics.median(values)
    return out


def call_metrics(bench: Bench, samples=None) -> dict[str, float]:
    """Per operation: the median over models of each model's call time."""
    return {metric: statistics.median(by_model.values()) for metric, by_model in per_model(bench, samples).items()}


def end_to_end(bench: Bench, setup: list[tuple[float, float]]) -> tuple[dict[str, float], list[str]]:
    metrics = {"setup_s": statistics.median(s * f for s, f in setup)}
    notes = [
        f"scale factors: in-process median {statistics.median(bench.factors):.4f} over {len(bench.factors)} "
        f"calls, fresh-process median {statistics.median(bench.cold_factors + [f for _, f in setup]):.4f}",
        f"setup_s: median of {len(setup)} fresh-process set-ups, raw {statistics.median(s for s, _ in setup):.4f} s",
    ]
    calls, raw = call_metrics(bench), call_metrics(bench, bench.raw)
    for name in E2E_UNITS:
        if name in calls:
            metrics[name] = calls[name]
            samples = [s for (metric, _), v in bench.raw.items() if metric == name for s in v]
            models = sum(1 for metric, _ in bench.raw if metric == name)
            notes.append(
                f"{name}: {len(samples)} calls on {models} model(s); raw {raw[name]:.4f}, "
                f"raw pooled median {statistics.median(samples):.4f}, raw max {max(samples):.4f}"
            )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: metrics[name] for name in E2E_UNITS if name in metrics}, notes


def print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units.get(name, '')}")


def result_line(bench: Bench, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def print_tail(bench: Bench) -> None:
    calls = [v for (metric, _), values in bench.samples.items() if metric[:-3] in COMMANDS for v in values]
    if len(calls) <= TAIL_BEYOND:
        print(f"  {'cli_tail_ms':34s} {'-':>14s} ms (only {len(calls)} in-process CLI calls)")
        return
    pct = 100 * (1 - TAIL_BEYOND / len(calls))
    print(f"  {'cli_tail_ms':34s} {quantile(calls, pct):14.6f} ms (p{pct:.2f} of {len(calls)} in-process CLI calls)")


def report_problems(bench: Bench) -> None:
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    ratio = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_ratio':34s} {ratio:14.6f} ratio ({bench.failed} failed of {bench.attempted} operations)")


def run_untraced(args, bpdmn, models) -> None:
    setup: list[tuple[float, float]] = []  # (seconds, scale factor)

    def probe_setup() -> None:
        seconds = run_probe(args.workload, args.seed)["setup_s"]
        setup.append((seconds, speed.COLD_REFERENCE_MS / speed.cold_sample(ROOT)))

    bench = Bench(bpdmn, models)
    bench.warm_up(cold=True)
    visits = bench.timed(args.seconds, cold=True, probes=[probe_setup] * SETUP_PROBES)
    bench.gating()
    metrics, notes = end_to_end(bench, setup)
    missing = [name for name in E2E_UNITS if name not in metrics]
    if missing:
        bench.failed += 1
        bench.problems.append(f"no samples for {missing}")
    print(f"workload {args.workload}, seed {args.seed}: {len(models)} models, {visits / len(models):.1f} rounds")
    for note in notes:
        print(f"  {note}")
    print_table("end-to-end", metrics, E2E_UNITS)
    print_tail(bench)
    report_problems(bench)
    print(result_line(bench, metrics, E2E_UNITS))


def profile_top10(bpdmn, models, seconds: float) -> str:
    """cProfile top-10 by self time, per command, over the first models."""
    buf = io.StringIO()
    for op in OPERATIONS:
        profiler = cProfile.Profile()
        bench = Bench(bpdmn, models)
        deadline = perf_counter() + seconds
        for model in models:
            if op == "oracle" and not model.oracle:
                continue
            profiler.enable()
            bench.call(op, model)
            profiler.disable()
            if perf_counter() > deadline:
                break
        if not bench.attempted:
            continue
        buf.write(f"== cProfile {op}: {bench.attempted} call(s), top 10 by self time\n")
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("tottime").print_stats(10)
    return buf.getvalue()


def run_traced(args, bpdmn, models) -> None:
    imports = [run_probe(args.workload, args.seed)["import_s"] * 1e3 for _ in range(TRACE_IMPORT_PROBES)]
    plain = Bench(bpdmn, models)
    plain.warm_up(cold=False)
    plain.timed(args.seconds * 0.4, cold=False)
    untraced = call_metrics(plain)

    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        traced_bench = Bench(bpdmn, models, tracer)
        traced_bench.timed(args.seconds * 0.4, cold=False)
    finally:
        tracing.uninstall(undo)
    traced = call_metrics(traced_bench)

    overhead_ms = {op: traced[op] - untraced[op] for op in untraced if op in traced}
    overhead_pct = {op: 100 * overhead_ms[op] / untraced[op] for op in overhead_ms}
    extra = {
        "cli.import_ms": statistics.median(imports),
        "format.model_kb": statistics.fmean(len(m.text.encode("utf-8")) / 1024 for m in models),
        "trace.overhead_ms": statistics.fmean(overhead_ms.values()),
        "trace.overhead_pct": statistics.fmean(overhead_pct.values()),
    }
    metrics = tracing.layer_metrics(tracer, extra)

    print(f"workload {args.workload}, seed {args.seed}: {len(models)} models, traced")
    print("== tracing overhead per operation (traced median - untraced median)")
    for op in sorted(overhead_ms):
        print(f"  {op:16s} untraced {untraced[op]:10.4f} ms  traced {traced[op]:10.4f} ms  "
              f"overhead {overhead_ms[op]:+9.4f} ms ({overhead_pct[op]:+6.1f}%)")
    print("== median self time per request (ms), by request kind and span")
    table = tracing.per_request(tracer)
    by_kind: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for request, kind in enumerate(tracer.requests):
        for name, (_, self_ms, _) in table[request].items():
            by_kind[kind][name].append(self_ms)
    for kind in sorted(by_kind):
        cells = ", ".join(f"{n} {statistics.median(v):.4f}" for n, v in sorted(by_kind[kind].items()))
        print(f"  {kind}: {cells}")
    if tracer.absent:
        print(f"absent layers (function not found, metrics left out): {tracer.absent}")
    profile = profile_top10(bpdmn, models, max(0.5, args.seconds * 0.05))
    print(profile)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{args.workload}-{args.seed}.spans.json").write_text(json.dumps(tracing.dump_spans(tracer)))
    (traces / f"{args.workload}-{args.seed}.profile.txt").write_text(profile)
    units = {name: _layer_unit(name) for name in metrics}
    print_table("per-layer", metrics, units)
    bench = traced_bench
    bench.attempted += plain.attempted
    bench.failed += plain.failed
    bench.problems += plain.problems
    report_problems(bench)
    print(result_line(bench, metrics, units))


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_kb"):
        return "KiB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_step") or name.endswith("per_cli"):
        return "ratio"
    return "count"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args.workload, args.seed)
        return
    bpdmn = import_program()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        models = prepare(args.workload, args.seed, work)
        if args.trace:
            run_traced(args, bpdmn, models)
        else:
            run_untraced(args, bpdmn, models)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
