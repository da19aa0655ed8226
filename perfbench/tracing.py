"""Spans and counters at the layer boundaries of ``bpdmn``, installed from
outside the package by rebinding names.

Layer entry points get spans (name, start, end, parent span, request id).
The hot derived-view helpers and lookups get counters only, so tracing stays
cheap. Names bound into consumer modules with ``from ... import`` are
rebound in every ``bpdmn`` module that holds them. A layer whose function no
longer exists is recorded as absent, and its metrics are left out.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _observe_witnesses(tracer: Tracer, report) -> None:
    tracer.counts[tracer.current]["patterns.witnesses"] += sum(len(w) for w in report.instances.values())


def _observe_output(key: str):
    def observe(tracer: Tracer, result) -> None:
        tracer.counts[tracer.current][key] += len(result[0].encode("utf-8"))

    return observe


def _observe_trace(tracer: Tracer, result) -> None:
    tracer.counts[tracer.current]["simulator.trace_events"] += len(result.trace)


def _observe_enabled(tracer: Tracer, ready) -> None:
    peaks = tracer.peaks[tracer.current]
    peaks["simulator.peak_enabled"] = max(peaks["simulator.peak_enabled"], len(ready))


def _observe_outcomes(tracer: Tracer, outcomes) -> None:
    tracer.counts[tracer.current]["oracle.outcomes"] += len(outcomes)


# (module, attribute, span name, observer of the result)
SPANS = (
    ("format", "parse_diagram", "format.parse", None),
    ("format", "serialize_diagram", "format.serialize", None),
    ("validator", "validate", "validator.validate", None),
    ("patterns", "analyze", "patterns.analyze", _observe_witnesses),
    ("codegen_bpel", "to_bpel", "codegen_bpel.to_bpel", _observe_output("codegen_bpel.out_bytes")),
    ("codegen_xpdl", "to_xpdl", "codegen_xpdl.to_xpdl", _observe_output("codegen_xpdl.out_bytes")),
    ("render", "to_dot", "render.to_dot", None),
    ("simulator", "init", "simulator.init", None),
    ("simulator", "run", "simulator.run", _observe_trace),
    ("simulator", "enabled", "simulator.enabled", _observe_enabled),
    ("simulator", "step", "simulator.step", None),
    ("simulator", "explore_interleavings", "oracle.explore", _observe_outcomes),
)

# (module, attribute, counter name, also accumulate time)
COUNTERS = (
    ("model", "node_inputs", "model.node_inputs", True),
    ("model", "node_outputs", "model.node_outputs", False),
    ("model", "reaches", "model.reaches", False),
)

# Diagram methods counted together as model.lookup
LOOKUPS = ("node", "object", "pool_of")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.requests: list[str] = []  # request id -> kind
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.timers: dict[int, Counter] = defaultdict(Counter)
        self.peaks: dict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self.current = -1
        self.factors: dict[int, float] = {}  # request id -> scale factor of its call

    # -- request scope

    def begin(self, kind: str) -> int:
        self.requests.append(kind)
        self.current = len(self.requests) - 1
        self.stack = []
        return self.current

    # -- wrappers

    def span(self, name: str, fn, observe=None):
        spans = self.spans

        def traced(*args, **kwargs):
            index = len(spans)
            parent = self.stack[-1] if self.stack else -1
            record = [name, perf_counter(), 0.0, parent, self.current]
            spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def counter(self, name: str, fn, timed: bool):
        counts, timers = self.counts, self.timers

        if not timed:
            def counted(*args, **kwargs):
                counts[self.current][name] += 1
                return fn(*args, **kwargs)

            return counted

        def counted_timed(*args, **kwargs):
            counts[self.current][name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[self.current][name] += perf_counter() - start

        return counted_timed

    # -- installation

    def install(self, package: str = "bpdmn") -> list:
        """Rebind every traced name; returns undo records for :func:`uninstall`."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        undo = []
        for mod_name, attr, name, observer in SPANS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            undo += _rebind(modules, original, self.span(name, original, observer))
        for mod_name, attr, name, timed in COUNTERS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            undo += _rebind(modules, original, self.counter(name, original, timed))
        # eval_expr as the simulator looks it up: store filters, guards, effects
        sim = sys.modules.get(f"{package}.simulator")
        if sim is not None and hasattr(sim, "eval_expr"):
            undo.append((sim, "eval_expr", sim.eval_expr))
            sim.eval_expr = self.counter("simulator.eval_expr", sim.eval_expr, False)
        else:
            self.absent.append("simulator.eval_expr")
        model = sys.modules.get(f"{package}.model")
        diagram_cls = getattr(model, "Diagram", None)
        for method in LOOKUPS:
            original = getattr(diagram_cls, method, None)
            if original is None:
                self.absent.append(f"model.lookup.{method}")
                continue
            undo.append((diagram_cls, method, original))
            setattr(diagram_cls, method, self.counter("model.lookup", original, False))
        return undo


def uninstall(undo: list) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


def _rebind(modules, original, wrapper) -> list:
    undo = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, wrapper)
    return undo


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


def per_request(tracer: Tracer):
    """Per request: {span name: [total ms, total self ms, count]}."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for i, (name, start, end, parent, request) in enumerate(tracer.spans):
        factor = tracer.factors.get(request, 1.0) * 1e3
        entry = table[request][name]
        entry[0] += (end - start) * factor
        entry[1] += (end - start - child[i]) * factor
        entry[2] += 1
    return table


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the traced requests. CLI requests have kind
    ``cli:<command>``; library requests are ``roundtrip`` and ``oracle``."""
    table = per_request(tracer)
    kinds = tracer.requests
    cli = [r for r, k in enumerate(kinds) if k.startswith("cli:")]
    simulate = [r for r, k in enumerate(kinds) if k == "cli:simulate"]
    oracle = [r for r, k in enumerate(kinds) if k == "oracle"]

    # Cheap calls repeat more often in a round, so values are reduced per
    # request kind first and then averaged over kinds: the mix of kinds,
    # which follows the machine's speed, does not weigh in.
    def per_kind(requests, value, reduce):
        groups = defaultdict(list)
        for r in requests:
            groups[kinds[r]].append(value(r))
        return _mean([reduce(g) for g in groups.values()])

    def self_ms(name, requests):
        return per_kind([r for r in requests if name in table[r]], lambda r: table[r][name][1], _median)

    def total_ms(name, requests):
        return per_kind([r for r in requests if name in table[r]], lambda r: table[r][name][0], _median)

    def spans_per(name, requests):
        return per_kind(requests, lambda r: table[r][name][2] if name in table[r] else 0, _mean)

    def count_per(name, requests):
        return per_kind(requests, lambda r: tracer.counts[r][name], _mean)

    def with_span(name):
        return [r for r in range(len(kinds)) if name in table[r]]

    m: dict[str, float | None] = {}
    m["cli.self_ms"] = self_ms("cli", cli)
    m["format.parse_ms"] = self_ms("format.parse", with_span("format.parse"))
    m["format.serialize_ms"] = self_ms("format.serialize", with_span("format.serialize"))
    m["validator.validate_ms"] = self_ms("validator.validate", with_span("validator.validate"))
    m["validator.calls_per_cli"] = spans_per("validator.validate", cli)
    m["model.node_inputs.calls"] = count_per("model.node_inputs", cli)
    m["model.node_outputs.calls"] = count_per("model.node_outputs", cli)
    m["model.reaches.calls"] = count_per("model.reaches", cli)
    m["model.lookup.calls"] = count_per("model.lookup", cli)
    m["model.node_inputs_ms"] = per_kind(
        cli, lambda r: tracer.timers[r]["model.node_inputs"] * 1e3 * tracer.factors.get(r, 1.0), _mean
    )
    m["patterns.analyze_ms"] = self_ms("patterns.analyze", with_span("patterns.analyze"))
    analyze = with_span("patterns.analyze")
    m["patterns.witnesses"] = count_per("patterns.witnesses", analyze)
    m["codegen_bpel.to_bpel_ms"] = self_ms("codegen_bpel.to_bpel", with_span("codegen_bpel.to_bpel"))
    m["codegen_xpdl.to_xpdl_ms"] = self_ms("codegen_xpdl.to_xpdl", with_span("codegen_xpdl.to_xpdl"))
    bpel = with_span("codegen_bpel.to_bpel")
    xpdl = with_span("codegen_xpdl.to_xpdl")
    out = count_per("codegen_bpel.out_bytes", bpel)
    m["codegen_bpel.out_kb"] = out / 1024 if out is not None else None
    out = count_per("codegen_xpdl.out_bytes", xpdl)
    m["codegen_xpdl.out_kb"] = out / 1024 if out is not None else None
    m["render.to_dot_ms"] = self_ms("render.to_dot", with_span("render.to_dot"))
    m["simulator.init_ms"] = total_ms("simulator.init", simulate)
    m["simulator.enabled.calls"] = spans_per("simulator.enabled", simulate)
    m["simulator.enabled_ms"] = self_ms("simulator.enabled", simulate)
    enabled_calls = sum(table[r]["simulator.enabled"][2] for r in simulate if "simulator.enabled" in table[r])
    step_calls = sum(table[r]["simulator.step"][2] for r in simulate if "simulator.step" in table[r])
    m["simulator.enabled_per_step"] = enabled_calls / step_calls if step_calls else None
    m["simulator.step_ms"] = self_ms("simulator.step", simulate)
    m["simulator.steps"] = spans_per("simulator.step", simulate)
    m["simulator.peak_enabled"] = max((tracer.peaks[r]["simulator.peak_enabled"] for r in simulate), default=None)
    m["simulator.eval_calls"] = count_per("simulator.eval_expr", simulate)
    m["simulator.trace_events"] = count_per("simulator.trace_events", simulate)
    m["oracle.explore_ms"] = total_ms("oracle.explore", oracle)
    # explore checks enablement once per distinct state; step checks it again
    spans = tracer.spans
    states = Counter(
        r for name, _, _, parent, r in spans if name == "simulator.enabled" and parent >= 0 and spans[parent][0] == "oracle.explore"
    )
    m["oracle.states"] = _mean([states[r] for r in oracle])
    m["oracle.transitions"] = spans_per("simulator.step", oracle)
    m["oracle.outcomes"] = count_per("oracle.outcomes", oracle)
    m["oracle.self_ms"] = self_ms("oracle.explore", oracle)
    m.update(extra)
    # a metric resting on a span or counter that could not be installed is absent
    for name in tracer.absent:
        for metric in RESTS_ON.get(name, ()):
            m[metric] = None
    return {k: v for k, v in m.items() if v is not None}


# span or counter -> the per-layer metrics computed from it
RESTS_ON = {
    "format.parse": ("format.parse_ms",),
    "format.serialize": ("format.serialize_ms",),
    "validator.validate": ("validator.validate_ms", "validator.calls_per_cli"),
    "patterns.analyze": ("patterns.analyze_ms", "patterns.witnesses"),
    "codegen_bpel.to_bpel": ("codegen_bpel.to_bpel_ms", "codegen_bpel.out_kb"),
    "codegen_xpdl.to_xpdl": ("codegen_xpdl.to_xpdl_ms", "codegen_xpdl.out_kb"),
    "render.to_dot": ("render.to_dot_ms",),
    "simulator.init": ("simulator.init_ms",),
    "simulator.run": ("simulator.trace_events",),
    "simulator.enabled": (
        "simulator.enabled.calls",
        "simulator.enabled_ms",
        "simulator.enabled_per_step",
        "simulator.peak_enabled",
        "oracle.states",
    ),
    "simulator.step": ("simulator.step_ms", "simulator.steps", "simulator.enabled_per_step", "oracle.transitions"),
    "oracle.explore": ("oracle.explore_ms", "oracle.states", "oracle.transitions", "oracle.outcomes", "oracle.self_ms"),
    "simulator.eval_expr": ("simulator.eval_calls",),
    "model.node_inputs": ("model.node_inputs.calls", "model.node_inputs_ms"),
    "model.node_outputs": ("model.node_outputs.calls",),
    "model.reaches": ("model.reaches.calls",),
    "model.lookup.node": ("model.lookup.calls",),
    "model.lookup.object": ("model.lookup.calls",),
    "model.lookup.pool_of": ("model.lookup.calls",),
}


def dump_spans(tracer: Tracer) -> dict:
    return {
        "requests": tracer.requests,
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "request": r} for n, s, e, p, r in tracer.spans
        ],
        "absent": tracer.absent,
        "factors": {str(r): f for r, f in tracer.factors.items()},
    }
