"""Workflow Data Pattern capability matrix and structural detectors.

The matrix is one table, :data:`PATTERNS`: 40 numbered patterns plus four
additional requirement rows, each written once with its name, its group, its
support level in plain BPMN and its detector. A detector is this toolchain's
structural interpretation of a pattern the data-extended notation supports:
it documents its predicate in one sentence and returns witness element-id
sets found in a concrete model. A row's data-extended support is "supported"
exactly when it has a detector; the four rows without one (3, 6, 35, 37)
always report empty. The matrix, the unsupported keys and the rendered
table are read off the rows. A row (:class:`Pattern`) and the result of an
analysis (:class:`PatternReport`) are named tuples.

:func:`analyze` builds the relations the detectors share (tasks and nodes by
kind, each object's producers and consumers, environment source and sink
stores, the stores each node accesses, each node's pool, the message flows
to or from a black-box pool) once per diagram, from the diagram's index, and
each detector is a query over them.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from . import validator
from .expr import expr_refs
from .model import Diagram, Node, NodeIO


class Support(str, Enum):
    SUPPORTED = "supported"
    PARTIAL = "partial"
    UNSUPPORTED = "unsupported"

    @property
    def symbol(self) -> str:
        return {"supported": "+", "partial": "+/-", "unsupported": "-"}[self.value]


_S, _P, _U = Support.SUPPORTED, Support.PARTIAL, Support.UNSUPPORTED


Witness = frozenset[str]


class PatternReport(NamedTuple):
    """The instances :func:`analyze` found of each pattern."""

    # pattern key -> each witness found, as its sorted element ids, sorted
    instances: dict[str, list[tuple[str, ...]]]


class InvalidDiagramError(ValueError):
    """Raised when analyze() is given a diagram with validation errors."""


# ---------------------------------------------------------------------------
# Facts


class _Facts:
    """The relations the detectors query, built once per analyzed diagram
    from its index."""

    def __init__(self, d: Diagram) -> None:
        index = d.index
        self.d = d
        self.index = index
        self.kinds: dict[str, list[Node]] = {}  # node kind -> nodes, in pre-order
        # (node id, NodeIO) over every node's inputs and outputs
        self.inputs: list[tuple[str, NodeIO]] = []
        self.outputs: list[tuple[str, NodeIO]] = []
        for node_id, node in index.nodes.items():
            self.kinds.setdefault(node.kind, []).append(node)
            self.inputs += [(node_id, io) for io in index.inputs.get(node_id, ())]
            self.outputs += [(node_id, io) for io in index.outputs.get(node_id, ())]
        self.tasks = self.kinds.get("task", [])
        self.task_ids = {n.id for n in self.tasks}
        self.multi_instance = [n for n in self.tasks if n.multi_instance]
        # object id -> nodes producing / consuming it over sequence and explicit flows
        self.producers: dict[str, set[str]] = {}
        self.consumers: dict[str, set[str]] = {}
        for pairs, table in ((self.outputs, self.producers), (self.inputs, self.consumers)):
            for node_id, io in pairs:
                if io.channel in ("sequence", "explicit"):
                    table.setdefault(io.object, set()).add(node_id)
        self.readers, self.writers = index.readers, index.writers
        # stores only read inside the diagram hold data the environment owns;
        # stores only written hand data to the environment
        self.env_sources = [s for s in d.stores if self.readers.get(s.id) and not self.writers.get(s.id)]
        self.env_sinks = [s for s in d.stores if self.writers.get(s.id) and not self.readers.get(s.id)]
        self.accessed: dict[str, set[str]] = {}  # node id -> declared stores it reads or writes
        for store in d.stores:
            for node_id in self.accessors(store.id):
                self.accessed.setdefault(node_id, set()).add(store.id)
        self.data_flows = [flow for pool in d.pools for flow in pool.explicit_data_flows]
        self.black_boxes, self.black_box_flows = index.black_boxes, index.external_flows.values()

    def accessors(self, store_id: str) -> set[str]:
        return self.readers.get(store_id, set()) | self.writers.get(store_id, set())

    def pools(self, node_ids: set[str]) -> set[str]:
        """The pools holding any of the nodes."""
        pool_of = self.index.pool_of
        return {pool_of[n].id for n in node_ids if n in pool_of}


# ---------------------------------------------------------------------------
# Detectors. Each is a query over the facts returning witness element-id sets.


def _d01(f: _Facts) -> list[Witness]:
    """A task produces a data object of its own (output attachment)."""
    outputs = f.index.outputs
    return [
        frozenset({n.id, io.object})
        for n in f.tasks
        for io in outputs.get(n.id, ())
        if io.channel == "sequence"
    ]


def _d02(f: _Facts) -> list[Witness]:
    """A store is scoped to a sub-process block."""
    return [
        frozenset({s.id, s.scope.sub_process})
        for s in f.d.stores
        if s.scope.kind == "sub_process"
    ]


def _d04(f: _Facts) -> list[Witness]:
    """A multi-instance task keeps its data in a shared store."""
    return [frozenset({n.id, sid}) for n in f.multi_instance for sid in f.accessed.get(n.id, ())]


def _d05(f: _Facts) -> list[Witness]:
    """A diagram-scoped store is written and read within one pool (case data)."""
    return [
        frozenset({s.id, pool})
        for s in f.d.stores
        if s.scope.kind == "diagram"
        for pool in f.pools(f.writers.get(s.id, set())) & f.pools(f.readers.get(s.id, set()))
    ]


def _d07(f: _Facts) -> list[Witness]:
    """A diagram-scoped store is accessed from two or more pools."""
    out = []
    for s in f.d.stores:
        if s.scope.kind == "diagram":
            pools = f.pools(f.accessors(s.id))
            if len(pools) >= 2:
                out.append(frozenset({s.id} | pools))
    return out


def _d08(f: _Facts) -> list[Witness]:
    """A store read but never written inside the diagram models environment data."""
    return [frozenset({s.id}) for s in f.env_sources]


def _d09(f: _Facts) -> list[Witness]:
    """An object output by one task is an input of a different task."""
    task_ids = f.task_ids
    return [
        frozenset({p, c, obj})
        for obj, prods in f.producers.items()
        for p in prods & task_ids
        for c in f.consumers.get(obj, set()) & task_ids
        if p != c
    ]


def _d10(f: _Facts) -> list[Witness]:
    """An object flows into a sub-process as input."""
    inputs = f.index.inputs
    return [
        frozenset({n.id, io.object}) for n in f.kinds.get("sub_process", ()) for io in inputs.get(n.id, ())
    ]


def _d11(f: _Facts) -> list[Witness]:
    """A sub-process hands an object out as output."""
    outputs = f.index.outputs
    return [
        frozenset({n.id, io.object}) for n in f.kinds.get("sub_process", ()) for io in outputs.get(n.id, ())
    ]


def _d12(f: _Facts) -> list[Witness]:
    """Data flows into a multi-instance task (attachment or store extraction)."""
    inputs = f.index.inputs
    return [frozenset({n.id, io.object}) for n in f.multi_instance for io in inputs.get(n.id, ())]


def _d13(f: _Facts) -> list[Witness]:
    """Data flows out of a multi-instance task (attachment or store insertion)."""
    outputs = f.index.outputs
    return [frozenset({n.id, io.object}) for n in f.multi_instance for io in outputs.get(n.id, ())]


def _d14(f: _Facts) -> list[Witness]:
    """A diagram-scoped store is written in one pool and read in another."""
    return [
        frozenset({s.id, wp, rp})
        for s in f.d.stores
        if s.scope.kind == "diagram"
        for wp in f.pools(f.writers.get(s.id, set()))
        for rp in f.pools(f.readers.get(s.id, set()))
        if wp != rp
    ]


def _d15(f: _Facts) -> list[Witness]:
    """A node sends an object on a message flow to a black-box pool."""
    return [
        frozenset({flow.id, flow.source, att.object})
        for flow in f.black_box_flows
        if flow.target in f.black_boxes
        for att in flow.attachments
        if att.direction == "output"
    ]


def _d16(f: _Facts) -> list[Witness]:
    """A task extracts an object from an environment-owned (read-only) store."""
    env = {s.id for s in f.env_sources}
    return [frozenset({flow.target, flow.source, flow.object}) for flow in f.data_flows if flow.source in env]


def _d17(f: _Facts) -> list[Witness]:
    """A black-box pool pushes an object to a task over a message flow."""
    return [
        frozenset({flow.id, flow.target, att.object})
        for flow in f.black_box_flows
        if flow.source in f.black_boxes and flow.target in f.task_ids
        for att in flow.attachments
        if att.direction == "input"
    ]


def _d18(f: _Facts) -> list[Witness]:
    """A task deposits an object in a store nothing in the diagram reads."""
    env = {s.id for s in f.env_sinks}
    return [frozenset({flow.source, flow.target, flow.object}) for flow in f.data_flows if flow.target in env]


def _d19(f: _Facts) -> list[Witness]:
    """A pool (case) pushes data to the environment through a write-only store."""
    return [frozenset({pool, s.id}) for s in f.env_sinks for pool in f.pools(f.writers[s.id])]


def _d20(f: _Facts) -> list[Witness]:
    """A pool (case) pulls data from an environment-owned store."""
    return [frozenset({pool, s.id}) for s in f.env_sources for pool in f.pools(f.readers[s.id])]


def _d21(f: _Facts) -> list[Witness]:
    """The environment pushes data into a case through a message start event."""
    outputs = f.index.outputs
    return [
        frozenset({n.id, io.object})
        for n in f.kinds.get("start_event_message", ())
        for io in outputs.get(n.id, ())
        if io.channel == "sequence"
    ]


def _d22(f: _Facts) -> list[Witness]:
    """The environment pulls case results: an object is sent out to a
    black-box pool."""
    pool_of = f.index.pool_of
    return [
        frozenset({pool_of[flow.source].id, flow.id, att.object})
        for flow in f.black_box_flows
        if flow.target in f.black_boxes
        for att in flow.attachments
        if att.direction == "output"
    ]


def _d23(f: _Facts) -> list[Witness]:
    """At workflow level, data is pushed to the environment via a write-only
    diagram-scoped store."""
    return [frozenset({s.id}) for s in f.env_sinks if s.scope.kind == "diagram"]


def _d24(f: _Facts) -> list[Witness]:
    """At workflow level, data is pulled from an environment-owned
    diagram-scoped store."""
    return [frozenset({s.id}) for s in f.env_sources if s.scope.kind == "diagram"]


def _d25(f: _Facts) -> list[Witness]:
    """A black-box pool pushes a message that starts a process (message flow
    into a start event)."""
    starts = {n.id for n in f.kinds.get("start_event_message", ())}
    return [
        frozenset({flow.id, flow.target})
        for flow in f.black_box_flows
        if flow.source in f.black_boxes and flow.target in starts
    ]


def _d26(f: _Facts) -> list[Witness]:
    """At workflow level, the environment pulls results over a message flow
    to a black-box pool."""
    return [
        frozenset({flow.id, flow.target})
        for flow in f.black_box_flows
        if flow.target in f.black_boxes and flow.attachments
    ]


def _d27(f: _Facts) -> list[Witness]:
    """A structured object (with variables) is passed into a node by value."""
    objects = f.index.objects
    return [
        frozenset({node_id, io.object})
        for node_id, io in f.inputs
        if io.channel == "sequence" and objects[io.object].variables
    ]


def _d28(f: _Facts) -> list[Witness]:
    """A structured object (with variables) is passed out of a node by value."""
    objects = f.index.objects
    return [
        frozenset({node_id, io.object})
        for node_id, io in f.outputs
        if io.channel == "sequence" and objects[io.object].variables
    ]


def _d29(f: _Facts) -> list[Witness]:
    """A node copies data out of a store and back into the same store."""
    return [
        frozenset({node_id, s.id})
        for s in f.d.stores
        for node_id in f.readers.get(s.id, set()) & f.writers.get(s.id, set())
    ]


def _d30(f: _Facts) -> list[Witness]:
    """An object carrying a URL is passed around as an unlocked reference."""
    used = {io.object for _, io in f.inputs} | {io.object for _, io in f.outputs}
    return [frozenset({obj.id}) for obj in f.d.objects if obj.url is not None and obj.id in used]


def _d31(f: _Facts) -> list[Witness]:
    """An object bound to a store (origin store reference) is passed between
    nodes; access goes through the engine-managed store."""
    objects = f.index.objects
    return [
        frozenset({node_id, io.object, origin})
        for node_id, io in f.inputs
        if io.channel == "sequence" and (origin := objects[io.object].origin_store) is not None
    ]


def _d32(f: _Facts) -> list[Witness]:
    """A data mapping transforms data into the input format of a node."""
    return [frozenset({m.id}) for m in f.d.mappings if f.consumers.get(m.target_object)]


def _d33(f: _Facts) -> list[Witness]:
    """A data mapping transforms data produced as the output of a node."""
    produced = {io.object for _, io in f.outputs}
    return [frozenset({m.id}) for m in f.d.mappings if m.source_object in produced]


def _d34(f: _Facts) -> list[Witness]:
    """A task waits on a required (non-optional) input object."""
    inputs = f.index.inputs
    return [frozenset({n.id, io.object}) for n in f.tasks for io in inputs.get(n.id, ()) if not io.optional]


def _d36(f: _Facts) -> list[Witness]:
    """A task guarantees an output object exists on completion."""
    outputs = f.index.outputs
    return [frozenset({n.id, io.object}) for n in f.tasks for io in outputs.get(n.id, ())]


def _d38(f: _Facts) -> list[Witness]:
    """A message event (start or intermediate) carrying data triggers work."""
    index = f.index
    return [
        frozenset({n.id})
        for kind in ("start_event_message", "intermediate_message")
        for n in f.kinds.get(kind, ())
        if index.inputs.get(n.id) or index.outputs.get(n.id)
    ]


def _d39(f: _Facts) -> list[Witness]:
    """A node-to-node explicit data flow enables the downstream node."""
    stores = f.index.stores
    return [
        frozenset({flow.id, flow.source, flow.target})
        for flow in f.data_flows
        if flow.source not in stores and flow.target not in stores
    ]


def _d40(f: _Facts) -> list[Witness]:
    """A data-based exclusive gateway routes on a guard over object data."""
    nodes = f.index.nodes
    return [
        frozenset({flow.source, flow.id})
        for flow in f.index.flows.values()
        if nodes[flow.source].kind == "gateway_exclusive_data"
        and flow.guard is not None
        and expr_refs(flow.guard)
    ]


def _d_structure(f: _Facts) -> list[Witness]:
    """A store exposes ER structure, or an object carries typed variables."""
    return [frozenset({s.id}) for s in f.d.stores if any(e.fields for e in s.entities)] + [
        frozenset({obj.id}) for obj in f.d.objects if obj.variables
    ]


def _d_explicit_data_flow(f: _Facts) -> list[Witness]:
    """The model uses a dashed explicit data flow connector."""
    return [frozenset({flow.id}) for flow in f.data_flows]


def _d_data_control_flow(f: _Facts) -> list[Witness]:
    """An object rides a control (sequence) flow and gates its target."""
    return [frozenset({flow.id, att.object}) for flow in f.index.flows.values() for att in flow.attachments]


def _d_process_data_store(f: _Facts) -> list[Witness]:
    """The model declares a data store."""
    return [frozenset({s.id}) for s in f.d.stores]


class Pattern(NamedTuple):
    """One row of the capability matrix: a Workflow Data Pattern (numbered
    1-40) or an additional requirement, with its support in plain BPMN and
    the detector of its instances in BPDMN (``None``: BPDMN does not support
    it either)."""

    key: str  # "1".."40" or an extra-row name
    name: str
    group: str
    bpmn: Support
    detector: Callable[[_Facts], list[Witness]] | None

    @property
    def number(self) -> int | None:
        return int(self.key) if self.key.isdigit() else None

    @property
    def bpdmn(self) -> Support:
        return Support.SUPPORTED if self.detector else Support.UNSUPPORTED


PATTERNS: list[Pattern] = [
    Pattern("1", "Task data", "data visibility", _S, _d01),
    Pattern("2", "Block data", "data visibility", _S, _d02),
    Pattern("3", "Scope data", "data visibility", _U, None),
    Pattern("4", "Multiple Instance data", "data visibility", _P, _d04),
    Pattern("5", "Case data", "data visibility", _S, _d05),
    Pattern("6", "Folder data", "data visibility", _U, None),
    Pattern("7", "Workflow data", "data visibility", _U, _d07),
    Pattern("8", "Environment data", "data visibility", _U, _d08),
    Pattern("9", "Data Interaction between Tasks", "data interaction (internal)", _S, _d09),
    Pattern("10", "Block Task to Sub-workflow Decomposition", "data interaction (internal)", _S, _d10),
    Pattern("11", "Sub-workflow Decomposition to Block Task", "data interaction (internal)", _S, _d11),
    Pattern("12", "To Multiple Instance Task", "data interaction (internal)", _U, _d12),
    Pattern("13", "From Multiple Instance Task", "data interaction (internal)", _U, _d13),
    Pattern("14", "Case to Case", "data interaction (internal)", _U, _d14),
    Pattern("15", "Task to Environment - Push", "data interaction (external)", _S, _d15),
    Pattern("16", "Environment to Task - Pull", "data interaction (external)", _S, _d16),
    Pattern("17", "Environment to Task - Push", "data interaction (external)", _S, _d17),
    Pattern("18", "Task to Environment - Pull", "data interaction (external)", _S, _d18),
    Pattern("19", "Case to Environment - Push", "data interaction (external)", _U, _d19),
    Pattern("20", "Environment to Case - Pull", "data interaction (external)", _U, _d20),
    Pattern("21", "Environment to Case - Push", "data interaction (external)", _U, _d21),
    Pattern("22", "Case to Environment - Pull", "data interaction (external)", _U, _d22),
    Pattern("23", "Workflow to Environment - Push", "data interaction (external)", _U, _d23),
    Pattern("24", "Environment to Workflow - Pull", "data interaction (external)", _U, _d24),
    Pattern("25", "Environment to Workflow - Push", "data interaction (external)", _U, _d25),
    Pattern("26", "Workflow to Environment - Pull", "data interaction (external)", _U, _d26),
    Pattern("27", "Data Transfer by Value - Incoming", "data transfer", _S, _d27),
    Pattern("28", "Data Transfer by Value - Outcoming", "data transfer", _S, _d28),
    Pattern("29", "Data Transfer - Copy In/Copy Out", "data transfer", _P, _d29),
    Pattern("30", "Data Transfer by Reference - Unlocked", "data transfer", _U, _d30),
    Pattern("31", "Data Transfer by Reference - Locked", "data transfer", _S, _d31),
    Pattern("32", "Data Transformation - Input", "data transfer", _P, _d32),
    Pattern("33", "Data Transformation - Output", "data transfer", _P, _d33),
    Pattern("34", "Task Precondition - Data Existence", "data based routing", _S, _d34),
    Pattern("35", "Task Precondition - Data Value", "data based routing", _U, None),
    Pattern("36", "Task Postcondition - Data Existence", "data based routing", _S, _d36),
    Pattern("37", "Task Postcondition - Data Value", "data based routing", _U, None),
    Pattern("38", "Event-based Task Trigger", "data based routing", _S, _d38),
    Pattern("39", "Data-based Task Trigger", "data based routing", _S, _d39),
    Pattern("40", "Data-based Routing", "data based routing", _S, _d40),
    Pattern("structure", "Structure", "additional requirements", _U, _d_structure),
    Pattern("explicit_data_flow", "Explicit Data Flow", "additional requirements", _P, _d_explicit_data_flow),
    Pattern("data_control_flow", "Data / Control Flow", "additional requirements", _P, _d_data_control_flow),
    Pattern("process_data_store", "Process Data Store", "additional requirements", _U, _d_process_data_store),
]

def capability_matrix() -> dict[str, tuple[Support, Support]]:
    """The static 44-row matrix: pattern key -> (BPMN, BPDMN) support."""
    return {p.key: (p.bpmn, p.bpdmn) for p in PATTERNS}


def analyze(diagram: Diagram) -> PatternReport:
    """Run all structural detectors on a valid diagram.

    Instances are reported only for supported patterns; unsupported rows
    report empty lists. Raises :class:`InvalidDiagramError` when the
    diagram has validation errors.
    """
    problem = validator.errors_text(diagram)
    if problem is not None:
        raise InvalidDiagramError(problem)
    facts = _Facts(diagram)
    instances: dict[str, list[tuple[str, ...]]] = {}
    for pattern in PATTERNS:
        # deduplicated, then each witness sorted once
        found = set(pattern.detector(facts)) if pattern.detector else ()
        instances[pattern.key] = sorted(tuple(sorted(w)) for w in found)
    return PatternReport(instances=instances)


def render_matrix() -> str:
    """Fixed-width text table mirroring the capability comparison layout."""
    header = f"{'pattern':<48} {'BPMN':>5} {'BPDMN':>6}"
    lines = [header, "-" * len(header)]
    current_group = None
    for pattern in PATTERNS:
        if pattern.group != current_group:
            current_group = pattern.group
            lines.append(f"[{current_group}]")
        label = f"{pattern.number}. {pattern.name}" if pattern.number else pattern.name
        lines.append(f"{label:<48} {pattern.bpmn.symbol:>5} {pattern.bpdmn.symbol:>6}")
    return "\n".join(lines) + "\n"
