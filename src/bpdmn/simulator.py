"""Deterministic token-and-data execution engine.

A node is enabled when its join condition holds (a token on every incoming
sequence flow for tasks and parallel joins, on at least one for exclusive
merges) and every non-optional input object is available: already bound,
deliverable from a store, carried by a message waiting on its message flow,
or producible by a data mapping whose source is available. The default
scheduling policy fires the enabled node with the smallest id, which makes
runs reproducible; a seeded random policy is available for exploratory runs.

Store reads are non-destructive, inserts append, and bindings persist for
the whole case once produced. An optional input that is absent when its
consumer fires is bound to null and never awaited. An object is bound
exactly when ``_bind_object`` has run for it: for a start input, a received
message, a store read, a mapping, an effect, a null optional input, or a
firing that outputs it. ``state.inbox`` queues messages per message flow,
oldest first; only the flow's target reads its queue.

A node's effects, store actions and instance count are its behaviour in
``diagram.behaviors``, the behaviours the validator checked; nothing else
supplies them. Only the start inputs can be overridden, by ``init`` and
``run``.

Only ``init`` and ``_clone`` build an ``ExecutionState``: ``ExecutionState()``
takes no argument and is the empty state, which ``init`` fills through the
writers a firing uses. Each field has its few writers, and a field derived
from another is kept by the writers of its source, so nothing recounts it:
``tokens`` and ``marked`` by ``_add_token`` and the consume loop of ``step``;
``bindings`` by ``_bind_object``; ``completed`` by ``init`` and ``step``;
``stores`` by ``_run_behavior``; ``inbox`` by ``_send_messages`` and
``_receive_messages``; ``step_count`` by ``step``; ``reads`` by
``_matching_record``. ``_clone`` copies them all.

A state and the trace events are records written out by hand, on the base
class of the model's elements: each equals only one of its own class with
equal fields, so ``MessageSent`` never equals ``MessageReceived``, and none
has a hash. A state compares and shows its six fields, ``tokens`` to
``step_count``, and not the caches ``marked`` and ``reads``. An inbox's
``Message`` and a run's ``RunResult`` are named tuples.

A message start event that a message flow feeds is listed in
``index.message_starts``. It is *pending* while it is not in ``completed``:
``init`` completes it only when a start input supplies one of its outputs,
and otherwise it waits for its message and completes when it fires.

The rule is written once, in ``_blocker``, which names the first conjunct a
node fails, and ``_is_enabled`` reads it as ``is None``; ``step`` puts that
conjunct into the error for a node it cannot fire. ``enabled()`` applies the
rule to the candidates of a state: the nodes in ``state.marked`` and the
pending message starts. ``state.marked`` maps a node to how many of its
sequence flows in hold a token, and holds no node at 0. It is kept by the
only writers of tokens, ``_add_token`` and the consume loop of ``step``. So
a join holds when its count is the number of flows in, or above 0 for an
exclusive merge, and no token or flow is scanned.

A run and the oracle do not apply the rule again to every candidate after
each firing, because of one fact: when a node X fires, no other enabled node
becomes disabled unless it has a store-channel input. X takes tokens only
from flows into X and removes only messages on flows into X; only X's entry
in ``completed`` changes; bindings and store records are never removed; and
only a store read's filter reads binding values, which X may rebind. So
``enabled(state, diagram, prior)`` keeps a candidate found in *prior*, the
nodes enabled before the firing other than X, without a check, unless it has
a store-channel input. ``step`` still checks the node it fires.

A store read resumes from its memo in ``state.reads``, one per node and read
of ``index.store_reads``: the value of each path its filter names, how many
records it scanned, and the record it matched or ``None``. Three facts make
that sound:

- a record is only appended, by ``_run_behavior``, and never changed;
- a filter reads only its record and the paths that ``expr_refs`` names,
  which the index lists with each read;
- ``eval_expr`` is deterministic.

So while those values are the ones the memo saw, a match found earlier is
still the first match, and with none, only the records appended since need a
scan. The values are compared with their types, because 1, 1.0 and True are
equal in Python but not to a filter. When one differs, or the memo scanned
more records than the store holds, the scan starts from the first record.
Enablement and ``step`` read through the same memo, so a firing takes the
record that enablement found. The memo and the counts are caches of their
state: ``_clone`` copies them, ``_freeze_state`` ignores them, and none
outlives its run.

``bindings`` is the one store of bound values. Guards, mappings, effects,
store inserts and store filters read ``object.path`` names through an
``_Env``: a ``dict`` of a few entries of its own (a record's fields for a
filter, ``instance.index`` for effects and inserts) whose misses read
``bindings[object][path]``, the name split at its first dot, since an object
id holds none. So no environment is built from the bindings or kept beside
them.

The oracle's outcome for a path is ``completed`` less the start events
``init`` completed, which never fire: the nodes the path fired.

The oracle keys a state by its tokens and its store and inbox sizes, as
sorted tuples, and by two bit masks: ``done`` of the completed nodes and
``bound`` of the bound objects. The masks ride on its stack and each firing
updates them in O(changes), which three facts make exact: ``completed``
grows only by the node ``step`` fires and the starts ``init`` completes;
bindings only gain keys, all through ``_bind_object``, and ``_clone`` keeps
their order; and within one search a bit stands for one id. So the key holds
the same facts as a sorted one would, still without bound values or store
contents. Its firings pass ``traced=False``: they build no trace event.

The oracle prunes with stubborn sets (Valmari 1991; Godefroid 1996, ch.
4-6). They read one commute relation, ``_Reduction.dependents``, which
lists a node's dependents off the index's tables: two distinct nodes are
independent when they share no sequence or message flow, neither writes, by
its footprint (``index.footprint``), an object the other reads or writes,
and no record that one inserts may pass a store read of the other
(``_may_pass``: the record is of the read's entity, and the read has no
filter, or its filter, on the record's literal fields alone, is true or
reads another name). ``tests/test_reduced_oracle.py`` holds it, pair by
pair, to a pairwise statement of the same rule. Where two independent nodes
are both enabled, each stays enabled after the other fires: neither takes
the other's tokens or messages, bindings and records are only added,
neither adds a binding that the other reads, and a record that the other's
filter can never pass leaves the first record it matches the first. Both
orders reach one key: tokens change only on their own flows, the completed
set and the bound names grow by union, and inbox and store sizes grow on
distinct queues, or by appends to one store, whose order the key does not
hold.

In a state with two or more enabled nodes the search fires only the
enabled members of a stubborn set: the closure of one enabled node in which
an enabled member adds every node it depends on and a disabled member adds
the nodes that can make its failed conjunct true (``_Reduction.enablers``).
Each enabled node seeds one, and the state takes the one with the fewest
enabled members. The stubborn sets alone, with no other pruning, keep
every outcome of a path that no cut ends, which ends in a key without an
enabled node. Such a path fires a member of the set, since a firing
outside it commutes with each enabled member and so leaves it enabled. Take
the first such firing. No earlier firing can enable a disabled member, so
it fires an enabled one, and each earlier firing commutes with it: the same
firings, with that one moved to the front, reach the same key, and the
search fires it from this state. Repeat from the state it reaches: the
reduced search reaches the key too, up to what the key merges. A path that
``max_steps`` cuts need not end like that, so a reduced search that reaches
a state with a node enabled where a cut falls starts again without stubborn
sets.

What the key still loses, the reduction loses with it. Two inserts into one
store are independent, so only one order of their records is explored, and
a later filter that tells the two orders apart sees one; the key merges
those orders already. A key with store contents (ROADMAP item 1) would make
two such inserts dependent.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import NamedTuple

from .expr import ExprError, Lit, UnboundPathError, Value, eval_expr
from .model import (
    START_INPUT_REFUSALS,
    START_KINDS,
    Diagram,
    Node,
    NodeIO,
    SequenceFlow,
    StoreInsert,
    StoreRead,
    TaskBehavior,
    _Record,
    node_inputs,
    start_input_fault,
)


class SimulationError(Exception):
    pass


class InitializationError(SimulationError):
    pass


class StuckGatewayError(SimulationError):
    pass


Record = dict[str, Value]
Bindings = dict[str, dict[str, Value]]  # object id -> variable path -> value


class _Env(dict):
    """The names an expression reads: its own *entries* over the bound
    values. ``[]`` on a name it lacks reads ``objects[object][path]``, the
    name split at its first dot, and raises :class:`KeyError` when that is
    unbound or the name has no dot."""

    __slots__ = ("objects",)

    def __init__(self, entries: dict[str, Value], objects: Bindings) -> None:
        super().__init__(entries)
        self.objects = objects

    def __missing__(self, name: str) -> Value:
        obj, dot, path = name.partition(".")
        if not dot:
            raise KeyError(name)
        return self.objects[obj][path]


class Message(NamedTuple):
    """A message in an inbox: what it carries and when it was sent."""

    step: int  # the step that sent it
    objects: Bindings  # snapshot of the attached objects


class ExecutionState(_Record):
    """A run's state. Only ``init`` and ``_clone`` build one, and only the
    writers the module docstring names change a field. Two states are equal
    when their six fields are; the caches ``marked`` and ``reads`` are
    neither compared nor shown in the repr."""

    _fields = ("tokens", "bindings", "stores", "inbox", "completed", "step_count")
    __slots__ = (*_fields, "marked", "reads")

    def __init__(self) -> None:
        self.tokens: dict[str, int] = {}  # sequence flow id -> count
        self.bindings: Bindings = {}
        self.stores: dict[str, list[Record]] = {}  # records as Entity.field maps
        self.inbox: dict[str, list[Message]] = {}  # message flow id -> queue, oldest first
        self.completed: set[str] = set()
        self.step_count = 0
        # node id -> how many of its sequence flows in hold a token, for the nodes
        # with one; kept by _add_token and step's consume loop
        self.marked: dict[str, int] = {}
        # (node id, number of the read in index.store_reads) -> (snapshot of the
        # paths its filter names, records scanned, record matched or None)
        self.reads: dict[tuple[str, int], tuple[tuple, int, Record | None]] = {}


# ---------------------------------------------------------------------------
# Trace

# An event is a record, not a named tuple, because MessageSent and
# MessageReceived have one shape: as tuples they would compare equal.


class NodeFired(_Record):
    __slots__ = _fields = ("step", "node")

    def __init__(self, step: int, node: str) -> None:
        self.step = step
        self.node = node

    def __str__(self) -> str:
        return f"step {self.step}: fired {self.node}"


class ObjectBound(_Record):
    __slots__ = _fields = ("step", "object", "variable", "value")

    def __init__(self, step: int, object: str, variable: str, value: Value) -> None:
        self.step = step
        self.object = object
        self.variable = variable
        self.value = value

    def __str__(self) -> str:
        return f"step {self.step}: bound {self.object}.{self.variable} = {self.value!r}"


class StoreChanged(_Record):
    __slots__ = _fields = ("step", "store", "entity", "record")

    def __init__(self, step: int, store: str, entity: str, record: tuple[tuple[str, Value], ...]) -> None:
        self.step = step
        self.store = store
        self.entity = entity
        self.record = record

    def __str__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.record)
        return f"step {self.step}: store {self.store} += {self.entity}({fields})"


class MessageSent(_Record):
    __slots__ = _fields = ("step", "flow")

    def __init__(self, step: int, flow: str) -> None:
        self.step = step
        self.flow = flow

    def __str__(self) -> str:
        return f"step {self.step}: message sent on {self.flow}"


class MessageReceived(_Record):
    __slots__ = _fields = ("step", "flow")

    def __init__(self, step: int, flow: str) -> None:
        self.step = step
        self.flow = flow

    def __str__(self) -> str:
        return f"step {self.step}: message received on {self.flow}"


TraceEvent = NodeFired | ObjectBound | StoreChanged | MessageSent | MessageReceived
Trace = list[TraceEvent]


class RunResult(NamedTuple):
    """How a run ended: its trace, its status and its final state."""

    trace: Trace
    status: str  # 'completed' | 'deadlocked' | 'step_limit'
    state: ExecutionState

    def fired_nodes(self) -> set[str]:
        return {e.node for e in self.trace if isinstance(e, NodeFired)}


def render_trace(trace: Trace) -> str:
    return "\n".join(str(e) for e in trace) + ("\n" if trace else "")


# ---------------------------------------------------------------------------
# Initialization

# init words a fault as a diagram does, except that an undeclared object is
# one that no message start event produces
_INIT_REFUSALS = {**START_INPUT_REFUSALS, "object": START_INPUT_REFUSALS["start"]}


def init(diagram: Diagram, start_inputs: dict[str, dict[str, Value]] | None = None) -> ExecutionState:
    """Build the initial state: tokens on the outgoing flows of ready start
    events, message-start objects bound from *start_inputs* (by default the
    diagram's), which must keep the rules a document's start inputs keep
    (:func:`bpdmn.model.start_input_fault`). A message start that a message
    flow feeds and no start input supplies stays pending until its message
    arrives.
    """
    if start_inputs is None:
        start_inputs = diagram.start_inputs
    index = diagram.index
    if not index.nodes:
        raise InitializationError("no start event: diagram has no nodes")
    for object_id, values in start_inputs.items():
        fault = start_input_fault(diagram, object_id, values)
        if fault is not None:
            rule, path = fault
            raise InitializationError(f"start input {object_id}: " + _INIT_REFUSALS[rule].format(path=path))

    state = ExecutionState()
    message_starts = index.message_starts

    for node in index.nodes.values():
        if node.kind not in START_KINDS:
            continue
        if node.kind == "start_event_message":
            outputs = [io for io in index.outputs.get(node.id, ()) if io.channel == "sequence"]
            supplied = [io for io in outputs if io.object in start_inputs]
            if node.id in message_starts and not supplied:
                continue  # pending
            missing = [io.object for io in outputs if not io.optional and io.object not in start_inputs]
            if missing and node.id not in message_starts:
                raise InitializationError(f"start event {node.id}: missing required start input for {missing}")
            for io in outputs:
                names = _variable_names(diagram, io.object)
                values = dict.fromkeys(names) | start_inputs.get(io.object, {})
                _bind_object(state, None, 0, io.object, values)  # run() traces them at step 0
        state.completed.add(node.id)
        for flow in index.out_flows.get(node.id, ()):
            _add_token(state, flow)
    return state


# ---------------------------------------------------------------------------
# Enablement


def _store_read_available(state: ExecutionState, diagram: Diagram, node_id: str, object_id: str) -> bool:
    for number, (action, refs) in enumerate(diagram.index.store_reads.get(node_id, ())):
        if action.object == object_id:
            return _matching_record(state, (node_id, number), action, refs) is not None
    # no configured read: the extraction is conceptual, treat as available
    return True


_ABSENT = object()  # an unbound path in a read's snapshot


def _matching_record(
    state: ExecutionState, key: tuple[str, int], action: StoreRead, refs: tuple[str, ...]
) -> Record | None:
    """The first record of *action*'s entity in its store that its filter
    accepts, or ``None``. *refs* are the paths the filter names; the scan
    resumes from the memo ``state.reads[key]`` while their values are those
    it saw (see the module docstring)."""
    records = state.stores.get(action.store, ())
    bindings = state.bindings
    # a value is tagged with its type: 1, 1.0 and True are equal in Python
    # but not to a filter
    snapshot = tuple(
        (type(v), v) if (v := bindings.get(obj, {}).get(path, _ABSENT)) is not _ABSENT else v
        for obj, _, path in (ref.partition(".") for ref in refs)
    )
    start = 0
    memo = state.reads.get(key)
    if memo is not None and memo[0] == snapshot and memo[1] <= len(records):
        if memo[2] is not None:
            return memo[2]
        start = memo[1]
    entity, condition = action.entity, action.filter
    for number in range(start, len(records)):
        record = records[number]
        if record.get("__entity__") != entity:
            continue
        if condition is not None:
            fields = _Env(record, bindings)
            del fields["__entity__"]
            try:
                if eval_expr(condition, fields) is not True:
                    continue
            except ExprError:
                continue
        state.reads[key] = (snapshot, number + 1, record)
        return record
    state.reads[key] = (snapshot, len(records), None)
    return None


def _input_available(
    state: ExecutionState, diagram: Diagram, node: Node, io: NodeIO, visiting: frozenset[str]
) -> bool:
    if io.object in state.bindings:
        return True
    if io.channel == "message":
        return any(io.object in msg.objects for msg in state.inbox.get(io.via, ()))
    if io.channel == "store":
        return _store_read_available(state, diagram, node.id, io.object)
    # sequence or explicit node-to-node channel: maybe producible by a mapping
    for mapping in diagram.index.mappings_to.get(io.object, ()):
        if mapping.id in visiting:
            continue
        if mapping.source_object in state.bindings:
            return True
        for other in diagram.index.inputs.get(node.id, ()):
            if other.object == mapping.source_object and _input_available(
                state, diagram, node, other, visiting | {mapping.id}
            ):
                return True
    return False


_STARTED = ("started", ())
_NO_FLOW_IN = ("messages", ())


def _blocker(state: ExecutionState, diagram: Diagram, node: Node) -> tuple | None:
    """The enablement rule for one node: ``None`` when its join holds and
    every required input is available, else the first conjunct it fails.
    Store-channel inputs are tested last, so a store is read only when
    everything else already holds. A failed conjunct is a pair:

    - ``("started", ())``: a start event that has completed;
    - ``("messages", flows)``: a node without a flow in waits for a message
      on one of *flows*, its message flows in if it is a pending message
      start, else none;
    - ``("join", flows)``: a flow of *flows*, the flows in, holds no token;
    - ``("merge", flows)``: an exclusive merge's flows in hold no token;
    - ``("input", io)``: the required input *io* is not available."""
    node_id = node.id
    if node_id in state.completed and node.kind in START_KINDS:
        return _STARTED
    index = diagram.index
    incoming = index.in_flows.get(node_id, ())
    if not incoming:
        if node_id not in index.message_starts:
            return _NO_FLOW_IN
        flows = index.message_in[node_id]
        return None if any(state.inbox.get(f.id) for f in flows) else ("messages", flows)
    marks = state.marked.get(node_id, 0)
    if node.kind == "gateway_exclusive_data":
        if marks == 0:
            return ("merge", incoming)
    elif marks < len(incoming):
        return ("join", incoming)
    inputs = index.inputs.get(node_id, ())
    for store_pass in (False, True):
        for io in inputs:
            if (io.channel == "store") is not store_pass or io.optional:
                continue
            if not _input_available(state, diagram, node, io, frozenset()):
                return ("input", io)
    return None


def _is_enabled(state: ExecutionState, diagram: Diagram, node: Node) -> bool:
    return _blocker(state, diagram, node) is None


def _first_without_token(state: ExecutionState, flows: list[SequenceFlow]) -> SequenceFlow:
    return next(f for f in flows if f.id not in state.tokens)


def _blocked_because(state: ExecutionState, blocker: tuple) -> str:
    """The words for a failed conjunct of :func:`_blocker` in *state*."""
    kind, subject = blocker
    if kind == "started":
        return "the start event has completed"
    if kind == "input":
        obj, _, via, channel = subject
        wait = {"message": f" and no message waits on flow {via}", "store": f" and no record matches on flow {via}"}
        return f"input {obj} unbound" + wait.get(channel, "")
    if kind == "join":
        subject = [_first_without_token(state, subject)]
    if not subject:
        return "no flow in"
    flows = ", ".join(f.id for f in subject)
    return f"no message on flow {flows}" if kind == "messages" else f"no token on flow {flows}"


def enabled(
    state: ExecutionState, diagram: Diagram, prior: set[str] | frozenset[str] = frozenset()
) -> set[str]:
    """Nodes ready to fire under the join and data-availability conditions.

    Only the nodes in ``state.marked`` and the pending message starts are
    examined: a node with in-flows but no marked one fails either join, and
    a node without in-flows fires only as a pending message start. *prior*
    holds the nodes enabled before the last firing, less the fired node; a
    candidate in it without a store-channel input is still enabled (see the
    module docstring) and is not checked again.
    """
    index = diagram.index
    candidates = (index.message_starts - state.completed).union(state.marked)
    nodes, store_fed = index.nodes, index.store_fed
    return {
        node_id
        for node_id in candidates
        if (node_id in prior and node_id not in store_fed) or _is_enabled(state, diagram, nodes[node_id])
    }


# ---------------------------------------------------------------------------
# Firing


def _bind_object(
    state: ExecutionState, trace: Trace | None, step: int, obj: str, values: dict[str, Value]
) -> None:
    """Bind *obj*, then each path in *values*: with ``_clone``, the only
    writer of ``state.bindings``. With a *trace*, each path is traced."""
    variables = state.bindings.setdefault(obj, {})
    for path, value in values.items():
        variables[path] = value
        if trace is not None:
            trace.append(ObjectBound(step, obj, path, value))


def _variable_names(diagram: Diagram, obj: str) -> list[str]:
    """The variables of *obj* that hold a value, in declaration order."""
    return [var.name for var in diagram.index.objects[obj].variables if var.vtype != "record"]


def _apply_mappings(
    state: ExecutionState, diagram: Diagram, node: Node, trace: Trace | None, step: int
) -> None:
    for mapping in diagram.index.mappings_into(node.id):
        if mapping.source_object not in state.bindings:
            continue
        env = _Env({}, state.bindings)
        for rule in mapping.rules:
            try:
                value = eval_expr(rule.from_expr, env)
            except ExprError as exc:
                raise SimulationError(f"mapping {mapping.id}: {exc}") from exc
            _bind_object(state, trace, step, mapping.target_object, {rule.to: value})


def _run_behavior(
    state: ExecutionState, node: Node, behavior: TaskBehavior, trace: Trace | None, step: int
) -> None:
    instances = behavior.instances if node.multi_instance else 1
    for index in range(1, instances + 1):
        env = _Env({"instance.index": index}, state.bindings)
        for effect in behavior.effects:
            try:
                value = eval_expr(effect.expr, env)
            except ExprError as exc:
                raise SimulationError(f"behavior of {node.id}: {exc}") from exc
            _bind_object(state, trace, step, effect.target_object, {effect.target_path: value})
            # an effect on an object named "instance" shadows the counter
            env.pop(f"{effect.target_object}.{effect.target_path}", None)
        for action in behavior.store_actions:
            if not isinstance(action, StoreInsert):
                continue  # store reads bind before the behavior runs, in step
            record: Record = {"__entity__": action.entity}
            for fname, fexpr in sorted(action.assignments.items()):
                try:
                    record[f"{action.entity}.{fname}"] = eval_expr(fexpr, env)
                except ExprError as exc:
                    raise SimulationError(f"insert by {node.id}: {exc}") from exc
            state.stores.setdefault(action.store, []).append(record)
            if trace is not None:
                trace.append(
                    StoreChanged(
                        step,
                        action.store,
                        action.entity,
                        tuple((k, v) for k, v in sorted(record.items()) if k != "__entity__"),
                    )
                )


def _receive_messages(
    state: ExecutionState, diagram: Diagram, node: Node, trace: Trace | None, step: int
) -> None:
    """Take the oldest message of each flow into *node*, in the order they
    were sent. A step has one sender, which sends in the order of
    ``message_in``; the stable sort keeps it for messages of one step."""
    flows = diagram.index.message_in.get(node.id, ())
    queues = [(flow.id, queue) for flow in flows if (queue := state.inbox.get(flow.id))]
    queues.sort(key=lambda item: item[1][0].step)
    for flow_id, queue in queues:
        msg = queue.pop(0)
        if trace is not None:
            trace.append(MessageReceived(step, flow_id))
        for obj, variables in msg.objects.items():
            _bind_object(state, trace, step, obj, variables)


def _send_messages(
    state: ExecutionState, diagram: Diagram, node: Node, trace: Trace | None, step: int
) -> None:
    """Send a message on each flow out of *node*, carrying each object
    attached to the flow, whatever its direction: the target waits for the
    flow's ``input`` attachments."""
    for flow in diagram.index.message_out.get(node.id, ()):
        snapshot: Bindings = {att.object: dict(state.bindings.get(att.object, {})) for att in flow.attachments}
        if trace is not None:
            trace.append(MessageSent(step, flow.id))
        if flow.target not in diagram.index.black_boxes:
            state.inbox.setdefault(flow.id, []).append(Message(step, snapshot))
        # messages to black-box pools leave the modeled world


def _add_token(state: ExecutionState, flow: SequenceFlow) -> None:
    """Put a token on *flow*: with ``step``'s consume loop and ``_clone``,
    the only writer of ``state.tokens`` and ``state.marked``."""
    count = state.tokens.get(flow.id, 0)
    state.tokens[flow.id] = count + 1
    if count == 0:
        state.marked[flow.target] = state.marked.get(flow.target, 0) + 1


def _emit_tokens(state: ExecutionState, diagram: Diagram, node: Node) -> None:
    outgoing = diagram.index.out_flows.get(node.id, ())
    if not outgoing:
        return
    if node.kind == "gateway_exclusive_data":
        env = _Env({}, state.bindings)
        default = None
        for flow in outgoing:
            if flow.guard is None:
                if default is None:
                    default = flow
                continue
            try:
                result = eval_expr(flow.guard, env)
            except ExprError as exc:
                raise SimulationError(f"guard of flow {flow.id}: {exc}") from exc
            if result is True:
                _add_token(state, flow)
                return
        if default is None:
            raise StuckGatewayError(f"gateway {node.id}: no true guard and no default flow")
        _add_token(state, default)
        return
    for flow in outgoing:
        _add_token(state, flow)


def step(
    state: ExecutionState, diagram: Diagram, node_id: str, *, traced: bool = True
) -> tuple[ExecutionState, Trace]:
    """Fire the node *node_id* and return the updated state together with
    the trace delta; :class:`SimulationError` if that node is not enabled,
    whose message names the conjunct it fails (:func:`_blocker`).

    With ``traced=False`` the state changes alike, but no trace event is
    built and the delta is ``[]``: the oracle reads states, not traces."""
    node = diagram.index.nodes.get(node_id)
    if node is None:
        raise SimulationError(f"node {node_id} is not enabled: no such node")
    blocker = _blocker(state, diagram, node)
    if blocker is not None:
        raise SimulationError(f"node {node_id} is not enabled: {_blocked_because(state, blocker)}")

    current = state.step_count + 1
    trace: Trace | None = [NodeFired(current, node_id)] if traced else None

    # consume tokens: one from each marked flow in, or from the first for an
    # exclusive merge; a flow whose count reaches 0 leaves ``state.tokens``,
    # and a node with no marked flow left leaves ``state.marked``
    exclusive = node.kind == "gateway_exclusive_data"
    for flow in diagram.index.in_flows.get(node_id, ()):
        count = state.tokens.get(flow.id, 0)
        if count > 0:
            if count == 1:
                del state.tokens[flow.id]
                if state.marked[node_id] == 1:
                    del state.marked[node_id]
                else:
                    state.marked[node_id] -= 1
            else:
                state.tokens[flow.id] = count - 1
            if exclusive:
                break

    _receive_messages(state, diagram, node, trace, current)

    # pre-behavior store reads so effects can see extracted data
    for number, (action, refs) in enumerate(diagram.index.store_reads.get(node_id, ())):
        record = _matching_record(state, (node_id, number), action, refs)
        if record is not None:
            values = {n: record[n] for n in _variable_names(diagram, action.object) if n in record}
            _bind_object(state, trace, current, action.object, values)

    _apply_mappings(state, diagram, node, trace, current)

    # optional inputs that never arrived are bound to null now
    for io in diagram.index.inputs.get(node_id, ()):
        if io.optional and io.object not in state.bindings:
            _bind_object(state, trace, current, io.object, dict.fromkeys(_variable_names(diagram, io.object)))

    behavior = diagram.behaviors.get(node_id)
    if behavior is not None:
        _run_behavior(state, node, behavior, trace, current)

    # every output object is considered produced once the node fires
    for io in diagram.index.outputs.get(node_id, ()):
        if io.channel != "store":
            _bind_object(state, trace, current, io.object, {})

    _send_messages(state, diagram, node, trace, current)
    _emit_tokens(state, diagram, node)

    state.completed.add(node_id)
    state.step_count = current
    return state, trace if traced else []


def run(
    diagram: Diagram,
    start_inputs: dict[str, dict[str, Value]] | None = None,
    max_steps: int = 1000,
    policy: str = "smallest",
    seed: int = 0,
) -> RunResult:
    """Execute until quiescence or the step limit.

    ``policy`` is ``smallest`` (deterministic default) or ``random``
    (seeded uniform choice among enabled nodes); any other value raises
    :class:`ValueError`.
    """
    if policy not in ("smallest", "random"):
        raise ValueError(f"unknown scheduling policy {policy!r}")
    state = init(diagram, start_inputs)
    rng = random.Random(seed)
    trace: Trace = []
    # initial bindings (start inputs) appear in the trace at step 0
    for obj in sorted(state.bindings):
        for variable, value in sorted(state.bindings[obj].items()):
            trace.append(ObjectBound(0, obj, variable, value))
    ready = enabled(state, diagram)
    while ready and state.step_count < max_steps:
        if policy == "random":
            choice = rng.choice(sorted(ready))
        else:
            choice = min(ready)
        state, delta = step(state, diagram, choice)
        trace.extend(delta)
        ready = enabled(state, diagram, ready - {choice})
    if ready:
        status = "step_limit"
    elif state.tokens:  # a flow leaves it when its count reaches 0
        status = "deadlocked"
    else:
        status = "completed"
    return RunResult(trace=trace, status=status, state=state)


# ---------------------------------------------------------------------------
# Post-hoc trace checks and the exhaustive interleaving oracle


def check_data_gating(trace: Trace, diagram: Diagram) -> list[str]:
    """Violations of the data-gating rule found in a trace: a node fired at
    a step where a required input object was not yet bound."""
    violations = []
    bound_step: dict[str, int] = {}
    for event in trace:
        if isinstance(event, ObjectBound) and event.object not in bound_step:
            bound_step[event.object] = event.step
    for event in trace:
        if not isinstance(event, NodeFired):
            continue
        for io in node_inputs(diagram, event.node):
            if io.optional or io.channel == "store":
                continue
            first = bound_step.get(io.object)
            if first is None or first > event.step:
                violations.append(
                    f"node {event.node} fired at step {event.step} "
                    f"with required input {io.object} unbound"
                )
    return violations


def _freeze_state(state: ExecutionState, done: int, bound: int):
    """The oracle's key for *state*: its tokens, store and inbox sizes, and
    the masks *done* of its completed nodes and *bound* of its bound objects
    (see :func:`explore_interleavings`)."""
    return (
        tuple(sorted(state.tokens.items())),
        bound,
        tuple(sorted((s, len(r)) for s, r in state.stores.items())),
        tuple(sorted((f, len(q)) for f, q in state.inbox.items() if q)),
        done,
    )


def _may_pass(insert: StoreInsert, read: StoreRead) -> bool:
    """Whether a record that *insert* appends may pass *read*: it is of the
    read's entity, and the read has no filter, or the filter, evaluated on
    the record's literal fields alone, is true or reads another name. A
    filter that reads no other name reads only those fields, so its value
    is the one it has on the record in every state."""
    if insert.entity != read.entity:
        return False
    if read.filter is None:
        return True
    entity = insert.entity
    fields = {f"{entity}.{name}": expr.value for name, expr in insert.assignments.items() if type(expr) is Lit}
    try:
        return eval_expr(read.filter, fields) is True
    except UnboundPathError:
        return True
    except ExprError:  # a record the filter fails on is never matched
        return False


def _feeds(diagram: Diagram, writer: str, reader: str) -> bool:
    """Whether a record that node *writer* inserts may pass a store read of
    node *reader* (:func:`_may_pass`)."""
    behavior = diagram.behaviors.get(writer)
    if behavior is None:
        return False
    reads = diagram.index.store_reads.get(reader, ())
    return any(
        isinstance(insert, StoreInsert) and insert.store == read.store and _may_pass(insert, read)
        for insert in behavior.store_actions
        for read, _ in reads
    )


class _Reduction:
    """What one search's stubborn sets ask about the diagram's nodes,
    memoized: the nodes each does not commute with, and the nodes that can
    make a failed conjunct of :func:`_blocker` true. The tables of each
    object's readers and writers, by footprint, are built on the first
    question that needs them."""

    __slots__ = ("diagram", "index", "_dependents", "_enablers", "_readers", "_writers")

    def __init__(self, diagram: Diagram) -> None:
        self.diagram = diagram
        self.index = diagram.index
        self._dependents: dict[str, set[str]] = {}
        self._enablers: dict[tuple[str, NodeIO], set[str]] = {}
        self._readers: dict[str, set[str]] | None = None
        self._writers: dict[str, set[str]] = {}

    def _objects(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Object id -> the nodes whose footprint reads it, and -> those whose
        footprint writes it."""
        if self._readers is None:
            self._readers = {}
            for node_id in self.index.nodes:
                reads, writes, _, _ = self.index.footprint(node_id)
                for obj in reads:
                    self._readers.setdefault(obj, set()).add(node_id)
                for obj in writes:
                    self._writers.setdefault(obj, set()).add(node_id)
        return self._readers, self._writers

    def dependents(self, node_id: str) -> set[str]:
        """The nodes that do not commute with node *node_id*, other than it:
        the ends of its sequence and message flows, the readers and writers
        of the objects its footprint writes, the writers of those it reads,
        the readers of its stores that a record it inserts may pass, and the
        inserters into the stores it reads whose records may pass its reads
        (:func:`_feeds`). The oracle's one commute relation, which its
        stubborn sets read. It is symmetric, and
        ``tests/test_reduced_oracle.py`` holds it, pair by pair, to a
        pairwise statement of the rule. Asking that rule of every node
        instead makes 1,322 pairwise calls per pass of the interleave
        benchmark and costs about 15% more oracle time."""
        found = self._dependents.get(node_id)
        if found is None:
            index, diagram = self.index, self.diagram
            nodes = index.nodes
            reads, writes, store_reads, inserts = index.footprint(node_id)
            tables = (index.in_flows, index.out_flows, index.message_in, index.message_out)
            ends = (end for table in tables for flow in table.get(node_id, ()) for end in (flow.source, flow.target))
            found = {v for v in ends if v in nodes}
            if reads or writes:
                readers, writers = self._objects()
                for obj in writes:
                    found.update(readers.get(obj, ()), writers.get(obj, ()))
                for obj in reads:
                    found.update(writers.get(obj, ()))
            for store in inserts:
                fed = index.readers.get(store, ())
                found.update([v for v in fed if v in nodes and v not in found and _feeds(diagram, node_id, v)])
            for store in store_reads:
                feeding = index.writers.get(store, ())
                found.update([v for v in feeding if v in nodes and v not in found and _feeds(diagram, v, node_id)])
            found.discard(node_id)
            self._dependents[node_id] = found
        return found

    def enablers(self, state: ExecutionState, node_id: str, blocker: tuple) -> set[str] | list[str]:
        """The nodes whose firing can make *blocker*, the conjunct of
        :func:`_blocker` that node *node_id* fails in *state*, true; no other
        firing can. A completed start has none. A join has the source of its
        first flow in without a token, an exclusive merge or a waiting
        message start the sources of all its flows in. A missing input has
        the writers of its object and of every object that reaches it
        through mappings, the senders of the node's message inputs of those
        objects, and for the node's store reads of them, the inserters whose
        records may pass a read of the node (:func:`_feeds`) and the writers
        of the names its filters read. Some of these are pool ids, not
        nodes."""
        kind, subject = blocker
        if kind == "join":
            return [_first_without_token(state, subject).source]
        if kind != "input":
            return [flow.source for flow in subject]
        key = (node_id, subject)
        found = self._enablers.get(key)
        if found is None:
            index = self.index
            objects, pending = {subject.object}, [subject.object]
            while pending:
                for mapping in index.mappings_to.get(pending.pop(), ()):
                    if mapping.source_object not in objects:
                        objects.add(mapping.source_object)
                        pending.append(mapping.source_object)
            _, writers = self._objects()
            found = set()
            for obj in objects:
                found.update(writers.get(obj, ()))
            for io in index.inputs.get(node_id, ()):
                if io.object in objects and io.channel == "message":
                    found.update(f.source for f in index.message_in.get(node_id, ()) if f.id == io.via)
            for read, refs in index.store_reads.get(node_id, ()):
                if read.object in objects:
                    found.update(w for w in index.writers.get(read.store, ()) if _feeds(self.diagram, w, node_id))
                    for ref in refs:
                        found.update(writers.get(ref.partition(".")[0], ()))
            self._enablers[key] = found
        return found

    def stubborn(self, state: ExecutionState, ready: set[str]) -> set[str]:
        """The enabled members of the smallest stubborn set of *state*
        (Valmari 1991) that one of its enabled nodes, *ready*, seeds. A seed
        n's set is the closure of ``{n}`` in which an enabled member adds its
        :meth:`dependents` and a disabled one the :meth:`enablers` of its
        failed conjunct. The seeds are taken in sorted order, and the first
        closure with the fewest enabled members is kept: the loop ends at a
        closure with one, and a closure is cut short once it holds as many
        as the best so far, *ready* at first."""
        best = ready
        nodes = self.index.nodes
        for seed in sorted(ready):
            members, pending, count = {seed}, [seed], 1
            while pending and count < len(best):
                node_id = pending.pop()
                if node_id in ready:
                    more = self.dependents(node_id)
                else:
                    more = self.enablers(state, node_id, _blocker(state, self.diagram, nodes[node_id]))
                for other in more:
                    if other not in members and other in nodes:
                        members.add(other)
                        pending.append(other)
                        count += other in ready
            if count < len(best):
                best = members & ready
                if count == 1:
                    break
        return best


def _clone(state: ExecutionState) -> ExecutionState:
    """An independent copy of *state*, made without the empty containers
    ``ExecutionState()`` would build only to drop them."""
    clone = ExecutionState.__new__(ExecutionState)
    clone.tokens = state.tokens.copy()
    clone.bindings = {k: v.copy() for k, v in state.bindings.items()}
    clone.stores = {k: v.copy() for k, v in state.stores.items()}  # a record is never changed once stored
    clone.inbox = {k: v.copy() for k, v in state.inbox.items()}  # a message is never changed
    clone.completed = state.completed.copy()
    clone.step_count = state.step_count
    # their entries are ints and tuples, never changed in place
    clone.marked = state.marked.copy()
    clone.reads = state.reads.copy()
    return clone


class _Cut(Exception):
    """A reduced search reached a state where ``max_steps`` cuts a path."""


def explore_interleavings(diagram: Diagram, max_steps: int = 50) -> set[frozenset[str]]:
    """The oracle: the set of fired-node sets over the firing orders from
    the diagram's start inputs.

    States are merged by :func:`_freeze_state`, which compares tokens, the
    names of bound objects, store and inbox sizes and the completed set, but
    neither bound values nor the step count. So an outcome that depends on
    which values were bound, or on where ``max_steps`` cuts a path, can be
    missed when another path reached the same key first.

    The search fires, in a state with two or more enabled nodes, only the
    enabled members of its smallest stubborn set
    (:meth:`_Reduction.stubborn`). A stubborn set keeps every state where no
    node is enabled, but not every state where ``max_steps`` cuts a path; so
    when the reduced search reaches one of those, the search starts again
    without stubborn sets and fires every enabled node of every state."""
    reduction = _Reduction(diagram)
    try:
        return _search(diagram, max_steps, reduction, True)
    except _Cut:
        pass  # outside the handler, where no exception the search catches chains to this one
    return _search(diagram, max_steps, reduction, False)


def _search(diagram: Diagram, max_steps: int, reduction: _Reduction, reduced: bool) -> set[frozenset[str]]:
    """The depth-first search of :func:`explore_interleavings`, with stubborn
    sets when *reduced*. A reduced search raises :class:`_Cut` in a state
    with an enabled node where ``max_steps`` cuts its path, or where more
    nodes without a store-channel input are enabled than steps are left:
    each stays enabled until it fires (see the module docstring), so every
    path from there is cut.

    The completed set and the bound names enter the key as the bit masks
    ``done`` and ``bound`` (see the module docstring). A call gives an id
    its bit when it first sees it. A firing adds to ``done`` the node it
    fired, and to ``bound`` the objects it newly bound, which are the last
    keys of ``bindings``. Firings are untraced: the search reads states, not
    traces.

    A state fires its enabled nodes in sorted order, or, in a reduced search
    and with two or more of them, only the enabled members of its stubborn
    set (:meth:`_Reduction.stubborn`). So the search that is not reduced
    makes the ``enabled()`` and ``step()`` calls of the plain recursive
    search, in its order."""
    results: set[frozenset[str]] = set()
    seen: set = set()
    bits: dict[str, int] = {}  # node or object id -> its bit, in either mask
    store_fed = diagram.index.store_fed

    def bit(ident: str) -> int:
        value = bits.get(ident)
        if value is None:
            value = bits[ident] = 1 << len(bits)
        return value

    # depth first with an explicit stack, so a path may be longer than the
    # recursion limit; a frame holds a state, its enabled set, the choices
    # not yet taken, smallest last so that pop() takes it first, and the
    # state's two masks
    stack: list[tuple[ExecutionState, set[str], list[str], int, int]] = []

    def visit(state: ExecutionState, prior: set[str] | frozenset[str], done: int, bound: int) -> None:
        key = _freeze_state(state, done, bound)
        if key in seen:
            return
        seen.add(key)
        ready = enabled(state, diagram, prior)
        left = max_steps - state.step_count
        if reduced and ready and (left <= 0 or len(ready - store_fed) > left):
            raise _Cut
        if not ready or left <= 0:
            results.add(frozenset(state.completed) - started)
            return
        fire = reduction.stubborn(state, ready) if reduced and len(ready) > 1 else ready
        stack.append((state, ready, sorted(fire, reverse=True), done, bound))

    start = init(diagram)
    started = frozenset(start.completed)
    done = bound = 0
    for node_id in start.completed:
        done |= bit(node_id)
    for obj in start.bindings:
        bound |= bit(obj)
    visit(start, frozenset(), done, bound)
    while stack:
        state, ready, choices, done, bound = stack[-1]
        choice = choices.pop()
        known = len(state.bindings)  # read first: the last child is this state
        if choices:
            child, _ = step(_clone(state), diagram, choice, traced=False)
        else:
            # nothing reads this state after its last firing: fire it in place,
            # so a path without choices keeps one state alive, not one per step
            stack.pop()
            child, _ = step(state, diagram, choice, traced=False)
        for obj in islice(reversed(child.bindings), len(child.bindings) - known):
            bound |= bit(obj)
        visit(child, ready - {choice}, done | bit(choice), bound)
    return results
