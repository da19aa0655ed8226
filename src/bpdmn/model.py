"""In-memory metamodel for data-extended BPMN diagrams.

The diagram is the single source of truth for every other module: pools of
nodes and flows, data stores with ER-style internal structure, structured
data objects, explicit data flows, and data mappings. The constructor
rejects duplicate identifiers and dangling references (flow endpoints, and
the objects, stores and entities that flows, mappings and behaviours name),
while the softer well-formedness rules live in :mod:`bpdmn.validator`.

Diagrams must not be mutated after construction, which would leave the
derived views stale. The tables by id are built with the diagram, by the
walk that checks its identifiers are unique. The other views (flows into and
out of a node, a node's inputs and outputs, an object's sources and targets,
a store's readers and writers, reachability) are built once, on first use,
into a :class:`DiagramIndex` cached on the diagram, which reuses the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .expr import Expression, Value, expr_refs

NODE_KINDS = {
    "task",
    "sub_process",
    "gateway_exclusive_data",
    "gateway_parallel",
    "start_event_none",
    "start_event_message",
    "end_event",
    "intermediate_message",
}

START_KINDS = {"start_event_none", "start_event_message"}

SCALAR_VTYPES = {"string", "number", "boolean"}
VTYPES = SCALAR_VTYPES | {"record"}


class ModelError(Exception):
    """Structural violation detected while building a diagram."""


@dataclass(slots=True)
class Variable:
    """A named, typed field of a data object or a store entity."""

    name: str  # dot-qualified path allowed, e.g. "Device.deviceID"
    vtype: str = "string"

    def __post_init__(self) -> None:
        if "" in self.name.split("."):
            raise ModelError(f"invalid variable name {self.name!r}")
        if self.vtype not in VTYPES:
            raise ModelError(f"invalid variable type {self.vtype!r}")


@dataclass(slots=True)
class ObjectAttachment:
    """A data object carried by a sequence or message flow, into or out of its endpoint."""

    object: str  # object id
    direction: str  # 'input' | 'output'
    optional: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ModelError(f"invalid attachment direction {self.direction!r}")


@dataclass(slots=True)
class SequenceFlow:
    """A control-flow edge between two nodes of one pool, optionally guarded."""

    id: str
    source: str
    target: str
    attachments: list[ObjectAttachment] = field(default_factory=list)
    guard: Expression | None = None

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ModelError(f"flow {self.id}: source equals target")


@dataclass(slots=True)
class MessageFlow:
    """A message between nodes of two pools, or a node and a black-box pool."""

    id: str
    source: str  # node id, or pool id for a black-box pool
    target: str
    attachments: list[ObjectAttachment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ModelError(f"message flow {self.id}: source equals target")


@dataclass(slots=True)
class ExplicitDataFlow:
    """Dashed-line data connector between a store and a node or two nodes."""

    id: str
    source: str  # node id or store id
    target: str  # node id or store id
    object: str
    optional: bool = False

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ModelError(f"data flow {self.id}: source equals target")


@dataclass(slots=True)
class Node:
    """A task, sub-process, gateway or event of a pool."""

    id: str
    name: str
    kind: str
    children: list[Node] = field(default_factory=list)
    local_stores: list[str] = field(default_factory=list)
    condition: Expression | None = None
    multi_instance: bool = False

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ModelError(f"node {self.id}: unknown kind {self.kind!r}")
        if self.children and self.kind != "sub_process":
            raise ModelError(f"node {self.id}: only sub-processes may have children")
        if self.local_stores and self.kind != "sub_process":
            raise ModelError(f"node {self.id}: only sub-processes may declare local stores")
        if self.condition is not None and self.kind != "gateway_exclusive_data":
            raise ModelError(f"node {self.id}: condition allowed only on data-based gateways")
        if self.multi_instance and self.kind != "task":
            raise ModelError(f"node {self.id}: multi-instance marker allowed only on tasks")


@dataclass(slots=True)
class Pool:
    """A participant: its nodes, sequence flows and explicit data flows."""

    id: str
    name: str
    nodes: list[Node] = field(default_factory=list)
    sequence_flows: list[SequenceFlow] = field(default_factory=list)
    explicit_data_flows: list[ExplicitDataFlow] = field(default_factory=list)

    def iter_nodes(self):
        """Every node, sub-process children included, in pre-order."""
        return _pre_order(self.nodes)


def _pre_order(nodes: list[Node]):
    """Each of *nodes* followed by its sub-process children, in pre-order."""
    stack = nodes[::-1]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@dataclass(slots=True)
class Entity:
    """An entity of a data store's internal structure, with its fields."""

    name: str
    fields: list[Variable] = field(default_factory=list)

    def __post_init__(self) -> None:
        # a store field's BPEL variable is named store.entity.field
        if "." in self.name:
            raise ModelError(f"entity {self.name}: an entity name may not contain '.'")
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ModelError(f"entity {self.name}: duplicate field names")


@dataclass(slots=True)
class Relationship:
    """A named relationship between two entities of a store."""

    name: str
    left: str  # entity name
    right: str


@dataclass(slots=True)
class Generalization:
    """An is-a link: the child entity inherits the parent's fields."""

    parent: str  # entity name
    child: str

    def __post_init__(self) -> None:
        if self.parent == self.child:
            raise ModelError(f"generalization: {self.parent} cannot generalize itself")


@dataclass(slots=True)
class Scope:
    """Store visibility: the whole diagram, or one sub-process subtree."""

    kind: str  # 'diagram' | 'sub_process'
    sub_process: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("diagram", "sub_process"):
            raise ModelError(f"invalid scope kind {self.kind!r}")
        if self.kind == "sub_process" and not self.sub_process:
            raise ModelError("sub-process scope requires a node id")
        if self.kind == "diagram" and self.sub_process is not None:
            raise ModelError("diagram scope names no node")

    @classmethod
    def diagram(cls) -> Scope:
        return cls("diagram")


@dataclass(slots=True)
class DataStore:
    """A persistent data store with ER-style internal structure."""

    id: str
    name: str
    icon: str = "database"  # 'database' | 'warehouse' | 'folder' | custom label
    entities: list[Entity] = field(default_factory=list)
    relationships: list[Relationship] = field(default_factory=list)
    generalizations: list[Generalization] = field(default_factory=list)
    scope: Scope = field(default_factory=Scope.diagram)
    collapsed: bool = False

    def __post_init__(self) -> None:
        # a store field's BPEL variable is named store.entity.field
        if "." in self.id:
            raise ModelError(f"store {self.id}: a store id may not contain '.'")

    def qualified_field_names(self) -> set[str]:
        """All ``Entity.field`` names, including fields inherited through
        generalizations: an entity has the own fields of every entity it
        reaches through generalizations between entities of the store."""
        own: dict[str, set[str]] = {e.name: {f.name for f in e.fields} for e in self.entities}
        parents: dict[str, list[str]] = {name: [] for name in own}
        for g in self.generalizations:
            if g.child in own and g.parent in own:
                parents[g.child].append(g.parent)
        fields: dict[str, set[str]] = {}  # entity -> own and inherited fields
        for component in strong_components(parents):
            # a component reaches what any of its entities reaches, and every
            # component it reaches comes before it
            reached = set().union(*(own[n] for n in component))
            for n in component:
                for p in parents[n]:
                    reached |= fields.get(p, set())
            fields.update(dict.fromkeys(component, reached))
        return {f"{e.name}.{f}" for e in self.entities for f in fields[e.name]}


def strong_components(edges: dict[str, list[str]]) -> list[list[str]]:
    """The strongly connected components of the graph with an edge from each
    key to each of its listed nodes, each component after every component
    it reaches (Tarjan's algorithm, walked with an explicit stack)."""
    number: dict[str, int] = {}  # visit order
    low: dict[str, int] = {}  # least visit number reachable within the open path
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in edges:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        stack.append(root)
        on_stack.add(root)
        path = [(root, iter(edges[root]))]
        while path:
            node, successors = path[-1]
            for nxt in successors:
                if nxt not in number:
                    number[nxt] = low[nxt] = len(number)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    path.append((nxt, iter(edges.get(nxt, ()))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], number[nxt])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == number[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    components.append(component)
    return components


@dataclass(slots=True)
class DataObject:
    """A structured data object that flows between nodes."""

    id: str
    name: str
    stereotype: str = "generic"  # known kind or custom label
    physicality: str = "digital"  # 'digital' | 'physical'
    variables: list[Variable] = field(default_factory=list)
    url: str | None = None
    state: str | None = None  # inert BPMN 1.2 object state, kept for compatibility
    origin_store: str | None = None

    def __post_init__(self) -> None:
        # a path names its object by the text before its first dot
        if "." in self.id:
            raise ModelError(f"object {self.id}: an object id may not contain '.'")
        if self.physicality not in ("digital", "physical"):
            raise ModelError(f"object {self.id}: invalid physicality {self.physicality!r}")

    def variable_names(self) -> set[str]:
        return {v.name for v in self.variables}


@dataclass(slots=True)
class CopyRule:
    """One rule of a data mapping: a target variable and the expression it copies."""

    from_expr: Expression
    to: str  # variable path in the target object


@dataclass(slots=True)
class DataMapping:
    """Copy rules that produce a target object from a source object."""

    id: str
    source_object: str
    target_object: str
    rules: list[CopyRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ModelError(f"mapping {self.id}: rules must be non-empty")


# ---------------------------------------------------------------------------
# Task behaviors (simulation configuration carried alongside the diagram)


@dataclass(slots=True)
class Effect:
    """Assignment ``object.path := expression`` run when a task fires."""

    target_object: str
    target_path: str
    expr: Expression


@dataclass(slots=True)
class StoreInsert:
    """A task's insertion of one record into a store entity."""

    store: str
    entity: str
    assignments: dict[str, Expression]  # field name -> expression


@dataclass(slots=True)
class StoreRead:
    """A task's extraction of a store record, filtered, into an object."""

    store: str
    entity: str
    object: str  # object to bind the record into
    filter: Expression | None = None


@dataclass(slots=True)
class TaskBehavior:
    """What a task does when it fires: effects, store actions, instances."""

    effects: list[Effect] = field(default_factory=list)
    store_actions: list[StoreInsert | StoreRead] = field(default_factory=list)
    instances: int = 1  # >1 only for multi-instance tasks

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ModelError(f"behavior: instances must be at least 1, not {self.instances}")


# ---------------------------------------------------------------------------
# Diagram


@dataclass
class Diagram:
    """A whole model: pools, stores, objects, mappings, message flows and simulation configuration."""

    id: str
    pools: list[Pool] = field(default_factory=list)
    stores: list[DataStore] = field(default_factory=list)
    objects: list[DataObject] = field(default_factory=list)
    mappings: list[DataMapping] = field(default_factory=list)
    message_flows: list[MessageFlow] = field(default_factory=list)
    behaviors: dict[str, TaskBehavior] = field(default_factory=dict)
    start_inputs: dict[str, dict[str, Value]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """One walk checks the identifiers and builds the tables by id; the reference checks read them."""
        seen: set[str] = {self.id}

        def unique(kind: str, elements) -> dict:
            """*elements* by id, each id checked against every id seen before."""
            table = {}
            for element in elements:
                if element.id in seen:
                    raise ModelError(f"duplicate identifier {element.id!r} ({kind})")
                seen.add(element.id)
                table[element.id] = element
            return table

        nodes: dict[str, Node] = {}  # pool by pool, each pool in pre-order
        pool_of: dict[str, Pool] = {}  # node or pool id -> pool
        flows: dict[str, SequenceFlow] = {}
        members: list[dict[str, Node]] = []  # per pool, its nodes by id
        produced: set[str] = set()  # the objects message starts output on sequence flows
        for pool in self.pools:
            pool_of.update(unique("pool", [pool]))
            pool_nodes = unique("node", pool.iter_nodes())
            members.append(pool_nodes)
            nodes.update(pool_nodes)
            pool_of.update(dict.fromkeys(pool_nodes, pool))
            flows.update(unique("sequence flow", pool.sequence_flows))
            unique("data flow", pool.explicit_data_flows)
            for flow in pool.sequence_flows:
                source = pool_nodes.get(flow.source)
                if source is not None and source.kind == "start_event_message":
                    produced.update(att.object for att in flow.attachments if att.direction == "output")
        stores = unique("store", self.stores)
        objects = unique("object", self.objects)
        unique("mapping", self.mappings)
        unique("message flow", self.message_flows)
        self._nodes, self._pool_of, self._flows, self._stores, self._objects = nodes, pool_of, flows, stores, objects
        self._start_objects = frozenset(produced)

        for pool, pool_nodes in zip(self.pools, members):
            for flow in pool.sequence_flows:
                for end in (flow.source, flow.target):
                    if end not in pool_nodes:
                        raise ModelError(f"sequence flow {flow.id}: endpoint {end!r} is not a node of pool {pool.id}")
                for att in flow.attachments:
                    if att.object not in objects:
                        raise ModelError(f"flow {flow.id}: unknown object {att.object!r}")
            for flow in pool.explicit_data_flows:
                if flow.source in stores and flow.target in stores:
                    raise ModelError(f"data flow {flow.id}: both endpoints are stores")
                for end in (flow.source, flow.target):
                    if end not in nodes and end not in stores:
                        raise ModelError(f"data flow {flow.id}: unknown endpoint {end!r}")
                if flow.object not in objects:
                    raise ModelError(f"data flow {flow.id}: unknown object {flow.object!r}")
            for node in pool_nodes.values():
                for sid in node.local_stores:
                    if sid not in stores:
                        raise ModelError(f"node {node.id}: unknown local store {sid!r}")

        for flow in self.message_flows:
            for end in (flow.source, flow.target):
                if end not in pool_of:
                    raise ModelError(f"message flow {flow.id}: unknown endpoint {end!r}")
            for att in flow.attachments:
                if att.object not in objects:
                    raise ModelError(f"message flow {flow.id}: unknown object {att.object!r}")

        for obj in self.objects:
            if obj.origin_store is not None and obj.origin_store not in stores:
                raise ModelError(f"object {obj.id}: unknown origin store {obj.origin_store!r}")

        for mapping in self.mappings:
            if mapping.source_object not in objects:
                raise ModelError(f"mapping {mapping.id}: unknown source object")
            if mapping.target_object not in objects:
                raise ModelError(f"mapping {mapping.id}: unknown target object")

        for store in self.stores:
            scope = store.scope.sub_process
            if scope is not None and scope not in nodes:
                raise ModelError(f"store {store.id}: unknown scope node {scope!r}")
            if scope is not None and nodes[scope].kind != "sub_process":
                raise ModelError(f"store {store.id}: scope node {scope!r} is not a sub-process")

        for node_id, behavior in self.behaviors.items():
            if node_id not in nodes:
                raise ModelError(f"behavior of {node_id}: unknown node")
            where = f"behavior of {node_id}"
            for effect in behavior.effects:
                if effect.target_object not in objects:
                    raise ModelError(f"{where}: unknown object {effect.target_object!r}")
            for action in behavior.store_actions:
                store = stores.get(action.store)
                if store is None:
                    raise ModelError(f"{where}: unknown store {action.store!r}")
                if all(entity.name != action.entity for entity in store.entities):
                    raise ModelError(f"{where}: unknown entity {action.entity!r} of store {store.id}")
                if isinstance(action, StoreRead) and action.object not in objects:
                    raise ModelError(f"{where}: unknown object {action.object!r}")
        for object_id in self.start_inputs:
            if object_id not in objects:
                raise ModelError(f"start input {object_id}: unknown object")
            if object_id not in produced:
                raise ModelError(f"start input {object_id}: no message start event produces it")

    def start_objects(self) -> frozenset[str]:
        """The objects a start input can bind: those a message start event
        outputs over a sequence flow, collected when the diagram is built."""
        return self._start_objects

    # -- lookups

    @cached_property
    def index(self) -> DiagramIndex:
        """The derived views, built on first use; see :class:`DiagramIndex`."""
        return DiagramIndex(self)

    def node(self, node_id: str) -> Node | None:
        return self._nodes.get(node_id)

    def pool_of(self, element_id: str) -> Pool | None:
        """Pool containing the node, or the pool itself for a pool id."""
        return self._pool_of.get(element_id)

    def store(self, store_id: str) -> DataStore | None:
        return self._stores.get(store_id)

    def object(self, object_id: str) -> DataObject | None:
        return self._objects.get(object_id)


# ---------------------------------------------------------------------------
# Provenance / consumption records


class LinkKind(str, Enum):
    STORE_EXTRACTION = "store_extraction"
    ACTIVITY_OUTPUT = "activity_output"
    MESSAGE_RECEIPT = "message_receipt"
    MESSAGE_START = "message_start"
    STORE_INSERTION = "store_insertion"
    ACTIVITY_INPUT = "activity_input"
    MESSAGE_SEND = "message_send"


class ObjectLink(NamedTuple):
    """One place an object is produced or consumed.

    ``element`` is the producing/consuming node or store; ``via`` is the
    flow carrying the object.
    """

    kind: LinkKind
    element: str
    via: str


def resolve_scope(diagram: Diagram, store_id: str) -> set[str]:
    """Node ids permitted to read/write the store: all nodes for a
    diagram-scoped store, the sub-process subtree (including the sub-process
    node itself) otherwise."""
    index = diagram.index
    store = index.stores[store_id]
    if store.scope.kind == "diagram":
        return set(index.nodes)
    return {node.id for node in _pre_order([diagram.node(store.scope.sub_process)])}


# ---------------------------------------------------------------------------
# Derived views used by the validator, pattern analyzer and simulator


class NodeIO(NamedTuple):
    object: str
    optional: bool
    via: str  # flow id
    channel: str  # 'sequence', 'message', 'store', 'explicit'


def node_inputs(diagram: Diagram, node_id: str) -> list[NodeIO]:
    """Objects consumed by a node, over every channel that can carry data in."""
    return list(diagram.index.inputs.get(node_id, ()))


def node_outputs(diagram: Diagram, node_id: str) -> list[NodeIO]:
    """Objects produced or emitted by a node."""
    return list(diagram.index.outputs.get(node_id, ()))


def reaches(diagram: Diagram, source: str, target: str) -> bool:
    """Directed reachability over sequence, message and explicit data flows.

    Stores participate as graph nodes; every element reaches itself.
    """
    if source == target:
        return True
    successors = diagram.index.successors
    seen = {source}
    stack = [source]
    while stack:
        for nxt in successors.get(stack.pop(), ()):
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


class DiagramIndex:
    """The derived views of one diagram, built in a single pass over its
    pools' sequence flows and explicit data flows, its behaviors and its
    message flows. The tables by id (``nodes``, ``pool_of``, ``flows``,
    ``stores``, ``objects``) are the diagram's own, built with it.

    Per-key lists keep the order of a scan over pools in order (each pool's
    sequence flows, then its explicit data flows), then the message flows,
    except ``in_flows`` and ``out_flows``, which are in flow-id order: the
    order in which a firing consumes and emits tokens and BPEL takes
    branches. The lists are shared: :func:`node_inputs` and
    :func:`node_outputs` hand out copies, and other readers only iterate them.
    """

    def __init__(self, diagram: Diagram) -> None:
        self.nodes: dict[str, Node] = diagram._nodes  # pool by pool, each pool in pre-order
        self.pool_of: dict[str, Pool] = diagram._pool_of  # node or pool id -> pool
        self.stores: dict[str, DataStore] = diagram._stores
        self.objects: dict[str, DataObject] = diagram._objects
        self.flows: dict[str, SequenceFlow] = diagram._flows  # sequence flows
        self.black_boxes: set[str] = set()  # pools without nodes
        self.in_flows: dict[str, list[SequenceFlow]] = {}  # node id -> sequence flows
        self.out_flows: dict[str, list[SequenceFlow]] = {}
        self.inputs: dict[str, list[NodeIO]] = {}  # endpoint id -> node_inputs
        self.outputs: dict[str, list[NodeIO]] = {}
        # object id -> where it is produced (store extraction, activity output,
        # message receipt or start) / consumed (store insertion, activity
        # input or message send)
        self.sources: dict[str, list[ObjectLink]] = {}
        self.targets: dict[str, list[ObjectLink]] = {}
        self.successors: dict[str, set[str]] = {}  # reaches adjacency
        # store id -> nodes extracting from it / inserting into it, over
        # explicit data flows and behaviors
        self.readers: dict[str, set[str]] = {}
        self.writers: dict[str, set[str]] = {}
        self.store_fed: set[str] = set()  # nodes with a store-channel input
        inputs, outputs, sources, targets = self.inputs, self.outputs, self.sources, self.targets
        stores = self.stores

        def add(table: dict, key: str, value) -> None:
            table.setdefault(key, []).append(value)

        for pool in diagram.pools:
            if not pool.nodes:
                self.black_boxes.add(pool.id)
            for flow in pool.sequence_flows:
                add(self.out_flows, flow.source, flow)
                add(self.in_flows, flow.target, flow)
                self.successors.setdefault(flow.source, set()).add(flow.target)
                produced = (
                    LinkKind.MESSAGE_START
                    if self.nodes[flow.source].kind == "start_event_message"
                    else LinkKind.ACTIVITY_OUTPUT
                )
                for att in flow.attachments:
                    if att.direction == "input":
                        add(inputs, flow.target, NodeIO(att.object, att.optional, flow.id, "sequence"))
                        add(targets, att.object, ObjectLink(LinkKind.ACTIVITY_INPUT, flow.target, flow.id))
                    else:
                        add(outputs, flow.source, NodeIO(att.object, False, flow.id, "sequence"))
                        add(sources, att.object, ObjectLink(produced, flow.source, flow.id))
            for flow in pool.explicit_data_flows:
                self.successors.setdefault(flow.source, set()).add(flow.target)
                from_store = flow.source in stores
                to_store = flow.target in stores
                in_channel = "store" if from_store else "explicit"
                out_channel = "store" if to_store else "explicit"
                add(inputs, flow.target, NodeIO(flow.object, flow.optional, flow.id, in_channel))
                add(outputs, flow.source, NodeIO(flow.object, False, flow.id, out_channel))
                if from_store:
                    self.readers.setdefault(flow.source, set()).add(flow.target)
                    self.store_fed.add(flow.target)
                    add(sources, flow.object, ObjectLink(LinkKind.STORE_EXTRACTION, flow.source, flow.id))
                elif not to_store:
                    # node-to-node transfer: produced by the source node
                    add(sources, flow.object, ObjectLink(LinkKind.ACTIVITY_OUTPUT, flow.source, flow.id))
                if to_store:
                    self.writers.setdefault(flow.target, set()).add(flow.source)
                    add(targets, flow.object, ObjectLink(LinkKind.STORE_INSERTION, flow.target, flow.id))
                elif not from_store:
                    add(targets, flow.object, ObjectLink(LinkKind.ACTIVITY_INPUT, flow.target, flow.id))
        for flows in (*self.in_flows.values(), *self.out_flows.values()):
            if len(flows) > 1:  # most nodes have one, and the index is built on every call
                flows.sort(key=lambda f: f.id)

        # node id -> each store read of its behavior, in order, with the paths
        # its filter names, sorted: what a firing extracts, and what the
        # simulator's memo of the read compares
        self.store_reads: dict[str, list[tuple[StoreRead, tuple[str, ...]]]] = {}
        for node_id, behavior in diagram.behaviors.items():
            for action in behavior.store_actions:
                if isinstance(action, StoreRead):
                    self.readers.setdefault(action.store, set()).add(node_id)
                    refs = () if action.filter is None else tuple(sorted(expr_refs(action.filter)))
                    add(self.store_reads, node_id, (action, refs))
                else:
                    self.writers.setdefault(action.store, set()).add(node_id)

        self.message_in: dict[str, list[MessageFlow]] = {}  # endpoint id -> message flows
        self.message_out: dict[str, list[MessageFlow]] = {}
        # flow id -> message flow to or from a black-box pool
        self.external_flows: dict[str, MessageFlow] = {}
        for flow in diagram.message_flows:
            add(self.message_in, flow.target, flow)
            add(self.message_out, flow.source, flow)
            if flow.source in self.black_boxes or flow.target in self.black_boxes:
                self.external_flows[flow.id] = flow
            self.successors.setdefault(flow.source, set()).add(flow.target)
            for att in flow.attachments:
                if att.direction == "input":
                    add(inputs, flow.target, NodeIO(att.object, att.optional, flow.id, "message"))
                    add(sources, att.object, ObjectLink(LinkKind.MESSAGE_RECEIPT, flow.target, flow.id))
                else:
                    add(outputs, flow.source, NodeIO(att.object, False, flow.id, "message"))
                    add(targets, att.object, ObjectLink(LinkKind.MESSAGE_SEND, flow.source, flow.id))

        # object id -> nodes taking it as an input, in the order of ``nodes``
        self.consumers: dict[str, list[str]] = {}
        for node_id in self.nodes:
            for obj in dict.fromkeys(io.object for io in inputs.get(node_id, ())):
                add(self.consumers, obj, node_id)
        # object id -> mappings producing it, sorted by id
        self.mappings_to: dict[str, list[DataMapping]] = {}
        for mapping in sorted(diagram.mappings, key=lambda m: m.id):
            add(self.mappings_to, mapping.target_object, mapping)
        self._mappings_into: dict[str, list[DataMapping]] = {}  # node id -> mappings_into, once asked

    def mappings_into(self, node_id: str) -> list[DataMapping]:
        """Mappings producing one of the node's inputs, in dependency order
        (:func:`_dependency_order`): the order in which a firing applies them
        and a translator emits them. Built on the first request and shared:
        callers only iterate it."""
        mappings = self._mappings_into.get(node_id)
        if mappings is None:
            objects = dict.fromkeys(io.object for io in self.inputs.get(node_id, ()))
            mappings = _dependency_order([m for obj in objects for m in self.mappings_to.get(obj, ())])
            self._mappings_into[node_id] = mappings
        return mappings


def _dependency_order(mappings: list[DataMapping]) -> list[DataMapping]:
    """*mappings* in id order, except that each comes after every other one
    that produces its source object, so a chain ``a -> b -> c`` is applied
    from ``a``: the first by id whose source no mapping left produces goes
    next, or the first left when a cycle leaves none."""
    left, ordered = sorted(mappings, key=lambda m: m.id), []
    while left:
        free = (m for m in left if all(o is m or o.target_object != m.source_object for o in left))
        ordered.append(next(free, left[0]))
        left.remove(ordered[-1])
    return ordered
