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
out of a node, the objects into and out of each endpoint, a store's readers
and writers, reachability) are built once, on first use, into a
:class:`DiagramIndex` cached on the diagram, which reuses the tables.

The element classes are written out by hand, not declared with
:mod:`dataclasses`: every command builds a model, and loading that module
(with :mod:`inspect`) and generating the methods of each class was a large
share of a cold call. They share one base class, ``_Record``, as do the
simulator's state and trace events; only :class:`Diagram` keeps a
``__dict__``, for its tables by id and its cached index.
"""

from __future__ import annotations

import math
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


def is_variable_path(text: str) -> bool:
    """Whether *text* can name a variable: names joined by ``.``, none
    empty, as an expression path after its object (``input.cardNumber``)."""
    return "" not in text.split(".")


def is_scalar(value: object) -> bool:
    """Whether *value* may be a start input: a string, finite number, boolean
    or null."""
    return value is None or isinstance(value, (str, int)) or (isinstance(value, float) and math.isfinite(value))


def start_input_fault(diagram: Diagram, object_id: str, values: dict[str, object]) -> tuple[str, str] | None:
    """The first rule that start input *values* (variable path -> value) for
    *object_id* break, as ``(rule, path)``, or ``None``. In order: the object
    is declared (``"object"``), a message start event outputs it on a sequence
    flow (``"start"``), each path is a variable path (``"path"``) and each
    value a scalar (``"value"``); *path* is empty for the first two. A
    diagram, ``simulator.init`` and ``simulate --set`` each word a fault."""
    if diagram.object(object_id) is None:
        return "object", ""
    if object_id not in diagram.start_objects():
        return "start", ""
    for path, value in values.items():
        if not is_variable_path(path):
            return "path", path
        if not is_scalar(value):
            return "value", path
    return None


# how a diagram words each rule of start_input_fault, after "start input OBJ: "
START_INPUT_REFUSALS = {
    "object": "unknown object",
    "start": "no message start event produces it",
    "path": "invalid variable path {path!r}",
    "value": "{path!r} must be a string, number, boolean or null",
}


class _Record:
    """What every element class shares, as :mod:`dataclasses` would generate
    it for a class with equality that is not frozen: an element equals one of
    the same class whose fields are equal, in order; its repr is
    ``Class(field=value, ...)``; and it has no hash. A subclass lists its
    fields once, in order, as ``__slots__ = _fields = (...)`` (``_fields``,
    as the package's named tuples call it), and assigns them in a plain
    ``__init__`` that also checks them."""

    __slots__ = ()
    _fields: tuple[str, ...]
    __hash__ = None  # an element can change, so equal elements could hash apart

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return tuple(getattr(self, name) for name in fields) == tuple(getattr(other, name) for name in fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Variable(_Record):
    """A named, typed field of a data object or a store entity."""

    __slots__ = _fields = ("name", "vtype")

    def __init__(self, name: str, vtype: str = "string") -> None:
        if not is_variable_path(name):
            raise ModelError(f"invalid variable name {name!r}")
        if vtype not in VTYPES:
            raise ModelError(f"invalid variable type {vtype!r}")
        self.name = name  # dot-qualified path allowed, e.g. "Device.deviceID"
        self.vtype = vtype


class ObjectAttachment(_Record):
    """A data object carried by a sequence or message flow, into or out of its endpoint."""

    __slots__ = _fields = ("object", "direction", "optional")

    def __init__(self, object: str, direction: str, optional: bool = False) -> None:
        if direction not in ("input", "output"):
            raise ModelError(f"invalid attachment direction {direction!r}")
        self.object = object  # object id
        self.direction = direction  # 'input' | 'output'
        self.optional = optional


class SequenceFlow(_Record):
    """A control-flow edge between two nodes of one pool, optionally guarded."""

    __slots__ = _fields = ("id", "source", "target", "attachments", "guard")

    def __init__(
        self,
        id: str,
        source: str,
        target: str,
        attachments: list[ObjectAttachment] | None = None,
        guard: Expression | None = None,
    ) -> None:
        if source == target:
            raise ModelError(f"flow {id}: source equals target")
        self.id = id
        self.source = source
        self.target = target
        self.attachments = [] if attachments is None else attachments
        self.guard = guard


class MessageFlow(_Record):
    """A message between nodes of two pools, or a node and a black-box pool."""

    __slots__ = _fields = ("id", "source", "target", "attachments")

    def __init__(self, id: str, source: str, target: str, attachments: list[ObjectAttachment] | None = None) -> None:
        if source == target:
            raise ModelError(f"message flow {id}: source equals target")
        self.id = id
        self.source = source  # node id, or pool id for a black-box pool
        self.target = target
        self.attachments = [] if attachments is None else attachments


class ExplicitDataFlow(_Record):
    """Dashed-line data connector between a store and a node or two nodes."""

    __slots__ = _fields = ("id", "source", "target", "object", "optional")

    def __init__(self, id: str, source: str, target: str, object: str, optional: bool = False) -> None:
        if source == target:
            raise ModelError(f"data flow {id}: source equals target")
        self.id = id
        self.source = source  # node id or store id
        self.target = target  # node id or store id
        self.object = object
        self.optional = optional


class Node(_Record):
    """A task, sub-process, gateway or event of a pool."""

    __slots__ = _fields = ("id", "name", "kind", "children", "local_stores", "condition", "multi_instance")

    def __init__(
        self,
        id: str,
        name: str,
        kind: str,
        children: list[Node] | None = None,
        local_stores: list[str] | None = None,
        condition: Expression | None = None,
        multi_instance: bool = False,
    ) -> None:
        if kind not in NODE_KINDS:
            raise ModelError(f"node {id}: unknown kind {kind!r}")
        if children and kind != "sub_process":
            raise ModelError(f"node {id}: only sub-processes may have children")
        if local_stores and kind != "sub_process":
            raise ModelError(f"node {id}: only sub-processes may declare local stores")
        if condition is not None and kind != "gateway_exclusive_data":
            raise ModelError(f"node {id}: condition allowed only on data-based gateways")
        if multi_instance and kind != "task":
            raise ModelError(f"node {id}: multi-instance marker allowed only on tasks")
        self.id = id
        self.name = name
        self.kind = kind
        self.children = [] if children is None else children
        self.local_stores = [] if local_stores is None else local_stores
        self.condition = condition
        self.multi_instance = multi_instance


class Pool(_Record):
    """A participant: its nodes, sequence flows and explicit data flows."""

    __slots__ = _fields = ("id", "name", "nodes", "sequence_flows", "explicit_data_flows")

    def __init__(
        self,
        id: str,
        name: str,
        nodes: list[Node] | None = None,
        sequence_flows: list[SequenceFlow] | None = None,
        explicit_data_flows: list[ExplicitDataFlow] | None = None,
    ) -> None:
        self.id = id
        self.name = name
        self.nodes = [] if nodes is None else nodes
        self.sequence_flows = [] if sequence_flows is None else sequence_flows
        self.explicit_data_flows = [] if explicit_data_flows is None else explicit_data_flows

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


class Entity(_Record):
    """An entity of a data store's internal structure, with its fields."""

    __slots__ = _fields = ("name", "fields")

    def __init__(self, name: str, fields: list[Variable] | None = None) -> None:
        # a store field's BPEL variable is named store.entity.field
        if "." in name:
            raise ModelError(f"entity {name}: an entity name may not contain '.'")
        if fields is None:
            fields = []
        names = [f.name for f in fields]
        if len(names) != len(set(names)):
            raise ModelError(f"entity {name}: duplicate field names")
        self.name = name
        self.fields = fields


class Relationship(_Record):
    """A named relationship between two entities of a store."""

    __slots__ = _fields = ("name", "left", "right")

    def __init__(self, name: str, left: str, right: str) -> None:
        self.name = name
        self.left = left  # entity name
        self.right = right


class Generalization(_Record):
    """An is-a link: the child entity inherits the parent's fields."""

    __slots__ = _fields = ("parent", "child")

    def __init__(self, parent: str, child: str) -> None:
        if parent == child:
            raise ModelError(f"generalization: {parent} cannot generalize itself")
        self.parent = parent  # entity name
        self.child = child


class Scope(_Record):
    """Store visibility: the whole diagram, or one sub-process subtree."""

    __slots__ = _fields = ("kind", "sub_process")

    def __init__(self, kind: str, sub_process: str | None = None) -> None:
        if kind not in ("diagram", "sub_process"):
            raise ModelError(f"invalid scope kind {kind!r}")
        if kind == "sub_process" and not sub_process:
            raise ModelError("sub-process scope requires a node id")
        if kind == "diagram" and sub_process is not None:
            raise ModelError("diagram scope names no node")
        self.kind = kind  # 'diagram' | 'sub_process'
        self.sub_process = sub_process

    @classmethod
    def diagram(cls) -> Scope:
        return cls("diagram")


class DataStore(_Record):
    """A persistent data store with ER-style internal structure."""

    __slots__ = _fields = (
        "id",
        "name",
        "icon",
        "entities",
        "relationships",
        "generalizations",
        "scope",
        "collapsed",
    )

    def __init__(
        self,
        id: str,
        name: str,
        icon: str = "database",
        entities: list[Entity] | None = None,
        relationships: list[Relationship] | None = None,
        generalizations: list[Generalization] | None = None,
        scope: Scope | None = None,
        collapsed: bool = False,
    ) -> None:
        # a store field's BPEL variable is named store.entity.field
        if "." in id:
            raise ModelError(f"store {id}: a store id may not contain '.'")
        self.id = id
        self.name = name
        self.icon = icon  # 'database' | 'warehouse' | 'folder' | custom label
        self.entities = [] if entities is None else entities
        self.relationships = [] if relationships is None else relationships
        self.generalizations = [] if generalizations is None else generalizations
        self.scope = Scope.diagram() if scope is None else scope
        self.collapsed = collapsed

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


class DataObject(_Record):
    """A structured data object that flows between nodes."""

    __slots__ = _fields = ("id", "name", "stereotype", "physicality", "variables", "url", "state", "origin_store")

    def __init__(
        self,
        id: str,
        name: str,
        stereotype: str = "generic",
        physicality: str = "digital",
        variables: list[Variable] | None = None,
        url: str | None = None,
        state: str | None = None,
        origin_store: str | None = None,
    ) -> None:
        # a path names its object by the text before its first dot
        if "." in id:
            raise ModelError(f"object {id}: an object id may not contain '.'")
        if physicality not in ("digital", "physical"):
            raise ModelError(f"object {id}: invalid physicality {physicality!r}")
        self.id = id
        self.name = name
        self.stereotype = stereotype  # known kind or custom label
        self.physicality = physicality  # 'digital' | 'physical'
        self.variables = [] if variables is None else variables
        self.url = url
        self.state = state  # inert BPMN 1.2 object state, kept for compatibility
        self.origin_store = origin_store

    def variable_names(self) -> set[str]:
        return {v.name for v in self.variables}


class CopyRule(_Record):
    """One rule of a data mapping: a target variable and the expression it copies."""

    __slots__ = _fields = ("from_expr", "to")

    def __init__(self, from_expr: Expression, to: str) -> None:
        self.from_expr = from_expr
        self.to = to  # variable path in the target object


class DataMapping(_Record):
    """Copy rules that produce a target object from a source object."""

    __slots__ = _fields = ("id", "source_object", "target_object", "rules")

    def __init__(self, id: str, source_object: str, target_object: str, rules: list[CopyRule] | None = None) -> None:
        if not rules:
            raise ModelError(f"mapping {id}: rules must be non-empty")
        self.id = id
        self.source_object = source_object
        self.target_object = target_object
        self.rules = rules


# ---------------------------------------------------------------------------
# Task behaviors (simulation configuration carried alongside the diagram)


class Effect(_Record):
    """Assignment ``object.path := expression`` run when a task fires."""

    __slots__ = _fields = ("target_object", "target_path", "expr")

    def __init__(self, target_object: str, target_path: str, expr: Expression) -> None:
        # None is the parser's stand-in for a target text it refused already
        if target_path is not None and not is_variable_path(target_path):
            raise ModelError(f"effect on {target_object}: invalid target path {target_path!r}")
        self.target_object = target_object
        self.target_path = target_path
        self.expr = expr


class StoreInsert(_Record):
    """A task's insertion of one record into a store entity."""

    __slots__ = _fields = ("store", "entity", "assignments")

    def __init__(self, store: str, entity: str, assignments: dict[str, Expression]) -> None:
        self.store = store
        self.entity = entity
        self.assignments = assignments  # field name -> expression


class StoreRead(_Record):
    """A task's extraction of a store record, filtered, into an object."""

    __slots__ = _fields = ("store", "entity", "object", "filter")

    def __init__(self, store: str, entity: str, object: str, filter: Expression | None = None) -> None:
        self.store = store
        self.entity = entity
        self.object = object  # object to bind the record into
        self.filter = filter


class TaskBehavior(_Record):
    """What a task does when it fires: effects, store actions, instances."""

    __slots__ = _fields = ("effects", "store_actions", "instances")

    def __init__(
        self,
        effects: list[Effect] | None = None,
        store_actions: list[StoreInsert | StoreRead] | None = None,
        instances: int = 1,
    ) -> None:
        if instances < 1:
            raise ModelError(f"behavior: instances must be at least 1, not {instances}")
        self.effects = [] if effects is None else effects
        self.store_actions = [] if store_actions is None else store_actions
        self.instances = instances  # >1 only for multi-instance tasks


# ---------------------------------------------------------------------------
# Diagram


class Diagram(_Record):
    """A whole model: pools, stores, objects, mappings, message flows and
    simulation configuration. Unlike the other element classes it has a
    ``__dict__``, which holds its tables by id and the cached ``index``."""

    _fields = ("id", "pools", "stores", "objects", "mappings", "message_flows", "behaviors", "start_inputs")

    def __init__(
        self,
        id: str,
        pools: list[Pool] | None = None,
        stores: list[DataStore] | None = None,
        objects: list[DataObject] | None = None,
        mappings: list[DataMapping] | None = None,
        message_flows: list[MessageFlow] | None = None,
        behaviors: dict[str, TaskBehavior] | None = None,
        start_inputs: dict[str, dict[str, Value]] | None = None,
    ) -> None:
        self.id = id
        self.pools = [] if pools is None else pools
        self.stores = [] if stores is None else stores
        self.objects = [] if objects is None else objects
        self.mappings = [] if mappings is None else mappings
        self.message_flows = [] if message_flows is None else message_flows
        self.behaviors = {} if behaviors is None else behaviors
        self.start_inputs = {} if start_inputs is None else start_inputs

        # one walk checks the identifiers and builds the tables by id; the
        # reference checks read them
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
        for object_id, values in self.start_inputs.items():
            fault = start_input_fault(self, object_id, values)
            if fault is not None:
                rule, path = fault
                raise ModelError(f"start input {object_id}: " + START_INPUT_REFUSALS[rule].format(path=path))

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

    Data links are held only per endpoint, as the :class:`NodeIO` entries of
    ``inputs`` and ``outputs`` (keyed by node, store or pool), not per object.

    The index is built on every command that reads a view, so the pass pays
    no call per entry: it appends through each table's ``setdefault`` and
    builds each :class:`NodeIO` with ``tuple.__new__``, as :mod:`bpdmn.expr`
    builds its tokens.
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
        self.successors: dict[str, set[str]] = {}  # reaches adjacency
        # store id -> nodes extracting from it / inserting into it, over
        # explicit data flows and behaviors
        self.readers: dict[str, set[str]] = {}
        self.writers: dict[str, set[str]] = {}
        self.store_fed: set[str] = set()  # nodes with a store-channel input
        stores = self.stores
        # each name below is its table's setdefault, and ``new`` builds a
        # record from a tuple, without the named tuple's Python-level __new__
        in_flows, out_flows = self.in_flows.setdefault, self.out_flows.setdefault
        successors = self.successors.setdefault
        inputs, outputs = self.inputs.setdefault, self.outputs.setdefault
        readers, writers = self.readers.setdefault, self.writers.setdefault
        new = tuple.__new__

        for pool in diagram.pools:
            if not pool.nodes:
                self.black_boxes.add(pool.id)
            for flow in pool.sequence_flows:
                source, target = flow.source, flow.target
                out_flows(source, []).append(flow)
                in_flows(target, []).append(flow)
                successors(source, set()).add(target)
                for att in flow.attachments:
                    if att.direction == "input":
                        inputs(target, []).append(new(NodeIO, (att.object, att.optional, flow.id, "sequence")))
                    else:
                        outputs(source, []).append(new(NodeIO, (att.object, False, flow.id, "sequence")))
            for flow in pool.explicit_data_flows:
                source, target, obj = flow.source, flow.target, flow.object
                successors(source, set()).add(target)
                from_store = source in stores
                to_store = target in stores
                in_channel = "store" if from_store else "explicit"
                out_channel = "store" if to_store else "explicit"
                inputs(target, []).append(new(NodeIO, (obj, flow.optional, flow.id, in_channel)))
                outputs(source, []).append(new(NodeIO, (obj, False, flow.id, out_channel)))
                if from_store:
                    readers(source, set()).add(target)
                    self.store_fed.add(target)
                elif to_store:
                    writers(target, set()).add(source)
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
                    readers(action.store, set()).add(node_id)
                    refs = () if action.filter is None else tuple(sorted(expr_refs(action.filter)))
                    self.store_reads.setdefault(node_id, []).append((action, refs))
                else:
                    writers(action.store, set()).add(node_id)

        self.message_in: dict[str, list[MessageFlow]] = {}  # endpoint id -> message flows
        self.message_out: dict[str, list[MessageFlow]] = {}
        # flow id -> message flow to or from a black-box pool
        self.external_flows: dict[str, MessageFlow] = {}
        for flow in diagram.message_flows:
            source, target = flow.source, flow.target
            self.message_in.setdefault(target, []).append(flow)
            self.message_out.setdefault(source, []).append(flow)
            if source in self.black_boxes or target in self.black_boxes:
                self.external_flows[flow.id] = flow
            successors(source, set()).add(target)
            for att in flow.attachments:
                if att.direction == "input":
                    inputs(target, []).append(new(NodeIO, (att.object, att.optional, flow.id, "message")))
                else:
                    outputs(source, []).append(new(NodeIO, (att.object, False, flow.id, "message")))
        # the message start events a message flow feeds
        self.message_starts: frozenset[str] = frozenset(
            n for n in self.message_in if n in self.nodes and self.nodes[n].kind == "start_event_message"
        )
        # object id -> mappings producing it, sorted by id
        self.mappings_to: dict[str, list[DataMapping]] = {}
        for mapping in sorted(diagram.mappings, key=lambda m: m.id):
            self.mappings_to.setdefault(mapping.target_object, []).append(mapping)
        self._mappings_into: dict[str, list[DataMapping]] = {}  # node id -> mappings_into, once asked
        self._behaviors = diagram.behaviors
        self._footprints: dict[str, tuple[frozenset[str], ...]] = {}  # node id -> footprint, once asked

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

    def footprint(self, node_id: str) -> tuple[frozenset[str], ...]:
        """What a firing of the node can touch besides its own entry in the
        completed set, built on the first request: the ids of the flows, the
        objects read, the objects written, the stores read and the stores
        inserted into. A plain tuple, since a named tuple class would be built
        at every import of the module, and most commands never ask.

        - Flows: its sequence and message flows, in and out.
        - Objects read: its inputs, the sources of the mappings into it and
          the objects their rules name, the objects named by its guards,
          effects, inserts and store filters, and the attachments of the
          message flows it sends on.
        - Objects written: its non-store outputs, its optional inputs (bound
          to null when absent), the targets of the mappings into it, its
          effect targets, the objects its store reads bind, and the
          attachments of the message flows it receives on.
        - Stores: those its behaviour reads from and inserts into.

        A name an expression reads is ``object.path``; its object is the part
        before the first dot."""
        footprint = self._footprints.get(node_id)
        if footprint is not None:
            return footprint
        inputs = self.inputs.get(node_id, ())
        tables = (self.in_flows, self.out_flows, self.message_in, self.message_out)
        flows = {f.id for table in tables for f in table.get(node_id, ())}
        reads = {io.object for io in inputs}
        writes = {io.object for io in inputs if io.optional}
        writes.update(io.object for io in self.outputs.get(node_id, ()) if io.channel != "store")
        expressions = [f.guard for f in self.out_flows.get(node_id, ()) if f.guard is not None]
        for mapping in self.mappings_into(node_id):
            reads.add(mapping.source_object)
            writes.add(mapping.target_object)
            expressions += (rule.from_expr for rule in mapping.rules)
        reads.update(att.object for f in self.message_out.get(node_id, ()) for att in f.attachments)
        writes.update(att.object for f in self.message_in.get(node_id, ()) for att in f.attachments)
        store_reads, inserts = set(), set()
        behavior = self._behaviors.get(node_id)
        if behavior is not None:
            for effect in behavior.effects:
                writes.add(effect.target_object)
                expressions.append(effect.expr)
            for action in behavior.store_actions:
                if isinstance(action, StoreRead):
                    store_reads.add(action.store)
                    writes.add(action.object)
                    if action.filter is not None:
                        expressions.append(action.filter)
                else:
                    inserts.add(action.store)
                    expressions += action.assignments.values()
        reads.update(ref.partition(".")[0] for e in expressions for ref in expr_refs(e))
        footprint = self._footprints[node_id] = (
            frozenset(flows),
            frozenset(reads),
            frozenset(writes),
            frozenset(store_reads),
            frozenset(inserts),
        )
        return footprint


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
