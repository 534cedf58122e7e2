"""Object graphs and structural graph comparison (paper Definitions 1–2).

This module implements Definition 1 of the paper: an *object graph* is a
graph whose nodes are objects or instances of basic data types, where the
values of instance variables appear as labeled children, and where aliasing
is preserved — two references to the same object share a single node.

An :class:`ObjectGraph` is a fully materialized snapshot: it holds no
references to the live objects it was captured from, so it doubles as the
``deep_copy`` used by the paper's injection wrappers (Listing 1).  Failure
atomicity of a method is judged by comparing the graph captured before the
call with the graph observed when an exception propagates out
(Definition 2); :func:`graphs_equal` implements that comparison as a rooted
isomorphism check that respects edge labels, node types, scalar values, and
sharing structure.  The observed graph need not be copied:
``graph_diff(before, LiveFrame(roots))`` walks the captured graph and the
live objects in lockstep and stops at the first difference, with exactly
the result a second capture and diff would give.

A capture plans per type, not per node:
:data:`~repro.core.state.introspect.TYPE_PLANS` memoizes whether a type is
a scalar, opaque or node type, its kind and its type name, and the common
shapes (exact lists and tuples, plain
``__dict__`` instances, scalar children) skip the generic child iterator.

Type introspection and the canonical child ordering live in
:mod:`repro.core.state.introspect`, shared with the fingerprint and
checkpoint backends so that all three agree on what "the reachable state"
is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .introspect import (
    KIND_BYTEARRAY,
    KIND_FRAME,
    KIND_OPAQUE,
    KIND_SCALAR,
    SCALAR_TYPES,
    CaptureLimitError,
    PLAN_OPAQUE,
    PLAN_SCALAR,
    TYPE_PLANS,
    default_ignore,
    is_opaque,
    is_scalar,
    iter_children,
    opaque_token,
    safe_repr,
    type_plan,
)

__all__ = [
    "GraphNode",
    "ObjectGraph",
    "CaptureLimitError",
    "capture",
    "capture_frame",
    "graphs_equal",
    "graph_diff",
    "graph_diff_all",
    "GraphDifference",
    "LiveFrame",
    "SCALAR_TYPES",
    "is_scalar",
    "is_opaque",
]


class GraphNode:
    """A single node of an :class:`ObjectGraph`.

    Attributes:
        kind: one of the ``KIND_*`` tags (scalar, object, list, ...).
        type_name: qualified name of the runtime type of the value.
        value: the scalar value for ``scalar`` nodes, an identity token for
            ``opaque`` nodes, and ``None`` otherwise.
        edges: labeled edges to child node ids.  Labels are small tuples
            such as ``("attr", name)``, ``("index", i)``, ``("key", k)``.

    Slotted, because a capture allocates one per reachable value;
    nodes compare equal when their four fields do.
    """

    __slots__ = ("kind", "type_name", "value", "edges")

    def __init__(
        self,
        kind: str,
        type_name: str,
        value: Any = None,
        edges: Optional[List[Tuple[Tuple[str, Any], int]]] = None,
    ) -> None:
        self.kind = kind
        self.type_name = type_name
        self.value = value
        self.edges = [] if edges is None else edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.type_name, self.value, self.edges) == (
            other.kind,  # type: ignore[attr-defined]
            other.type_name,  # type: ignore[attr-defined]
            other.value,  # type: ignore[attr-defined]
            other.edges,  # type: ignore[attr-defined]
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"GraphNode(kind={self.kind!r}, type_name={self.type_name!r}, "
            f"value={self.value!r}, edges={self.edges!r})"
        )


class ObjectGraph:
    """A materialized snapshot of the state reachable from a root object.

    The graph owns its nodes; it never references the live objects it was
    captured from.  Node 0 is always the root.
    """

    __slots__ = ("nodes", "root")

    def __init__(self) -> None:
        self.nodes: List[GraphNode] = []
        self.root: int = 0

    def add_node(self, node: GraphNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def node(self, node_id: int) -> GraphNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectGraph):
            return NotImplemented
        return graphs_equal(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # ObjectGraphs are mutable snapshots; keep them unhashable like lists.
    __hash__ = None  # type: ignore[assignment]

    def size(self) -> int:
        """Number of nodes in the graph."""
        return len(self.nodes)

    def describe(self, node_id: Optional[int] = None, depth: int = 2) -> str:
        """Human-readable sketch of the graph (for diagnostics)."""
        node_id = self.root if node_id is None else node_id
        lines: List[str] = []
        self._describe(node_id, depth, "", lines, set())
        return "\n".join(lines)

    def _describe(
        self,
        node_id: int,
        depth: int,
        indent: str,
        lines: List[str],
        seen: set,
    ) -> None:
        node = self.nodes[node_id]
        tag = f"{indent}#{node_id} {node.kind}:{node.type_name}"
        if node.kind == KIND_SCALAR:
            tag += f" = {node.value!r}"
        lines.append(tag)
        if node_id in seen or depth <= 0:
            return
        seen.add(node_id)
        for label, child in node.edges:
            lines.append(f"{indent}  [{label[0]}={safe_repr(label[1])}] ->")
            self._describe(child, depth - 1, indent + "    ", lines, seen)


#: Shared index labels: a capture allocates no label tuple for a list
#: index below the cap.  Labels are immutable, so graphs may share them.
#: (Building them per list instead cost ~3% of ``table1-sweep``
#: throughput, measured on a 2-CPU VM under Python 3.11.)
_INDEX_LABELS: List[Tuple[str, int]] = []
_INDEX_LABELS_MAX = 4096


def _index_labels(size: int) -> List[Tuple[str, int]]:
    """``[("index", 0), ..., ("index", size - 1)]``."""
    global _INDEX_LABELS
    labels = _INDEX_LABELS
    if size > len(labels) and len(labels) < _INDEX_LABELS_MAX:
        # Grown by rebinding, never in place, so a capture on another
        # thread always reads a correct prefix.
        end = min(size, _INDEX_LABELS_MAX)
        labels = labels + [("index", i) for i in range(len(labels), end)]
        _INDEX_LABELS = labels
    if size <= len(labels):
        return labels[:size]
    return labels + [("index", i) for i in range(len(labels), size)]


#: ``__dict__`` key order -> the attribute labels and names to read, for
#: the default filter (a pure function of the name), so the sort, the
#: filter and the labels are built once per layout.  Instances of one
#: class share a key order: on the Table-1 and service benchmark
#: workloads over 99.5% of lookups hit, and dropping the memo cost ~7%
#: of ``table1-sweep`` throughput (2-CPU VM, Python 3.11).
_ATTR_LAYOUTS: Dict[
    Tuple[str, ...], Tuple[List[Tuple[str, str]], List[str]]
] = {}
_ATTR_LAYOUTS_MAX = 4096


def _fast_children(
    obj: Any,
    plan: Tuple[int, str, str, bool],
    ignore_attrs: Callable[[str], bool],
) -> Optional[Tuple[Sequence[Tuple[str, Any]], Sequence[Any]]]:
    """The edge labels and child values of an exact ``list``/``tuple`` or
    a plain ``__dict__`` instance (the common shapes), in the order
    :func:`~repro.core.state.introspect.iter_children` yields them; None
    for any other value."""
    cls = type(obj)
    if cls is list or cls is tuple:
        return _index_labels(len(obj)), obj
    if not plan[3]:
        return None
    obj_dict = getattr(obj, "__dict__", None)
    if type(obj_dict) is not dict:
        return None
    memo = ignore_attrs is default_ignore
    keys = tuple(obj_dict)
    layout = _ATTR_LAYOUTS.get(keys) if memo else None
    if layout is None:
        names = [name for name in sorted(keys) if not ignore_attrs(name)]
        layout = [("attr", name) for name in names], names
        if memo and len(_ATTR_LAYOUTS) < _ATTR_LAYOUTS_MAX:
            _ATTR_LAYOUTS[keys] = layout
    labels, names = layout
    return labels, [obj_dict[name] for name in names]


class _Capturer:
    """Iterative, aliasing-preserving graph capture.

    Node ids are assigned in entry order: a node's children are entered
    (numbered) together when the node is expanded, and the last entered
    node is expanded first.  The traversal is explicit-stack based so
    that deep structures such as long linked lists do not exhaust the
    interpreter recursion limit.
    """

    def __init__(
        self,
        ignore_attrs: Callable[[str], bool],
        max_nodes: Optional[int] = None,
    ) -> None:
        self._graph = ObjectGraph()
        self._seen: Dict[int, int] = {}  # id(obj) -> node id
        self._ignore_attrs = ignore_attrs
        self._max_nodes = max_nodes
        # Keep captured objects alive for the duration of the capture so
        # id() values stay unique.
        self._pins: List[Any] = []

    def capture(self, value: Any) -> ObjectGraph:
        edges: List[Tuple[Any, int]] = []
        self._visit([(None, value)], edges)
        self._graph.root = edges[0][1]
        return self._graph

    def capture_many(self, label_values: Iterable[Tuple[Any, Any]]) -> ObjectGraph:
        """Capture several roots under a synthetic frame node.

        *label_values* yields ``(label_key, value)`` pairs; each becomes a
        labeled edge from the frame root.  Used for capturing a receiver
        together with its mutable arguments.
        """
        frame = GraphNode(KIND_FRAME, "<frame>")
        self._graph.root = self._graph.add_node(frame)
        for key, value in label_values:
            # each root is expanded in full before the next is entered
            self._visit([(("slot", key), value)], frame.edges)
        return self._graph

    def _visit(
        self, items: Iterable[Tuple[Any, Any]], edges: List[Tuple[Any, int]]
    ) -> None:
        """Enter *items* as *edges*, then expand every node they reach."""
        nodes = self._graph.nodes
        add = nodes.append
        seen = self._seen
        pin = self._pins.append
        ignore_attrs = self._ignore_attrs
        max_nodes = self._max_nodes
        plans = TYPE_PLANS
        pending: List[Tuple[Any, GraphNode, Tuple[int, str, str, bool]]] = []
        while True:
            link = edges.append
            for label, child in items:
                if max_nodes is not None and len(nodes) >= max_nodes:
                    raise CaptureLimitError(
                        f"object graph exceeds {max_nodes} nodes"
                    )
                plan = plans.get(type(child)) or type_plan(child)
                category = plan[0]
                if category == PLAN_SCALAR:
                    # Scalars are compared by value; interning makes
                    # identity meaningless, so each occurrence gets its
                    # own leaf node.
                    link((label, len(nodes)))
                    add(GraphNode(KIND_SCALAR, plan[2], child))
                    continue
                oid = id(child)
                node_id = seen.get(oid)
                if node_id is None:
                    node_id = seen[oid] = len(nodes)
                    pin(child)
                    if category == PLAN_OPAQUE:
                        add(GraphNode(KIND_OPAQUE, plan[2], opaque_token(child)))
                    else:
                        node = GraphNode(plan[1], plan[2])
                        add(node)
                        pending.append((child, node, plan))
                link((label, node_id))
            if not pending:
                return
            obj, node, plan = pending.pop()
            edges = node.edges
            if plan[1] == KIND_BYTEARRAY:
                node.value = bytes(obj)
                items = ()
                continue
            shape = _fast_children(obj, plan, ignore_attrs)
            if shape is None:
                items = iter_children(obj, plan[1], ignore_attrs)
            else:
                items = zip(*shape)


def capture(
    value: Any,
    *,
    ignore_attrs: Optional[Callable[[str], bool]] = None,
    max_nodes: Optional[int] = None,
) -> ObjectGraph:
    """Capture the object graph rooted at *value* (paper Definition 1).

    The returned graph is a fully materialized snapshot: mutating *value*
    afterwards does not affect it, which is what lets the injection wrapper
    use it as the ``deep_copy`` of Listing 1.

    Args:
        max_nodes: optional node budget; exceeding it raises
            :class:`CaptureLimitError` instead of stalling on a huge graph.
    """
    return _Capturer(ignore_attrs or default_ignore, max_nodes).capture(value)


def capture_frame(
    label_values: Iterable[Tuple[Any, Any]],
    *,
    ignore_attrs: Optional[Callable[[str], bool]] = None,
    max_nodes: Optional[int] = None,
) -> ObjectGraph:
    """Capture several labeled roots under one synthetic frame node.

    Used to snapshot a receiver together with its mutable arguments (the
    paper includes "arguments passed in as non-constant references" in the
    injection wrapper's copy).
    """
    return _Capturer(ignore_attrs or default_ignore, max_nodes).capture_many(
        label_values
    )


@dataclass
class GraphDifference:
    """First structural difference found between two graphs."""

    path: str
    reason: str

    def __str__(self) -> str:
        return f"at {self.path or '<root>'}: {self.reason}"


def graphs_equal(a: ObjectGraph, b: ObjectGraph) -> bool:
    """True if the two graphs are structurally identical.

    Equality is rooted isomorphism: same node kinds, types, scalar values,
    edge labels, and — crucially — the same *sharing* structure.  A method
    that replaces a shared child with an equal-valued private copy changes
    the graph and is therefore failure non-atomic under Definition 2.
    """
    return graph_diff(a, b) is None


def graph_diff(
    a: ObjectGraph, b: Union[ObjectGraph, "LiveFrame"]
) -> Optional[GraphDifference]:
    """Return the first difference between graphs, or None if equal.

    *b* may be a :class:`LiveFrame`: the result is then exactly
    ``graph_diff(a, capture_frame(...))`` of the frame's roots, found by
    walking the live objects without building that graph.
    """
    if isinstance(b, LiveFrame):
        if b.max_nodes is not None:
            # The budget is defined on the materialized graph, and an
            # over-budget after-state must raise even when a difference
            # shows early: capture it in full.
            b = capture_frame(
                b.roots, ignore_attrs=b.ignore_attrs, max_nodes=b.max_nodes
            )
        else:
            return _diff_live(a, b)
    differences = graph_diff_all(a, b, limit=1)
    return differences[0] if differences else None


#: A diff queue entry's path, kept as a parent link: ``(parent, label)``,
#: ``None`` at the root.  The string is built only for a reported
#: difference.
_Trail = Optional[Tuple[Any, Tuple[str, Any]]]


def _path(trail: _Trail) -> str:
    parts = []
    while trail is not None:
        trail, label = trail
        parts.append(f"/{label[0]}={safe_repr(label[1])}")
    return "".join(reversed(parts))


def graph_diff_all(
    a: ObjectGraph, b: ObjectGraph, *, limit: int = 10
) -> List[GraphDifference]:
    """Collect up to *limit* structural differences between two graphs.

    Unlike :func:`graph_diff`, traversal continues past a mismatching
    subtree (the mismatching pair is simply not descended into), so the
    report shows every independently corrupted region — useful when
    deciding whether a non-atomic method has one defect or several.
    """
    differences: List[GraphDifference] = []
    # Parallel DFS maintaining a bijection between mutable node ids.
    a_to_b: Dict[int, int] = {}
    b_to_a: Dict[int, int] = {}
    queue: List[Tuple[int, int, _Trail]] = [(a.root, b.root, None)]

    def note(trail: _Trail, reason: str) -> bool:
        """Record a difference; return True when the limit is reached."""
        differences.append(GraphDifference(_path(trail), reason))
        return len(differences) >= limit

    while queue:
        na_id, nb_id, trail = queue.pop()
        na = a.nodes[na_id]
        nb = b.nodes[nb_id]
        if na.kind == KIND_SCALAR or nb.kind == KIND_SCALAR:
            reason = _scalar_difference(na, nb.kind, nb.type_name, nb.value)
            if reason is not None and note(trail, reason):
                return differences
            continue
        mapped = a_to_b.get(na_id)
        if mapped is not None:
            if mapped != nb_id and note(trail, "sharing structure differs"):
                return differences
            continue  # already compared through another path
        if nb_id in b_to_a:
            if note(trail, "sharing structure differs"):
                return differences
            continue
        a_to_b[na_id] = nb_id
        b_to_a[nb_id] = na_id
        reason = _node_difference(na, nb.kind, nb.type_name, nb.value)
        if reason is None and len(na.edges) != len(nb.edges):
            reason = f"child count {len(na.edges)} != {len(nb.edges)}"
        if reason is None:
            for (label_a, _), (label_b, _) in zip(na.edges, nb.edges):
                if label_a != label_b:
                    reason = _label_difference(label_a, label_b)
                    break
        if reason is not None:
            if note(trail, reason):
                return differences
            continue
        for (label_a, child_a), (_, child_b) in zip(na.edges, nb.edges):
            queue.append((child_a, child_b, (trail, label_a)))
    return differences


def _scalar_difference(
    na: GraphNode, kind: str, type_name: str, value: Any
) -> Optional[str]:
    """Why scalar *na* differs from a node ``(kind, type_name, value)``
    (one of the two is a scalar), or None."""
    if na.kind != kind:
        return f"kind {na.kind} != {kind}"
    if na.type_name != type_name:
        return f"type {na.type_name} != {type_name}"
    va = na.value
    # bool is an int subclass; type_name already separated them.  NaN is
    # deliberately equal to itself here: the *state* did not change.
    if va != value and not (va != va and value != value):
        return f"value {va!r} != {value!r}"
    return None


def _node_difference(
    na: GraphNode, kind: str, type_name: str, value: Any
) -> Optional[str]:
    """Why non-scalar *na* differs from a node ``(kind, type_name,
    value)`` before their edges are compared, or None."""
    if na.kind != kind:
        return f"kind {na.kind} != {kind}"
    if na.type_name != type_name:
        return f"type {na.type_name} != {type_name}"
    if na.kind in (KIND_OPAQUE, KIND_BYTEARRAY) and na.value != value:
        return f"value {na.value!r} != {value!r}"
    return None


def _label_difference(label_a: Tuple[str, Any], label_b: Tuple[str, Any]) -> str:
    # safe_repr: a dict-key label embeds the raw key object, whose
    # __repr__ may raise — the diff must not.
    return f"edge label {safe_repr(label_a)} != {safe_repr(label_b)}"


class LiveFrame:
    """Live labeled roots as the second operand of :func:`graph_diff`.

    ``graph_diff(before, LiveFrame(roots))`` compares a captured graph
    with the state the roots reach *now*: the paper's Listing 1 compares
    its deep copy with "the graph observed when an exception
    propagates", and this is that comparison, without a second copy.
    The arguments mean what they mean to :func:`capture_frame`; with a
    *max_nodes* budget the comparison captures the frame in full, so an
    over-budget state raises :class:`CaptureLimitError` exactly as the
    capture would.
    """

    __slots__ = ("roots", "ignore_attrs", "max_nodes")

    def __init__(
        self,
        label_values: Iterable[Tuple[Any, Any]],
        *,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_nodes: Optional[int] = None,
    ) -> None:
        self.roots = list(label_values)
        self.ignore_attrs = ignore_attrs
        self.max_nodes = max_nodes


def _diff_live(a: ObjectGraph, frame: LiveFrame) -> Optional[GraphDifference]:
    """``graph_diff(a, capture_frame(frame.roots))``, walking the live
    objects in the order :func:`graph_diff_all` walks the captured graph.

    A live non-scalar stands for the one node a capture would give it,
    so the bijection maps node ids to ``id()`` values; every object
    visited is pinned so those stay unique.  The walk stops at the
    first difference.
    """
    nodes = a.nodes
    ignore_attrs = frame.ignore_attrs or default_ignore
    plans = TYPE_PLANS
    a_to_b: Dict[int, int] = {}
    b_seen = {id(frame)}
    pins: List[Any] = [frame]
    pin = pins.append
    queue: List[Tuple[int, Any, _Trail]] = []
    push = queue.append
    pop = queue.pop

    node: Optional[GraphNode] = nodes[a.root]
    trail: _Trail = None
    if node.kind == KIND_SCALAR:
        reason = _scalar_difference(node, KIND_FRAME, "<frame>", None)
    else:
        a_to_b[a.root] = id(frame)
        reason = _node_difference(node, KIND_FRAME, "<frame>", None)
    if reason is not None:
        return GraphDifference("", reason)
    labels: Sequence[Tuple[str, Any]] = [("slot", key) for key, _ in frame.roots]
    values: Sequence[Any] = [value for _, value in frame.roots]
    while node is not None:
        # *node* matched its live counterpart: compare the edges, queue
        # the children, then find the next matched pair with edges.
        edges = node.edges
        if len(edges) != len(values):
            reason = f"child count {len(edges)} != {len(values)}"
            return GraphDifference(_path(trail), reason)
        for (label_a, child_a), label_b, value in zip(edges, labels, values):
            if label_a != label_b:
                reason = _label_difference(label_a, label_b)
                return GraphDifference(_path(trail), reason)
            child = nodes[child_a]
            if child.kind == KIND_SCALAR:
                # An equal scalar pair changes nothing the walk keeps, so
                # it is settled here; any other pair waits its turn.
                plan = plans.get(type(value))
                if plan is not None and plan[2] == child.type_name and (
                    plan[0] == PLAN_SCALAR
                ):
                    va = child.value
                    if not (va != value and not (va != va and value != value)):
                        continue
            push((child_a, value, (trail, label_a)))
        node = None
        while queue:
            na_id, obj, trail = pop()
            na = nodes[na_id]
            plan = plans.get(type(obj)) or type_plan(obj)
            category = plan[0]
            if category == PLAN_SCALAR or na.kind == KIND_SCALAR:
                reason = _scalar_difference(na, plan[1], plan[2], obj)
                if reason is not None:
                    return GraphDifference(_path(trail), reason)
                continue
            oid = id(obj)
            mapped = a_to_b.get(na_id)
            if mapped is not None:
                if mapped != oid:
                    return GraphDifference(
                        _path(trail), "sharing structure differs"
                    )
                continue  # already compared through another path
            if oid in b_seen:
                return GraphDifference(_path(trail), "sharing structure differs")
            a_to_b[na_id] = oid
            b_seen.add(oid)
            pin(obj)
            kind = plan[1]
            value = None
            if category == PLAN_OPAQUE:
                value = opaque_token(obj)
            elif kind == KIND_BYTEARRAY:
                value = bytes(obj)
            reason = _node_difference(na, kind, plan[2], value)
            if reason is not None:
                return GraphDifference(_path(trail), reason)
            if value is not None:
                labels = values = ()
            else:
                shape = _fast_children(obj, plan, ignore_attrs)
                if shape is None:
                    pairs = list(iter_children(obj, kind, ignore_attrs))
                    shape = [label for label, _ in pairs], [v for _, v in pairs]
                labels, values = shape
            node = na
            break
    return None
