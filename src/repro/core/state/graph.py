"""Object graphs and structural graph comparison (paper Definitions 1–2).

This module implements Definition 1 of the paper: an *object graph* is a
graph whose nodes are objects or instances of basic data types, where the
values of instance variables appear as labeled children, and where aliasing
is preserved — two references to the same object share a single node.

An :class:`ObjectGraph` is a fully materialized snapshot: it holds no
references to the live objects it was captured from, so it doubles as the
``deep_copy`` used by the paper's injection wrappers (Listing 1).  Failure
atomicity of a method is judged by comparing the graph captured before the
call with the graph captured when an exception propagates out
(Definition 2); :func:`graphs_equal` implements that comparison as a rooted
isomorphism check that respects edge labels, node types, scalar values, and
sharing structure.

Type introspection and the canonical child ordering live in
:mod:`repro.core.state.introspect`, shared with the fingerprint and
checkpoint backends so that all three agree on what "the reachable state"
is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .introspect import (
    KIND_BYTEARRAY,
    KIND_DEQUE,
    KIND_DICT,
    KIND_FRAME,
    KIND_FROZENSET,
    KIND_LIST,
    KIND_OBJECT,
    KIND_OPAQUE,
    KIND_SCALAR,
    KIND_SET,
    KIND_TUPLE,
    SCALAR_TYPES,
    CaptureLimitError,
    default_ignore,
    is_opaque,
    is_scalar,
    iter_children,
    kind_of,
    opaque_token,
    safe_repr,
    type_name,
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
    "SCALAR_TYPES",
    "is_scalar",
    "is_opaque",
]


@dataclass
class GraphNode:
    """A single node of an :class:`ObjectGraph`.

    Attributes:
        kind: one of the ``KIND_*`` tags (scalar, object, list, ...).
        type_name: qualified name of the runtime type of the value.
        value: the scalar value for ``scalar`` nodes, an identity token for
            ``opaque`` nodes, and ``None`` otherwise.
        edges: labeled edges to child node ids.  Labels are small tuples
            such as ``("attr", name)``, ``("index", i)``, ``("key", k)``.
    """

    kind: str
    type_name: str
    value: Any = None
    edges: List[Tuple[Tuple[str, Any], int]] = field(default_factory=list)


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


class _Capturer:
    """Iterative, aliasing-preserving graph capture.

    The traversal is explicit-stack based so that deep structures such as
    long linked lists do not exhaust the interpreter recursion limit.
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
        self._graph.root = self._visit(value)
        return self._graph

    def capture_many(self, label_values: Iterable[Tuple[Any, Any]]) -> ObjectGraph:
        """Capture several roots under a synthetic frame node.

        *label_values* yields ``(label_key, value)`` pairs; each becomes a
        labeled edge from the frame root.  Used for capturing a receiver
        together with its mutable arguments.
        """
        frame = GraphNode(kind=KIND_FRAME, type_name="<frame>")
        root_id = self._graph.add_node(frame)
        self._graph.root = root_id
        for key, value in label_values:
            child = self._visit(value)
            frame.edges.append((("slot", key), child))
        return self._graph

    # -- traversal ---------------------------------------------------

    def _visit(self, value: Any) -> int:
        """Capture *value*, returning its node id (two-phase, iterative)."""
        pending: List[Tuple[Any, int]] = []
        node_id = self._enter(value, pending)
        while pending:
            obj, nid = pending.pop()
            self._expand(obj, nid, pending)
        return node_id

    def _enter(self, value: Any, pending: List[Tuple[Any, int]]) -> int:
        """Create (or reuse) a node for *value*; queue expansion if needed."""
        if self._max_nodes is not None and len(self._graph) >= self._max_nodes:
            raise CaptureLimitError(
                f"object graph exceeds {self._max_nodes} nodes"
            )
        if is_scalar(value):
            # Scalars are compared by value; interning makes identity
            # meaningless, so each occurrence gets its own leaf node.
            node = GraphNode(
                kind=KIND_SCALAR, type_name=type(value).__name__, value=value
            )
            return self._graph.add_node(node)
        oid = id(value)
        if oid in self._seen:
            return self._seen[oid]
        if is_opaque(value):
            node = GraphNode(
                kind=KIND_OPAQUE,
                type_name=type(value).__name__,
                value=opaque_token(value),
            )
            nid = self._graph.add_node(node)
            self._seen[oid] = nid
            self._pins.append(value)
            return nid
        kind = kind_of(value)
        node = GraphNode(kind=kind, type_name=type_name(value))
        nid = self._graph.add_node(node)
        self._seen[oid] = nid
        self._pins.append(value)
        pending.append((value, nid))
        return nid

    def _expand(self, obj: Any, nid: int, pending: List[Tuple[Any, int]]) -> None:
        node = self._graph.nodes[nid]
        if node.kind == KIND_BYTEARRAY:
            node.value = bytes(obj)
            return
        for label, child_value in iter_children(
            obj, node.kind, self._ignore_attrs
        ):
            child = self._enter(child_value, pending)
            node.edges.append((label, child))


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


def graph_diff(a: ObjectGraph, b: ObjectGraph) -> Optional[GraphDifference]:
    """Return the first difference between graphs, or None if equal."""
    differences = graph_diff_all(a, b, limit=1)
    return differences[0] if differences else None


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
    # Parallel BFS maintaining a bijection between mutable node ids.
    a_to_b: Dict[int, int] = {}
    b_to_a: Dict[int, int] = {}
    queue: List[Tuple[int, int, str]] = [(a.root, b.root, "")]

    def note(path: str, reason: str) -> bool:
        """Record a difference; return True when the limit is reached."""
        differences.append(GraphDifference(path, reason))
        return len(differences) >= limit

    while queue:
        na_id, nb_id, path = queue.pop()
        na = a.nodes[na_id]
        nb = b.nodes[nb_id]
        if na.kind == KIND_SCALAR or nb.kind == KIND_SCALAR:
            diff = _compare_scalars(na, nb, path)
            if diff is not None and note(diff.path, diff.reason):
                return differences
            continue
        mapped = a_to_b.get(na_id)
        if mapped is not None:
            if mapped != nb_id and note(path, "sharing structure differs"):
                return differences
            continue  # already compared through another path
        if nb_id in b_to_a:
            if note(path, "sharing structure differs"):
                return differences
            continue
        a_to_b[na_id] = nb_id
        b_to_a[nb_id] = na_id
        if na.kind != nb.kind:
            if note(path, f"kind {na.kind} != {nb.kind}"):
                return differences
            continue
        if na.type_name != nb.type_name:
            if note(path, f"type {na.type_name} != {nb.type_name}"):
                return differences
            continue
        if na.kind in (KIND_OPAQUE, KIND_BYTEARRAY) and na.value != nb.value:
            if note(path, f"value {na.value!r} != {nb.value!r}"):
                return differences
            continue
        if len(na.edges) != len(nb.edges):
            if note(
                path, f"child count {len(na.edges)} != {len(nb.edges)}"
            ):
                return differences
            continue
        labels_match = True
        for (label_a, _), (label_b, _) in zip(na.edges, nb.edges):
            if label_a != label_b:
                labels_match = False
                # safe_repr: a dict-key label embeds the raw key object,
                # whose __repr__ may raise — the diff must not.
                if note(
                    path,
                    f"edge label {safe_repr(label_a)} != {safe_repr(label_b)}",
                ):
                    return differences
                break
        if not labels_match:
            continue
        for (label_a, child_a), (_, child_b) in zip(na.edges, nb.edges):
            queue.append(
                (child_a, child_b, f"{path}/{label_a[0]}={safe_repr(label_a[1])}")
            )
    return differences


def _compare_scalars(
    na: GraphNode, nb: GraphNode, path: str
) -> Optional[GraphDifference]:
    if na.kind != nb.kind:
        return GraphDifference(path, f"kind {na.kind} != {nb.kind}")
    if na.type_name != nb.type_name:
        return GraphDifference(path, f"type {na.type_name} != {nb.type_name}")
    va, vb = na.value, nb.value
    # bool is an int subclass; type_name already separated them.  NaN is
    # deliberately equal to itself here: the *state* did not change.
    if va != vb and not (va != va and vb != vb):
        return GraphDifference(path, f"value {va!r} != {vb!r}")
    return None
