"""The graph capture kernel and the live compare against a reference oracle.

The oracle below is the straightforward two-phase capturer (``_enter``
creates or reuses a node and queues it, ``_expand`` walks
:func:`iter_children` of the last queued node) and the eager-path
structural diff: the specification the fast paths in
:mod:`repro.core.state.graph` must reproduce:

* ``capture``/``capture_frame`` build node-for-node the oracle's graph
  (same ids, kinds, type names, values and labeled edges), under every
  node budget, raising :class:`CaptureLimitError` exactly when it does;
* ``graph_diff_all`` reports the oracle's differences, paths included;
* ``graph_diff(before, LiveFrame(roots))`` -- the comparison with the
  live state that never builds the after-graph -- returns what
  ``graph_diff(before, capture_frame(roots))`` returns, path and reason,
  with and without a budget.

Generated states mix aliasing, cycles, ``__slots__``, container
subclasses with attributes, ``defaultdict``, ``bytearray``, NaN, bool
vs int, enum scalars and opaque values, then take up to three random
mutations, so the first difference found depends on the walk order.
"""

import collections
import enum
import math
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import (
    CaptureLimitError,
    GraphDifference,
    GraphNode,
    LiveFrame,
    ObjectGraph,
    capture,
    capture_frame,
    graph_diff,
    graph_diff_all,
)
from repro.core.state.fingerprint import _TYPE_INFO, fingerprint
from repro.core.state.introspect import (
    KIND_BYTEARRAY,
    KIND_FRAME,
    KIND_OPAQUE,
    KIND_SCALAR,
    TYPE_PLANS,
    default_ignore,
    is_opaque,
    is_scalar,
    iter_children,
    kind_of,
    opaque_token,
    safe_repr,
    type_name,
)

# -- the reference oracle ---------------------------------------------------


class OracleCapturer:
    """Two-phase, per-node capture: the specification of the kernel."""

    def __init__(self, ignore_attrs, max_nodes=None):
        self._graph = ObjectGraph()
        self._seen: Dict[int, int] = {}
        self._ignore_attrs = ignore_attrs
        self._max_nodes = max_nodes
        self._pins: List[Any] = []

    def capture(self, value):
        self._graph.root = self._visit(value)
        return self._graph

    def capture_many(self, label_values):
        frame = GraphNode(kind=KIND_FRAME, type_name="<frame>")
        self._graph.root = self._graph.add_node(frame)
        for key, value in label_values:
            frame.edges.append((("slot", key), self._visit(value)))
        return self._graph

    def _visit(self, value):
        pending: List[Tuple[Any, int]] = []
        node_id = self._enter(value, pending)
        while pending:
            obj, nid = pending.pop()
            self._expand(obj, nid, pending)
        return node_id

    def _enter(self, value, pending):
        if self._max_nodes is not None and len(self._graph) >= self._max_nodes:
            raise CaptureLimitError(f"object graph exceeds {self._max_nodes} nodes")
        if is_scalar(value):
            node = GraphNode(KIND_SCALAR, type(value).__name__, value)
            return self._graph.add_node(node)
        oid = id(value)
        if oid in self._seen:
            return self._seen[oid]
        if is_opaque(value):
            node = GraphNode(KIND_OPAQUE, type(value).__name__, opaque_token(value))
            nid = self._graph.add_node(node)
            self._seen[oid] = nid
            self._pins.append(value)
            return nid
        node = GraphNode(kind=kind_of(value), type_name=type_name(value))
        nid = self._graph.add_node(node)
        self._seen[oid] = nid
        self._pins.append(value)
        pending.append((value, nid))
        return nid

    def _expand(self, obj, nid, pending):
        node = self._graph.nodes[nid]
        if node.kind == KIND_BYTEARRAY:
            node.value = bytes(obj)
            return
        for label, child_value in iter_children(obj, node.kind, self._ignore_attrs):
            node.edges.append((label, self._enter(child_value, pending)))


def oracle_capture(value, ignore_attrs=None, max_nodes=None):
    return OracleCapturer(ignore_attrs or default_ignore, max_nodes).capture(value)


def oracle_capture_frame(roots, ignore_attrs=None, max_nodes=None):
    return OracleCapturer(ignore_attrs or default_ignore, max_nodes).capture_many(
        roots
    )


def oracle_diff_all(a, b, limit=10):
    """The structural diff with every path string built eagerly."""
    differences: List[GraphDifference] = []
    a_to_b: Dict[int, int] = {}
    b_to_a: Dict[int, int] = {}
    queue = [(a.root, b.root, "")]

    def note(path, reason):
        differences.append(GraphDifference(path, reason))
        return len(differences) >= limit

    while queue:
        na_id, nb_id, path = queue.pop()
        na, nb = a.nodes[na_id], b.nodes[nb_id]
        if na.kind == KIND_SCALAR or nb.kind == KIND_SCALAR:
            if na.kind != nb.kind:
                reason = f"kind {na.kind} != {nb.kind}"
            elif na.type_name != nb.type_name:
                reason = f"type {na.type_name} != {nb.type_name}"
            elif na.value != nb.value and not (
                na.value != na.value and nb.value != nb.value
            ):
                reason = f"value {na.value!r} != {nb.value!r}"
            else:
                continue
            if note(path, reason):
                return differences
            continue
        mapped = a_to_b.get(na_id)
        if mapped is not None:
            if mapped != nb_id and note(path, "sharing structure differs"):
                return differences
            continue
        if nb_id in b_to_a:
            if note(path, "sharing structure differs"):
                return differences
            continue
        a_to_b[na_id] = nb_id
        b_to_a[nb_id] = na_id
        if na.kind != nb.kind:
            reason = f"kind {na.kind} != {nb.kind}"
        elif na.type_name != nb.type_name:
            reason = f"type {na.type_name} != {nb.type_name}"
        elif na.kind in (KIND_OPAQUE, KIND_BYTEARRAY) and na.value != nb.value:
            reason = f"value {na.value!r} != {nb.value!r}"
        elif len(na.edges) != len(nb.edges):
            reason = f"child count {len(na.edges)} != {len(nb.edges)}"
        else:
            reason = next(
                (
                    f"edge label {safe_repr(la)} != {safe_repr(lb)}"
                    for (la, _), (lb, _) in zip(na.edges, nb.edges)
                    if la != lb
                ),
                None,
            )
        if reason is not None:
            if note(path, reason):
                return differences
            continue
        for (label, child_a), (_, child_b) in zip(na.edges, nb.edges):
            queue.append(
                (child_a, child_b, f"{path}/{label[0]}={safe_repr(label[1])}")
            )
    return differences


# -- subject types ----------------------------------------------------------


class Plain:
    pass


class Other:
    pass


class Slotted:
    __slots__ = ("a", "b", "c")


class Mixed(Slotted):
    """Slots from the base plus a ``__dict__``."""


class AttrList(list):
    pass


class AttrDict(dict):
    pass


class AttrSet(set):
    pass


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tag(str):
    """A scalar subclass that may carry attributes (not traversed)."""


def _helper():  # an opaque leaf
    return None


OPAQUES = [len, math, Plain, _helper, staticmethod(_helper)]
SCALARS = [
    None,
    True,
    False,
    0,
    1,
    -7,
    1.0,
    -0.0,
    0.0,
    float("nan"),
    2.5,
    complex(1, float("nan")),
    "a",
    "b",
    "",
    b"x",
    Color.RED,
    Color.GREEN,
    Tag("a"),
]
KINDS = [
    "plain",
    "slotted",
    "mixed",
    "list",
    "dict",
    "attrlist",
    "attrdict",
    "attrset",
    "defaultdict",
    "bytearray",
    "deque",
    "tuple",
]
NAMES = ["a", "b", "c", "_repro_x", "z"]

#: A child is a scalar index, an opaque index or an object reference.
children = st.one_of(
    st.tuples(st.just("scalar"), st.integers(0, len(SCALARS) - 1)),
    st.tuples(st.just("opaque"), st.integers(0, len(OPAQUES) - 1)),
    st.tuples(st.just("ref"), st.integers(0, 7)),
)


@st.composite
def heaps(draw):
    """A list of objects (root first) wired by aliasing references."""
    # plain lists are drawn as often as all other kinds together: most
    # mutations need one
    kind = st.one_of(st.just("list"), st.sampled_from(KINDS))
    kinds = draw(st.lists(kind, min_size=1, max_size=8))
    plans = [
        draw(st.lists(st.tuples(st.sampled_from(NAMES), children), max_size=4))
        for _ in kinds
    ]
    return build(kinds, plans)


def build(kinds, plans):
    objects: List[Any] = []
    for kind in kinds:
        objects.append(
            {
                "plain": Plain,
                "slotted": Slotted,
                "mixed": Mixed,
                "list": list,
                "dict": dict,
                "attrlist": AttrList,
                "attrdict": AttrDict,
                "attrset": AttrSet,
                "defaultdict": lambda: collections.defaultdict(list),
                "bytearray": bytearray,
                "deque": collections.deque,
                "tuple": lambda: None,
            }[kind]()
        )

    def resolve(child, hashable=False):
        tag, index = child
        if tag == "scalar":
            return SCALARS[index]
        if tag == "opaque":
            return OPAQUES[index]
        target = objects[index % len(objects)]
        if hashable:
            try:
                hash(target)
            except TypeError:
                return SCALARS[index % len(SCALARS)]
        return target

    # tuples first (immutable: they hold what exists now), then the rest
    for position, kind in enumerate(kinds):
        if kind == "tuple":
            objects[position] = tuple(
                resolve(child) for _, child in plans[position]
            )
    for position, (kind, plan) in enumerate(zip(kinds, plans)):
        obj = objects[position]
        for name, child in plan:
            value = resolve(child)
            if kind in ("plain", "slotted", "mixed"):
                if kind == "slotted" and name not in Slotted.__slots__:
                    name = "a"
                setattr(obj, name, value)
            elif kind in ("list", "attrlist", "deque"):
                obj.append(value)
                if kind == "attrlist":
                    obj.tag = value
            elif kind in ("dict", "attrdict", "defaultdict"):
                key = resolve(child, hashable=True)
                obj[key if child[0] == "ref" else name] = value
                obj[len(obj)] = value
                if kind == "attrdict":
                    obj.extra = value
            elif kind == "attrset":
                obj.add(resolve(child, hashable=True))
                obj.label = name
            elif kind == "bytearray":
                obj.extend(name.encode())
    return [obj for obj in objects if obj is not None] or [None]


MUTATIONS = [
    "setattr",
    "append",
    "replace",
    "copy",
    "delete",
    "bytes",
    "retype",
    "reorder",
    "nan",
    "merge",
    "equal",
]

#: Equal values of another type: only the type name tells them apart.
EQUAL_SWAPS = [(True, 1), (1, 1.0), (Color.RED, 1), ("a", Tag("a")), (0, False)]


def mutate(objects, how, index, pick):
    """Apply mutation *how* to the first object reachable from the roots
    that it fits, looking from the *index*-th on; *pick* chooses
    positions and values."""
    capturer = OracleCapturer(default_ignore)
    capturer.capture_many(_roots(objects))
    reachable = [obj for obj in capturer._pins if not is_opaque(obj)]
    for offset in range(len(reachable)):
        obj = reachable[(index + offset) % len(reachable)]
        if _apply(obj, how, objects[pick % len(objects)], pick):
            return


def _apply(obj, how, other, pick):
    scalar = SCALARS[pick % len(SCALARS)]
    if how == "setattr" and hasattr(obj, "__dict__"):
        setattr(obj, NAMES[pick % len(NAMES)], other if pick % 2 else scalar)
    elif how == "setattr" and isinstance(obj, Slotted):
        setattr(obj, "abc"[pick % 3], scalar)
    elif how == "append" and isinstance(obj, (list, collections.deque)):
        obj.append(other if pick % 2 else scalar)
    elif how == "replace" and isinstance(obj, list) and obj:
        obj[pick % len(obj)] = scalar
    elif how == "copy" and isinstance(obj, list) and obj:
        # an equal-valued private copy breaks sharing
        position = pick % len(obj)
        item = obj[position]
        if isinstance(item, list):
            obj[position] = list(item)
        elif isinstance(item, Plain):
            twin = Plain()
            twin.__dict__.update(item.__dict__)
            obj[position] = twin
        else:
            return False
    elif how == "delete" and isinstance(obj, dict) and obj:
        del obj[next(iter(obj))]
    elif how == "bytes" and isinstance(obj, bytearray):
        obj.append(pick % 256)
    elif how == "retype" and type(obj) in (Plain, Other):
        obj.__class__ = Other if type(obj) is Plain else Plain
    elif how == "reorder" and isinstance(obj, dict) and obj:
        # canonical order: reinsertion alone changes nothing
        key = next(iter(obj))
        obj[key] = obj.pop(key)
    elif how == "nan" and isinstance(obj, list) and obj:
        obj[pick % len(obj)] = float("nan")
    elif how == "equal" and isinstance(obj, list):
        swaps = [
            (position, new)
            for position, item in enumerate(obj)
            for old, new in EQUAL_SWAPS
            if type(item) is type(old) and item == old
        ]
        if not swaps:
            return False
        position, new = swaps[pick % len(swaps)]
        obj[position] = new
    elif how == "merge" and isinstance(obj, list) and len(obj) > 1:
        # alias two children; only sharing tells equal-valued ones apart
        obj[-1] = obj[0]
    else:
        return False
    return True


mutations = st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 7), st.integers(0, 31)),
    max_size=3,
)


def _as_tuples(differences):
    return [(d.path, d.reason) for d in differences]


def _roots(objects):
    roots = [("self", objects[0])]
    if len(objects) > 1:
        roots.append((("arg", 0), objects[-1]))
    return roots


def _same_graph(graph, oracle):
    assert graph.root == oracle.root
    assert len(graph.nodes) == len(oracle.nodes)
    for node, expected in zip(graph.nodes, oracle.nodes):
        assert node == expected, (node, expected)


# -- equivalence properties -------------------------------------------------


@given(heaps())
@settings(max_examples=150, deadline=None)
def test_capture_is_node_for_node_the_oracle(objects):
    _same_graph(capture(objects[0]), oracle_capture(objects[0]))
    roots = _roots(objects)
    _same_graph(capture_frame(roots), oracle_capture_frame(roots))


@given(heaps(), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_budget_outcomes_match_the_oracle(objects, budget):
    roots = _roots(objects)
    try:
        expected = oracle_capture_frame(roots, max_nodes=budget)
    except CaptureLimitError as exc:
        with pytest.raises(CaptureLimitError, match=str(exc)):
            capture_frame(roots, max_nodes=budget)
    else:
        _same_graph(capture_frame(roots, max_nodes=budget), expected)


@given(heaps(), mutations)
@settings(max_examples=300, deadline=None)
def test_live_compare_equals_diff_against_a_capture(objects, changes):
    roots = _roots(objects)
    before = capture_frame(roots)
    for how, index, pick in changes:
        mutate(objects, how, index, pick)
    after = oracle_capture_frame(roots)
    expected = oracle_diff_all(before, after, limit=1)
    live = graph_diff(before, LiveFrame(roots))
    assert _as_tuples([live] if live else []) == _as_tuples(expected)
    captured = graph_diff(before, capture_frame(roots))
    assert _as_tuples([captured] if captured else []) == _as_tuples(expected)


@given(heaps(), mutations, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_diff_all_paths_match_the_eager_oracle(objects, changes, limit):
    before = capture(objects[0])
    for how, index, pick in changes:
        mutate(objects, how, index, pick)
    after = capture(objects[0])
    assert _as_tuples(graph_diff_all(before, after, limit=limit)) == _as_tuples(
        oracle_diff_all(before, after, limit=limit)
    )


@given(heaps(), mutations, st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_budgeted_live_compare_raises_exactly_when_a_capture_would(
    objects, changes, budget
):
    roots = _roots(objects)
    before = capture_frame(roots)
    for how, index, pick in changes:
        mutate(objects, how, index, pick)
    try:
        after = oracle_capture_frame(roots, max_nodes=budget)
    except CaptureLimitError:
        with pytest.raises(CaptureLimitError):
            graph_diff(before, LiveFrame(roots, max_nodes=budget))
        return
    expected = oracle_diff_all(before, after, limit=1)
    live = graph_diff(before, LiveFrame(roots, max_nodes=budget))
    assert _as_tuples([live] if live else []) == _as_tuples(expected)


# -- directed cases ---------------------------------------------------------


def test_nodes_are_numbered_in_entry_order_last_entered_expanded_first():
    inner = Plain()
    inner.x = [5]
    value = [[1, [2]], inner, ([3], 4)]
    graph = capture(value)
    _same_graph(graph, oracle_capture(value))
    # children are numbered together; the last one entered expands first
    assert [(node.kind, node.value) for node in graph.nodes] == [
        ("list", None),
        ("list", None),
        ("object", None),
        ("tuple", None),
        ("list", None),
        ("scalar", 4),
        ("scalar", 3),
        ("list", None),
        ("scalar", 5),
        ("scalar", 1),
        ("list", None),
        ("scalar", 2),
    ]


def test_live_compare_reports_the_difference_the_diff_pops_first():
    left, right = [1], [2]
    value = [left, right]
    before = capture_frame([("self", value)])
    left[0], right[0] = 10, 20
    difference = graph_diff(before, LiveFrame([("self", value)]))
    assert difference == graph_diff(before, capture_frame([("self", value)]))
    assert str(difference) == "at /slot='self'/index=1/index=0: value 2 != 20"


def test_custom_filter_applies_to_live_compare():
    obj = Plain()
    obj.x, obj.y = 1, 2
    skip_y = lambda name: name == "y"  # noqa: E731
    before = capture_frame([("self", obj)], ignore_attrs=skip_y)
    obj.y = 3
    assert graph_diff(before, LiveFrame([("self", obj)], ignore_attrs=skip_y)) is None
    obj.x = 4
    difference = graph_diff(before, LiveFrame([("self", obj)], ignore_attrs=skip_y))
    assert str(difference) == "at /slot='self'/attr='x': value 1 != 4"


def test_root_shape_mismatch_reports_at_the_root():
    before = capture(5)
    assert str(graph_diff(before, LiveFrame([]))) == "at <root>: kind scalar != frame"
    before = capture([1])
    assert str(graph_diff(before, LiveFrame([]))) == "at <root>: kind list != frame"
    before = capture_frame([("self", 1)])
    assert str(graph_diff(before, LiveFrame([]))) == "at <root>: child count 1 != 0"


@pytest.mark.parametrize("old, new", EQUAL_SWAPS)
def test_equal_scalars_of_another_type_differ(old, new):
    values = [old, "tail"]
    before = capture_frame([("self", values)])
    values[0] = new
    difference = graph_diff(before, LiveFrame([("self", values)]))
    assert difference == graph_diff(before, capture_frame([("self", values)]))
    assert difference.reason.startswith("type ")


def test_merging_equal_copies_is_a_sharing_difference():
    first, second = [1], [1]
    holder = [first, second]
    before = capture_frame([("self", holder)])
    holder[1] = first
    difference = graph_diff(before, LiveFrame([("self", holder)]))
    assert difference == graph_diff(before, capture_frame([("self", holder)]))
    assert str(difference) == "at /slot='self'/index=0: sharing structure differs"


def test_same_object_under_two_roots_is_one_node():
    shared = [1, 2]
    roots = [("self", shared), (("arg", 0), shared)]
    before = capture_frame(roots)
    assert graph_diff(before, LiveFrame(roots)) is None
    split = [("self", shared), (("arg", 0), [1, 2])]
    difference = graph_diff(before, LiveFrame(split))
    assert difference == graph_diff(before, capture_frame(split))
    assert difference.reason == "sharing structure differs"


class Shifty:
    """Overrides ``__class__``: ``isinstance`` answers per instance."""

    def __init__(self, pretend):
        self.pretend = pretend

    @property
    def __class__(self):
        return int if self.pretend else Shifty


def test_class_overriding_instances_are_planned_per_instance():
    values = [Shifty(True), Shifty(False), Shifty(True)]
    _same_graph(capture(values), oracle_capture(values))
    assert [node.kind for node in capture(values).nodes[1:4]] == [
        "scalar",
        "object",
        "scalar",
    ]


def test_fingerprint_classifies_through_the_plan():
    """The fingerprint's per-type memo holds exactly what the plan
    memoizes, with the plan's category and kind."""
    fingerprint([Shifty(False), Plain(), {1: "a"}])
    assert Shifty not in _TYPE_INFO and Shifty not in TYPE_PLANS
    for tp in (Plain, dict):
        category, _header, kind = _TYPE_INFO[tp]
        assert (category, kind) == TYPE_PLANS[tp][:2]


def test_graph_node_keeps_the_dataclass_interface():
    node = GraphNode(kind="list", type_name="list")
    assert node.value is None and node.edges == []
    assert node == GraphNode("list", "list", None, [])
    assert node != GraphNode("list", "list", None, [(("index", 0), 1)])
    assert node.__eq__(("list", "list")) is NotImplemented
    assert repr(node) == (
        "GraphNode(kind='list', type_name='list', value=None, edges=[])"
    )
    with pytest.raises(TypeError):
        hash(node)
    with pytest.raises(AttributeError):
        node.extra = 1
