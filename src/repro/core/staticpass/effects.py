"""AST-based receiver-purity effect analysis (the static half).

A woven method is *syntactically effect-free* when its body provably
cannot mutate any object that existed before the call: no attribute,
subscript or slot writes (so nothing reachable from ``self`` or from a
mutable argument can change), no augmented assignment (``x += y`` can
mutate a shared object in place through a local alias), no ``del``, no
``global``/``nonlocal``, no exception handlers or context managers (a
handler could swallow an injected exception and resume with effects),
and no calls except

* a short safelist of read-only builtins (``len``, ``isinstance``, …),
  rejected when the name is shadowed by any local binding;
* ``self.<name>(...)`` — recorded as a call edge and resolved by the
  call-graph closure (:mod:`.callgraph`) against the whole woven
  universe; and
* construction of a *benign exception type*: a ``Name`` that resolves in
  the function's globals (or builtins) to a ``BaseException`` subclass
  that inherits ``__init__``/``__new__`` straight from the builtin
  exception hierarchy.  Building and raising a fresh exception cannot
  mutate pre-existing state.

Everything else — attribute-chain calls, free-function calls, dynamic
dispatch through locals, ``setattr``, comprehensible-but-unproven code —
makes the method *unprovable* and it simply stays dynamic.  The analysis
is deliberately one-sided: a false "impure" costs one dynamic run, a
false "pure" would corrupt the run log, so every default answers
"impure".

Trusted assumptions (documented in ``docs/GUIDE.md``): read-protocol
dunders invoked implicitly by allowed syntax (``__eq__``, ``__lt__``,
``__iter__``, ``__getitem__``, ``__repr__``, …) are effect-free, and the
driver workload does not monkey-patch woven instances (shadowing a woven
method with an instance attribute); shadowing *inside* the analyzed
universe is detected and poisons the name.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from ..analyzer import KIND_CONSTRUCTOR, KIND_METHOD, MethodSpec
from ..virtualsource import parse_source

__all__ = [
    "EffectReport",
    "PURE_BUILTINS",
    "function_ast",
    "syntactic_effects",
    "unwrap_original",
]

#: Builtins whose calls are trusted not to mutate their arguments'
#: pre-existing state (read-only protocol dunders are trusted too, see
#: the module docstring).
PURE_BUILTINS = frozenset(
    {
        "abs",
        "bool",
        "chr",
        "float",
        "int",
        "isinstance",
        "issubclass",
        "len",
        "max",
        "min",
        "ord",
        "range",
        "repr",
        "str",
    }
)

#: Names whose very appearance defeats static reasoning about attribute
#: writes anywhere in the universe (dynamic attribute surgery).
_OPAQUE_NAMES = frozenset({"delattr", "eval", "exec", "globals", "setattr", "vars"})


@dataclass
class EffectReport:
    """Verdict of the syntactic scan for one method."""

    key: str
    #: True when the body alone is provably effect-free (call edges are
    #: resolved later by the closure).
    clean: bool
    #: Why the method is unprovable (first violation found), else None.
    reason: Optional[str] = None
    #: ``self.<name>`` call edges to resolve against the woven universe.
    self_calls: Set[str] = field(default_factory=set)
    #: Attribute names this method stores/deletes anywhere in its body —
    #: collected even for unclean methods, because an instance attribute
    #: can shadow a same-named method for *other* callers.
    attr_stores: Set[str] = field(default_factory=set)
    #: True when the method mentions setattr/vars/exec/… or its source
    #: is unavailable: attribute writes become statically invisible.
    opaque: bool = False


def unwrap_original(func):
    """Peel injection/atomicity wrappers back to the original function."""
    seen = set()
    while hasattr(func, "_repro_wrapped") and id(func) not in seen:
        seen.add(id(func))
        func = func._repro_wrapped
    return func


def function_ast(func) -> Optional[ast.FunctionDef]:
    """The ``FunctionDef`` node of *func*, or None when unprovable."""
    func = unwrap_original(func)
    try:
        source = inspect.getsource(func)
    except (OSError, TypeError):
        return None
    try:
        tree = parse_source(textwrap.dedent(source))
    except (SyntaxError, ValueError):
        return None
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        return None
    return tree.body[0]


def _benign_exception_type(name: str, func) -> bool:
    """True when *name* resolves to an exception class whose construction
    is effect-free (no user ``__init__``/``__new__`` below the builtins)."""
    func = unwrap_original(func)
    namespace = getattr(func, "__globals__", {})
    target = namespace.get(name, getattr(builtins, name, None))
    if not (isinstance(target, type) and issubclass(target, BaseException)):
        return False
    for klass in target.__mro__:
        if getattr(builtins, klass.__name__, None) is klass:
            # Reached the builtin exception hierarchy: its constructors
            # only store their arguments.  (CPython materializes
            # __init__/__new__ in every builtin exception's own dict, so
            # the vars() check below must not apply to them.)
            return True
        if "__init__" in vars(klass) or "__new__" in vars(klass):
            return False
    return True


def _bound_names(node: ast.FunctionDef) -> Set[str]:
    """Every name the function binds: parameters plus all Name stores."""
    names: Set[str] = set()
    args = node.args
    for group in (
        getattr(args, "posonlyargs", []),
        args.args,
        args.kwonlyargs,
    ):
        for arg in group:
            names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            names.add(child.id)
    return names


_GUARD_STATEMENTS = tuple(
    getattr(ast, name)
    for name in ("Try", "TryStar", "With", "AsyncWith")
    if hasattr(ast, name)
)


class _BodyScan(ast.NodeVisitor):
    """Walks a method body and accumulates the :class:`EffectReport`."""

    def __init__(self, receiver: Optional[str], bound: Set[str], func) -> None:
        self.receiver = receiver
        self.bound = bound
        self.func = func
        self.clean = True
        self.reason: Optional[str] = None
        self.self_calls: Set[str] = set()

    def fail(self, node: ast.AST, why: str) -> None:
        if self.clean:
            self.clean = False
            line = getattr(node, "lineno", "?")
            self.reason = f"line {line}: {why}"

    # -- bindings ----------------------------------------------------

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        if isinstance(target, ast.Starred):
            self._check_target(target.value)
            return
        self.fail(target, "assignment to attribute/subscript")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # Even on a local name: += dispatches __iadd__, which mutates in
        # place when the local aliases a shared mutable object.
        self.fail(node, "augmented assignment")

    def visit_Delete(self, node: ast.Delete) -> None:
        self.fail(node, "del statement")

    def visit_Global(self, node: ast.Global) -> None:
        self.fail(node, "global declaration")

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.fail(node, "nonlocal declaration")

    # -- control flow that can swallow or interleave exceptions ------

    def visit_Import(self, node: ast.Import) -> None:
        self.fail(node, "import")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.fail(node, "import")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.fail(node, "nested function definition")

    def visit_AsyncFunctionDef(self, node) -> None:
        self.fail(node, "async function")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.fail(node, "nested class definition")

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.fail(node, "lambda")

    def visit_Yield(self, node: ast.Yield) -> None:
        self.fail(node, "yield")

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.fail(node, "yield from")

    def visit_Await(self, node: ast.Await) -> None:
        self.fail(node, "await")

    def visit_For(self, node: ast.For) -> None:
        self._check_target(node.target)
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_AsyncFor(self, node) -> None:
        self.fail(node, "async for")

    # -- stores through non-Name targets ------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            self.fail(node, "attribute write")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Load):
            self.fail(node, "subscript write")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = node.func
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.bound:
                self.fail(node, f"call to locally bound name {name!r}")
            elif name in PURE_BUILTINS:
                pass
            elif _benign_exception_type(name, self.func):
                pass
            else:
                self.fail(node, f"call into unanalyzed code ({name})")
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and self.receiver is not None
            and target.value.id == self.receiver
        ):
            self.self_calls.add(target.attr)
        else:
            self.fail(node, "call into unanalyzed code")
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, _GUARD_STATEMENTS):
            self.fail(node, "exception handler or context manager")
            return
        super().generic_visit(node)


def _write_profile(node: Optional[ast.FunctionDef]) -> Tuple[Set[str], bool]:
    """(attribute names stored anywhere, opaque?) — for shadow detection."""
    if node is None:
        return set(), True
    stores: Set[str] = set()
    opaque = False
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and not isinstance(
            child.ctx, ast.Load
        ):
            stores.add(child.attr)
        elif isinstance(child, ast.Name) and child.id in _OPAQUE_NAMES:
            opaque = True
    return stores, opaque


def syntactic_effects(spec: MethodSpec) -> EffectReport:
    """Scan one woven method; call edges are left for the closure."""
    node = function_ast(spec.func)
    stores, opaque = _write_profile(node)
    if node is None:
        return EffectReport(
            key=spec.key,
            clean=False,
            reason="source unavailable",
            attr_stores=stores,
            opaque=opaque,
        )

    receiver: Optional[str] = None
    if spec.kind in (KIND_METHOD, KIND_CONSTRUCTOR):
        positional = getattr(node.args, "posonlyargs", []) or node.args.args
        if positional:
            receiver = positional[0].arg

    bound = _bound_names(node)
    scan = _BodyScan(receiver, bound - ({receiver} if receiver else set()), spec.func)
    if receiver is not None:
        # A rebound receiver makes self-call resolution meaningless.
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Name)
                and child.id == receiver
                and not isinstance(child.ctx, ast.Load)
            ):
                scan.fail(child, "receiver rebound")
                break
    for statement in node.body:
        scan.visit(statement)
    return EffectReport(
        key=spec.key,
        clean=scan.clean,
        reason=scan.reason,
        self_calls=scan.self_calls,
        attr_stores=stores,
        opaque=opaque,
    )
