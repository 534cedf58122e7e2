"""The rule base: semantic-preserving per-idiom method transforms.

Each rule is a :class:`TransformRule` — a self-describing object with an
*applicability predicate* and a *transform*.  The predicate is the
soundness boundary: a rule only fires on code shapes where the rewrite
provably preserves observable behavior (receiver state trajectories,
raised exceptions, call sequences of instrumented methods).  Anything
the predicate cannot prove safe is left untouched; a variant that ends
up identical to the original is a valid (trivially invariant) subject.

Soundness ground rules shared by every transform:

* **No woven-call changes.**  Transforms never add, remove, duplicate,
  or reorder calls to subject methods — injection-point numbering is
  the dynamic sequence of instrumented calls and must stay identical
  across variants.  New helper *methods* (try-body extraction) are
  reported so the builder can exclude them from weaving.
* **No observable-state changes.**  Receiver attributes are only ever
  written by the same statements writing the same values; only *local*
  binding structure may differ (temps, comprehension scoping), which
  object-graph captures never see.
* **No frame introspection.**  Rules that change local binding
  structure refuse functions that call ``locals``/``vars``/``eval``/
  ``exec``/``dir`` or reach for frames via ``sys``/``inspect`` — such
  code could observe the rewrite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..virtualsource import parse_source

__all__ = [
    "RULES",
    "TransformContext",
    "TransformRule",
    "all_identifiers",
    "all_rule_names",
    "rule_by_name",
]


# ---------------------------------------------------------------------------
# Rule protocol
# ---------------------------------------------------------------------------


@dataclass
class TransformContext:
    """Per-function state handed to a rule's predicate and transform.

    Attributes:
        tag: the variant index — woven into every fresh identifier so
            distinct variants of one subject never collide.
        class_name: name of the enclosing class (helper bookkeeping).
        helpers: helper methods a transform wants added to the class
            body; the engine appends them after the original methods and
            reports their keys so campaigns exclude them from weaving.
        taken: every identifier already in use in the function — fresh
            names are guaranteed disjoint from it.
    """

    tag: int
    class_name: str
    helpers: List[ast.FunctionDef] = field(default_factory=list)
    taken: set = field(default_factory=set)
    _counter: int = 0

    def fresh(self, base: str) -> str:
        """A new identifier derived from *base*, unused in the function."""
        while True:
            name = f"{base.lstrip('_')}_v{self.tag}_{self._counter}"
            self._counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name

    def fresh_helper(self, method_name: str) -> str:
        """A new helper-method name (leading underscore: private)."""
        return "_" + self.fresh(f"{method_name}_try")

    def add_helper(self, helper: ast.FunctionDef) -> None:
        self.helpers.append(helper)


@dataclass(frozen=True)
class TransformRule:
    """One self-describing semantic-preserving transform.

    Attributes:
        name: stable identifier (recipes, CLI, reports).
        description: one-line human summary of the rewrite.
        applies: ``(fn, ctx) -> bool`` — True when the transform would
            change *fn* and the change is provably behavior-preserving.
        apply: ``(fn, ctx) -> fn`` — performs the rewrite (in place on
            the node; also returned for chaining).  Only called when
            ``applies`` returned True.
    """

    name: str
    description: str
    applies: Callable[[ast.FunctionDef, TransformContext], bool]
    apply: Callable[[ast.FunctionDef, TransformContext], ast.FunctionDef]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

#: Builtins whose mere invocation can observe local binding structure.
_FRAME_INTROSPECTORS = frozenset(
    {"locals", "vars", "eval", "exec", "dir", "globals"}
)

#: Attribute roots that can reach frame objects.
_FRAME_MODULES = frozenset({"sys", "inspect"})


def _introspects_frame(node: ast.AST) -> bool:
    """True when *node* may observe local variables reflectively."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _FRAME_INTROSPECTORS:
            return True
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in _FRAME_MODULES
        ):
            return True
    return False


def _has_scope_escapes(node: ast.AST) -> bool:
    """True when *node* contains constructs that leak control or bind
    names in enclosing scopes (yield/await/walrus)."""
    return any(
        isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await, ast.NamedExpr))
        for sub in ast.walk(node)
    )


def _suites(node: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every statement list in *node*, without entering nested defs."""
    stack: List[ast.AST] = [node]
    first = True
    while stack:
        current = stack.pop()
        if not first and isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        first = False
        for suite_name in ("body", "orelse", "finalbody"):
            suite = getattr(current, suite_name, None)
            if isinstance(suite, list) and suite and isinstance(
                suite[0], ast.stmt
            ):
                yield suite
                stack.extend(suite)
        for handler in getattr(current, "handlers", []) or []:
            yield handler.body
            stack.extend(handler.body)


def _has_nested_scope(fn: ast.FunctionDef) -> bool:
    for sub in ast.walk(fn):
        if sub is fn:
            continue
        if isinstance(
            sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            return True
    return False


def _param_names(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _assigned_names(fn: ast.FunctionDef) -> set:
    """Names bound by assignment-like constructs inside *fn* (excluding
    parameters), i.e. the function's locals under CPython scoping."""
    bound = set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            bound.add(sub.id)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
    return bound


def all_identifiers(fn: ast.FunctionDef) -> set:
    names = set(_param_names(fn))
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            names.add(sub.name)
    return names


def _names_in(node: ast.AST) -> set:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _is_simple_target(node: ast.expr) -> bool:
    """A store target whose re-evaluation is provably effect-free: a
    bare name, or a one-level attribute of a bare name (``self.count``).
    Deeper chains may invoke properties twice; subscripts re-evaluate
    index expressions — both rejected."""
    if isinstance(node, ast.Name):
        return True
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)


def _targets_equal(a: ast.expr, b: ast.expr) -> bool:
    if isinstance(a, ast.Name) and isinstance(b, ast.Name):
        return a.id == b.id
    if isinstance(a, ast.Attribute) and isinstance(b, ast.Attribute):
        return (
            a.attr == b.attr
            and isinstance(a.value, ast.Name)
            and isinstance(b.value, ast.Name)
            and a.value.id == b.value.id
        )
    return False


def _load(target: ast.expr) -> ast.expr:
    clone = parse_source(ast.unparse(target), mode="eval").body
    for sub in ast.walk(clone):
        if hasattr(sub, "ctx"):
            sub.ctx = ast.Load()
    return clone


#: Operators whose augmented form is identical to the expanded form for
#: numeric operands (numbers define no mutating ``__iadd__``).
_NUMERIC_AUG_OPS = (ast.Add, ast.Sub, ast.Mult)


def _is_number(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _finish(fn: ast.FunctionDef) -> ast.FunctionDef:
    ast.fix_missing_locations(fn)
    return fn


# ---------------------------------------------------------------------------
# for -> comprehension
# ---------------------------------------------------------------------------


def _for_comp_sites(
    fn: ast.FunctionDef,
) -> Iterator[Tuple[List[ast.stmt], int]]:
    """(suite, index) pairs where ``x = []`` is followed by a pure
    append loop over a simple name target."""
    for suite in _suites(fn):
        for index in range(len(suite) - 1):
            init, loop = suite[index], suite[index + 1]
            if not (
                isinstance(init, ast.Assign)
                and len(init.targets) == 1
                and isinstance(init.targets[0], ast.Name)
                and isinstance(init.value, ast.List)
                and not init.value.elts
            ):
                continue
            acc = init.targets[0].id
            if not (
                isinstance(loop, ast.For)
                and not loop.orelse
                and isinstance(loop.target, ast.Name)
                and len(loop.body) == 1
                and isinstance(loop.body[0], ast.Expr)
            ):
                continue
            call = loop.body[0].value
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "append"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == acc
                and len(call.args) == 1
                and not call.keywords
            ):
                continue
            element, loop_var = call.args[0], loop.target.id
            if loop_var == acc:
                continue
            if acc in _names_in(element) | _names_in(loop.iter):
                continue
            if _has_scope_escapes(loop) or _has_scope_escapes(init):
                continue
            # The for loop leaks its variable into the function scope;
            # the comprehension does not.  Only safe when nothing else
            # mentions the loop variable.
            uses_elsewhere = sum(
                1
                for sub in ast.walk(fn)
                if isinstance(sub, ast.Name) and sub.id == loop_var
            ) - sum(
                1
                for sub in ast.walk(loop)
                if isinstance(sub, ast.Name) and sub.id == loop_var
            )
            if uses_elsewhere:
                continue
            yield suite, index


def _for_to_comp_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    return not _introspects_frame(fn) and any(
        True for _ in _for_comp_sites(fn)
    )


def _for_to_comp_apply(
    fn: ast.FunctionDef, ctx: TransformContext
) -> ast.FunctionDef:
    for suite, index in list(_for_comp_sites(fn)):
        init, loop = suite[index], suite[index + 1]
        comp = ast.Assign(
            targets=init.targets,
            value=ast.ListComp(
                elt=loop.body[0].value.args[0],
                generators=[
                    ast.comprehension(
                        target=loop.target, iter=loop.iter, ifs=[], is_async=0
                    )
                ],
            ),
        )
        suite[index : index + 2] = [comp]
    return _finish(fn)


# ---------------------------------------------------------------------------
# comprehension -> for
# ---------------------------------------------------------------------------


def _comp_for_sites(
    fn: ast.FunctionDef,
) -> Iterator[Tuple[List[ast.stmt], int]]:
    for suite in _suites(fn):
        for index, stmt in enumerate(suite):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.ListComp)
            ):
                continue
            comp = stmt.value
            if len(comp.generators) != 1:
                continue
            gen = comp.generators[0]
            if gen.is_async or len(gen.ifs) > 1:
                continue
            if not isinstance(gen.target, ast.Name):
                continue
            pieces = [comp.elt, gen.iter] + gen.ifs
            if any(_has_scope_escapes(p) for p in pieces):
                continue
            # Nested comprehensions may rebind the loop variable in
            # their own scope; renaming would need real scope analysis.
            if any(
                isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
                for piece in pieces
                for sub in ast.walk(piece)
            ):
                continue
            yield suite, index


def _comp_to_for_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    return not _introspects_frame(fn) and any(
        True for _ in _comp_for_sites(fn)
    )


class _RenameName(ast.NodeTransformer):
    def __init__(self, mapping: Dict[str, str]) -> None:
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.Name:
        new = self.mapping.get(node.id)
        return ast.Name(id=new, ctx=node.ctx) if new else node


def _comp_to_for_apply(
    fn: ast.FunctionDef, ctx: TransformContext
) -> ast.FunctionDef:
    for suite, index in list(_comp_for_sites(fn)):
        stmt = suite[index]
        comp: ast.ListComp = stmt.value
        gen = comp.generators[0]
        # The expanded loop leaks its variable; use a fresh name so no
        # existing local is clobbered.
        loop_var = ctx.fresh(gen.target.id)
        rename = _RenameName({gen.target.id: loop_var})
        element = rename.visit(comp.elt)
        conditions = [rename.visit(test) for test in gen.ifs]
        append = ast.Expr(
            value=ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id=stmt.targets[0].id, ctx=ast.Load()),
                    attr="append",
                    ctx=ast.Load(),
                ),
                args=[element],
                keywords=[],
            )
        )
        body: List[ast.stmt] = [append]
        if conditions:
            body = [ast.If(test=conditions[0], body=body, orelse=[])]
        suite[index : index + 1] = [
            ast.Assign(targets=stmt.targets, value=ast.List(elts=[], ctx=ast.Load())),
            ast.For(
                target=ast.Name(id=loop_var, ctx=ast.Store()),
                iter=gen.iter,
                body=body,
                orelse=[],
            ),
        ]
    return _finish(fn)


# ---------------------------------------------------------------------------
# if/else flattening
# ---------------------------------------------------------------------------


def _terminal(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Raise, ast.Return, ast.Continue, ast.Break))


def _else_sites(fn: ast.FunctionDef) -> Iterator[Tuple[List[ast.stmt], int]]:
    for suite in _suites(fn):
        for index, stmt in enumerate(suite):
            if (
                isinstance(stmt, ast.If)
                and stmt.body
                and stmt.orelse
                and _terminal(stmt.body[-1])
            ):
                yield suite, index


def _else_flatten_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    return any(True for _ in _else_sites(fn))


def _else_flatten_apply(
    fn: ast.FunctionDef, ctx: TransformContext
) -> ast.FunctionDef:
    # Innermost-last ordering: sites are re-discovered after each splice
    # because flattening shifts suite indices.
    while True:
        sites = list(_else_sites(fn))
        if not sites:
            break
        suite, index = sites[0]
        stmt: ast.If = suite[index]
        tail = stmt.orelse
        stmt.orelse = []
        suite[index + 1 : index + 1] = tail
    return _finish(fn)


# ---------------------------------------------------------------------------
# augmented assignment: expand / contract
# ---------------------------------------------------------------------------


def _aug_expand_sites(fn: ast.FunctionDef) -> Iterator[Tuple[List[ast.stmt], int]]:
    for suite in _suites(fn):
        for index, stmt in enumerate(suite):
            if (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.op, _NUMERIC_AUG_OPS)
                and _is_simple_target(stmt.target)
                and _is_number(stmt.value)
            ):
                yield suite, index


def _aug_expand_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    return any(True for _ in _aug_expand_sites(fn))


def _aug_expand_apply(
    fn: ast.FunctionDef, ctx: TransformContext
) -> ast.FunctionDef:
    for suite, index in _aug_expand_sites(fn):
        stmt: ast.AugAssign = suite[index]
        target = stmt.target
        store = parse_source(ast.unparse(target), mode="eval").body
        for sub in ast.walk(store):
            if hasattr(sub, "ctx"):
                sub.ctx = ast.Store()
        suite[index] = ast.Assign(
            targets=[store],
            value=ast.BinOp(left=_load(target), op=stmt.op, right=stmt.value),
        )
    return _finish(fn)


def _aug_contract_sites(fn: ast.FunctionDef) -> Iterator[Tuple[List[ast.stmt], int]]:
    for suite in _suites(fn):
        for index, stmt in enumerate(suite):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and _is_simple_target(stmt.targets[0])
                and isinstance(stmt.value, ast.BinOp)
                and isinstance(stmt.value.op, _NUMERIC_AUG_OPS)
                and _is_number(stmt.value.right)
                and _targets_equal(stmt.targets[0], stmt.value.left)
            ):
                continue
            yield suite, index


def _aug_contract_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    return any(True for _ in _aug_contract_sites(fn))


def _aug_contract_apply(
    fn: ast.FunctionDef, ctx: TransformContext
) -> ast.FunctionDef:
    for suite, index in _aug_contract_sites(fn):
        stmt: ast.Assign = suite[index]
        suite[index] = ast.AugAssign(
            target=stmt.targets[0], op=stmt.value.op, value=stmt.value.right
        )
    return _finish(fn)


# ---------------------------------------------------------------------------
# alpha-renaming of locals
# ---------------------------------------------------------------------------


def _renameable_locals(fn: ast.FunctionDef) -> List[str]:
    params = set(_param_names(fn))
    return sorted(
        name
        for name in _assigned_names(fn)
        if name not in params and not name.startswith("__")
    )


def _alpha_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    if _has_nested_scope(fn) or _introspects_frame(fn):
        return False
    if any(
        isinstance(sub, (ast.Global, ast.Nonlocal)) for sub in ast.walk(fn)
    ):
        return False
    return bool(_renameable_locals(fn))


def _alpha_apply(fn: ast.FunctionDef, ctx: TransformContext) -> ast.FunctionDef:
    mapping = {name: ctx.fresh(name) for name in _renameable_locals(fn)}
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and sub.id in mapping:
            sub.id = mapping[sub.id]
        elif isinstance(sub, ast.ExceptHandler) and sub.name in mapping:
            sub.name = mapping[sub.name]
    return _finish(fn)


# ---------------------------------------------------------------------------
# try-body extraction into a helper method
# ---------------------------------------------------------------------------


def _extractable_tries(
    fn: ast.FunctionDef, ctx: TransformContext
) -> Iterator[ast.Try]:
    params = _param_names(fn)
    if not params or params[0] != "self":
        return
    local_names = (_assigned_names(fn) | set(params)) - {"self"}
    for suite in _suites(fn):
        for stmt in suite:
            if not isinstance(stmt, ast.Try) or not stmt.body:
                continue
            body = stmt.body
            if any(_introspects_frame(s) for s in body):
                continue
            safe = True
            for sub_stmt in body:
                for sub in ast.walk(sub_stmt):
                    if isinstance(
                        sub,
                        (
                            ast.Return,
                            ast.Break,
                            ast.Continue,
                            ast.Yield,
                            ast.YieldFrom,
                            ast.Await,
                            ast.Global,
                            ast.Nonlocal,
                            ast.NamedExpr,
                            ast.FunctionDef,
                            ast.AsyncFunctionDef,
                            ast.Lambda,
                            ast.ClassDef,
                        ),
                    ):
                        safe = False
                        break
                    if isinstance(sub, ast.Name):
                        # Only the receiver and non-local (global/builtin)
                        # names may appear: moving a read or write of a
                        # true local into the helper would change scope.
                        if isinstance(sub.ctx, (ast.Store, ast.Del)):
                            safe = False
                            break
                        if sub.id != "self" and sub.id in local_names:
                            safe = False
                            break
                    if isinstance(sub, ast.ExceptHandler):
                        safe = False
                        break
                if not safe:
                    break
            if safe:
                yield stmt


def _extract_try_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    return any(True for _ in _extractable_tries(fn, ctx))


def _extract_try_apply(
    fn: ast.FunctionDef, ctx: TransformContext
) -> ast.FunctionDef:
    for stmt in list(_extractable_tries(fn, ctx)):
        helper_name = ctx.fresh_helper(fn.name)
        helper = ast.FunctionDef(
            name=helper_name,
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg="self")],
                vararg=None,
                kwonlyargs=[],
                kw_defaults=[],
                kwarg=None,
                defaults=[],
            ),
            body=stmt.body,
            decorator_list=[],
            returns=None,
        )
        ast.fix_missing_locations(helper)
        ctx.add_helper(helper)
        stmt.body = [
            ast.Expr(
                value=ast.Call(
                    func=ast.Attribute(
                        value=ast.Name(id="self", ctx=ast.Load()),
                        attr=helper_name,
                        ctx=ast.Load(),
                    ),
                    args=[],
                    keywords=[],
                )
            )
        ]
    return _finish(fn)


# ---------------------------------------------------------------------------
# temp introduction (broadly applicable; feeds alpha-renaming)
# ---------------------------------------------------------------------------


def _temp_sites(fn: ast.FunctionDef) -> Iterator[Tuple[List[ast.stmt], int]]:
    for suite in _suites(fn):
        for index, stmt in enumerate(suite):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and _is_simple_target(stmt.targets[0])
                and not isinstance(stmt.value, (ast.Name, ast.Constant))
                and not _has_scope_escapes(stmt.value)
            ):
                yield suite, index
            elif (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and not _has_scope_escapes(stmt.value)
            ):
                yield suite, index


def _temp_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    if _introspects_frame(fn):
        return False
    return any(True for _ in _temp_sites(fn))


def _temp_apply(fn: ast.FunctionDef, ctx: TransformContext) -> ast.FunctionDef:
    # Collect first: splicing shifts indices within a suite.
    sites = list(_temp_sites(fn))
    for suite, index in sorted(
        sites, key=lambda pair: -pair[1]
    ):
        stmt = suite[index]
        temp = ctx.fresh("tmp")
        if isinstance(stmt, ast.Assign):
            suite[index : index + 1] = [
                ast.Assign(
                    targets=[ast.Name(id=temp, ctx=ast.Store())],
                    value=stmt.value,
                ),
                ast.Assign(
                    targets=stmt.targets,
                    value=ast.Name(id=temp, ctx=ast.Load()),
                ),
            ]
        else:
            suite[index] = ast.Assign(
                targets=[ast.Name(id=temp, ctx=ast.Store())],
                value=stmt.value,
            )
    return _finish(fn)


# ---------------------------------------------------------------------------
# constant guard (always-applicable structural noise)
# ---------------------------------------------------------------------------


def _guard_split(fn: ast.FunctionDef) -> Tuple[List[ast.stmt], List[ast.stmt]]:
    body = list(fn.body)
    prefix: List[ast.stmt] = []
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        prefix, body = body[:1], body[1:]
    return prefix, body


def _guard_applies(fn: ast.FunctionDef, ctx: TransformContext) -> bool:
    _prefix, rest = _guard_split(fn)
    return bool(rest)


def _guard_apply(fn: ast.FunctionDef, ctx: TransformContext) -> ast.FunctionDef:
    prefix, rest = _guard_split(fn)
    fn.body = prefix + [
        ast.If(test=ast.Constant(value=True), body=rest, orelse=[])
    ]
    return _finish(fn)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RULES: Tuple[TransformRule, ...] = (
    TransformRule(
        name="for-to-comprehension",
        description="accumulator loop (x = []; for ...: x.append(e)) "
        "becomes a list comprehension",
        applies=_for_to_comp_applies,
        apply=_for_to_comp_apply,
    ),
    TransformRule(
        name="comprehension-to-for",
        description="list comprehension assigned to a local becomes an "
        "explicit accumulator loop (fresh loop variable)",
        applies=_comp_to_for_applies,
        apply=_comp_to_for_apply,
    ),
    TransformRule(
        name="else-flatten",
        description="if/else whose then-branch ends in raise/return is "
        "flattened: the else suite is dedented after the if",
        applies=_else_flatten_applies,
        apply=_else_flatten_apply,
    ),
    TransformRule(
        name="augassign-expand",
        description="numeric x += n becomes x = x + n (simple targets "
        "only; numbers have no mutating in-place ops)",
        applies=_aug_expand_applies,
        apply=_aug_expand_apply,
    ),
    TransformRule(
        name="augassign-contract",
        description="numeric x = x + n becomes x += n (simple targets "
        "only)",
        applies=_aug_contract_applies,
        apply=_aug_contract_apply,
    ),
    TransformRule(
        name="alpha-rename",
        description="consistently renames every purely-local variable "
        "(parameters and closures untouched)",
        applies=_alpha_applies,
        apply=_alpha_apply,
    ),
    TransformRule(
        name="extract-try-body",
        description="the body of a self-contained try block moves into a "
        "fresh (unwoven) helper method called in its place",
        applies=_extract_try_applies,
        apply=_extract_try_apply,
    ),
    TransformRule(
        name="temp-assign",
        description="assignments and bare calls route their value "
        "through a fresh local temporary",
        applies=_temp_applies,
        apply=_temp_apply,
    ),
    TransformRule(
        name="constant-guard",
        description="the method body nests under `if True:` — pure "
        "line/indentation noise for line-keyed analyses",
        applies=_guard_applies,
        apply=_guard_apply,
    ),
)

_BY_NAME: Dict[str, TransformRule] = {rule.name: rule for rule in RULES}


def rule_by_name(name: str) -> TransformRule:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown transform rule {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def all_rule_names() -> List[str]:
    return [rule.name for rule in RULES]
