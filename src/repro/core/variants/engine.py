"""The transform engine: parse → apply recipe → unparse, with records.

A *recipe* is an ordered tuple of rule names.  :func:`transform_source`
parses a subject module, walks every class's directly-defined methods,
and applies each recipe rule wherever its applicability predicate
admits it — recording every application and collecting the helper
methods that try-body extraction mints, so callers can exclude them
from weaving (helpers must never shift injection-point numbering).

Recipe *order* matters and is part of the variant's identity: e.g.
``temp-assign`` creates locals that make ``alpha-rename`` applicable on
otherwise local-free methods, and ``augassign-expand`` after
``augassign-contract`` round-trips back to the original spelling.
:func:`make_recipes` derives a deterministic, seeded recipe sequence —
same ``(seed, count)`` → same recipes, across processes and sessions.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..virtualsource import parse_source
from .rules import (
    RULES,
    TransformContext,
    TransformRule,
    all_identifiers,
    all_rule_names,
    rule_by_name,
)

__all__ = [
    "AppliedTransform",
    "VariantModule",
    "make_recipes",
    "transform_source",
]


@dataclass(frozen=True)
class AppliedTransform:
    """One successful rule application, for reports and reproducers."""

    rule: str
    class_name: str
    method: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "class": self.class_name,
            "method": self.method,
        }


@dataclass
class VariantModule:
    """The outcome of transforming one subject module.

    Attributes:
        tag: the variant index the fresh-name generator was salted with.
        recipe: the rule names that were attempted, in order.
        source: the transformed module source (``ast.unparse`` output).
        applied: every (rule, class, method) application, in order.
        helper_keys: ``"Class.helper"`` keys of minted helper methods —
            campaigns must exclude these from weaving so injection-point
            numbering matches the original subject.
    """

    tag: int
    recipe: Tuple[str, ...]
    source: str
    applied: Tuple[AppliedTransform, ...] = ()
    helper_keys: Tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.applied)

    def to_dict(self) -> Dict:
        return {
            "tag": self.tag,
            "recipe": list(self.recipe),
            "applied": [a.to_dict() for a in self.applied],
            "helper_keys": list(self.helper_keys),
            "source": self.source,
        }


def make_recipes(seed: int, count: int) -> List[Tuple[str, ...]]:
    """*count* deterministic recipes for one subject.

    Each recipe samples a subset of the rule base in a shuffled order.
    The first recipe is always the full rule base in registry order
    (maximum coverage); later ones explore subsets and orderings.  A
    recipe may end up changing nothing on a given subject — that yields
    a variant identical to the original, which is a valid (trivially
    invariant) corpus member.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    names = all_rule_names()
    recipes: List[Tuple[str, ...]] = [tuple(names)]
    while len(recipes) < count:
        size = rng.randint(2, len(names))
        recipes.append(tuple(rng.sample(names, size)))
    return recipes[:count]


def _method_defs(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef)]


def _class_taken(cls: ast.ClassDef) -> set:
    """Identifiers already claimed anywhere in the class body — fresh
    helper/local names must not shadow or collide with any of them."""
    taken = set()
    for fn in _method_defs(cls):
        taken |= all_identifiers(fn)
        taken.add(fn.name)
    return taken


def transform_source(
    source: str,
    recipe: Sequence[str],
    *,
    tag: int,
    class_names: Optional[Sequence[str]] = None,
) -> VariantModule:
    """Apply *recipe* to every eligible method of every class in *source*.

    Args:
        source: subject module source (must parse).
        recipe: rule names applied in order to each method.
        tag: variant index — salted into every fresh identifier so
            variants of the same subject never collide with each other.
        class_names: when given, only classes with these names are
            transformed (others pass through verbatim).

    Returns:
        A :class:`VariantModule`.  ``source`` is always the unparsed
        module, even when nothing applied (unparse normalizes layout, so
        byte-compare *variants against each other*, not against the
        input).
    """
    rules: List[TransformRule] = [rule_by_name(name) for name in recipe]
    tree = parse_source(source)
    wanted = set(class_names) if class_names is not None else None
    applied: List[AppliedTransform] = []
    helper_keys: List[str] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if wanted is not None and node.name not in wanted:
            continue
        taken = _class_taken(node)
        for fn in _method_defs(node):
            ctx = TransformContext(
                tag=tag, class_name=node.name, taken=set(taken)
            )
            for rule in rules:
                if rule.applies(fn, ctx):
                    rule.apply(fn, ctx)
                    applied.append(
                        AppliedTransform(
                            rule=rule.name,
                            class_name=node.name,
                            method=fn.name,
                        )
                    )
            for helper in ctx.helpers:
                node.body.append(helper)
                helper_keys.append(f"{node.name}.{helper.name}")
                taken.add(helper.name)
    ast.fix_missing_locations(tree)
    return VariantModule(
        tag=tag,
        recipe=tuple(recipe),
        source=ast.unparse(tree) + "\n",
        applied=tuple(applied),
        helper_keys=tuple(helper_keys),
    )
