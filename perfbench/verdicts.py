"""Verdict checkers: Table-1 references and the fuzz oracle.

Every result the benchmark times passes through one of these checks; a
mismatch is a failed operation, never a silently faster one.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional

REFERENCE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_outcome(outcome) -> Dict[str, Any]:
    """Plan size and run-log digests of one campaign outcome."""
    return digest_log(outcome.detection.log, outcome.detection.runs_executed)


def digest_log(log, plan_points: int) -> Dict[str, Any]:
    """Plan size and run-log digests, with and without provenance."""
    from repro.core.staticpass import log_json_without_provenance

    return {
        "plan_points": plan_points,
        "log_sha256": _sha256(log.to_json()),
        "log_sha256_no_provenance": _sha256(log_json_without_provenance(log)),
    }


class Table1Reference:
    """The committed verdicts of the 16 Table-1 applications."""

    def __init__(self, directory: str = REFERENCE_DIR) -> None:
        with open(
            os.path.join(directory, "digests.json"), encoding="utf-8"
        ) as handle:
            self.digests: Dict[str, Dict[str, Any]] = json.load(handle)
        self.classifications: Dict[str, str] = {}
        for name in self.digests:
            path = os.path.join(directory, f"{name}.classification.json")
            with open(path, encoding="utf-8") as handle:
                self.classifications[name] = handle.read()

    def check(
        self,
        name: str,
        classification_json: str,
        log_digests: Mapping[str, Any],
        *,
        modulo_provenance: bool,
    ) -> List[str]:
        """Mismatches of one campaign against its reference (empty = ok).

        The classification must match byte for byte.  The run log must
        match byte for byte, or -- for campaigns that derive or prune
        points -- with per-run provenance erased, which is the
        repository's bit-identity specification for those passes.
        """
        expected = self.digests.get(name)
        if expected is None:
            return [f"{name}: no reference verdict"]
        problems = []
        if classification_json != self.classifications[name]:
            problems.append(f"{name}: classification differs from reference")
        key = "log_sha256_no_provenance" if modulo_provenance else "log_sha256"
        if log_digests.get(key) != expected[key]:
            problems.append(f"{name}: run log differs from reference ({key})")
        if log_digests.get("plan_points") != expected["plan_points"]:
            problems.append(f"{name}: plan size differs from reference")
        return problems


# ---------------------------------------------------------------------------
# Service subjects and their oracle
# ---------------------------------------------------------------------------

#: Prepended to every rendered fuzz spec: the declared exception the
#: generated methods raise and the workload catches.
_PRELUDE = "class FuzzDeclaredError(Exception):\n    pass\n\n\n"


def service_source(spec) -> str:
    """A fuzz spec as service source: classes plus a ``workload()``.

    The workload mirrors :func:`repro.fuzz.build.make_workload`: build
    the root object outside any ``try`` and call each workload method,
    swallowing only the declared exception.
    """
    from repro.fuzz import render_source

    root = spec.classes[0]
    calls = "".join(
        f"    try:\n"
        f"        root.{root.methods[index].name}()\n"
        f"    except FuzzDeclaredError:\n"
        f"        pass\n"
        for index in spec.workload
    )
    return (
        _PRELUDE
        + render_source(spec)
        + f"\ndef workload():\n    root = {root.name}()\n{calls or '    pass'}\n"
    )


def expected_categories(spec) -> Dict[str, str]:
    """The oracle's per-method categories (ground truth) for *spec*."""
    from repro.fuzz import simulate

    return dict(simulate(spec).categories)


def check_service_verdict(
    payload: Optional[Mapping[str, Any]], expected: Mapping[str, str]
) -> Optional[str]:
    """Why a service result disagrees with the oracle (``None`` = agrees)."""
    if payload is None:
        return "no result"
    classification = payload.get("classification")
    if not isinstance(classification, dict):
        return "result carries no classification"
    got = {
        key: entry.get("category") for key, entry in classification.items()
    }
    if got != dict(expected):
        wrong = sorted(
            key
            for key in set(got) | set(expected)
            if got.get(key) != expected.get(key)
        )
        return f"categories differ from oracle at {wrong[:4]}"
    return None


def checker_self_test(specs) -> List[str]:
    """Prove each checker rejects a wrong verdict; returns failures.

    For the service oracle: a verdict with pure and conditional swapped
    must be rejected.  For the Table-1 references: a classification
    with one category flipped must be rejected.
    """
    from repro.core.classify import CATEGORY_CONDITIONAL, CATEGORY_PURE

    swap = {CATEGORY_PURE: CATEGORY_CONDITIONAL, CATEGORY_CONDITIONAL: CATEGORY_PURE}
    problems = []
    tried = False
    for spec in specs:
        expected = expected_categories(spec)
        if not set(expected.values()) & set(swap):
            continue
        tried = True
        good = {"classification": {k: {"category": v} for k, v in expected.items()}}
        bad = {
            "classification": {
                k: {"category": swap.get(v, v)} for k, v in expected.items()
            }
        }
        if check_service_verdict(good, expected) is not None:
            problems.append("service checker rejects the oracle's own verdict")
        if check_service_verdict(bad, expected) is None:
            problems.append("service checker accepts a pure/conditional swap")
        break
    if not tried:
        problems.append("no subject with a pure or conditional method to swap")
    reference = Table1Reference()
    name = sorted(reference.classifications)[0]
    payload = json.loads(reference.classifications[name])
    for entry in payload.values():
        entry["category"] = swap.get(entry["category"], "pure")
        break
    mutated = json.dumps(payload, indent=2, sort_keys=True)
    digests = dict(reference.digests[name])
    if not reference.check(name, mutated, digests, modulo_provenance=False):
        problems.append("Table-1 checker accepts a flipped category")
    if reference.check(
        name, reference.classifications[name], digests, modulo_provenance=False
    ):
        problems.append("Table-1 checker rejects the reference itself")
    return problems
