"""The ``masked-ops`` workload: Figure 5 on real collection classes.

Set-up hardens the LinkedList, Dynarray, HashedMap and RBMap classes
with ``Masker.from_classification`` (default snapshot backend), using
the committed reference classifications.  A seeded single-thread stream
then runs over collections of 10 to 1,000 elements (log-spaced sizes,
see :data:`PER_KIND`): unmasked reads, masked writes, and masked writes
that fail genuinely (out-of-range ``insert_at``, screener-rejected
elements) and so roll back.

Every collection has a plain-Python shadow model.  Reads are checked
against it, writes update it, and after every write -- above all after
every expected failure -- the collection's contents must equal the
model and pass ``check_implementation``.  A rollback that leaves the
collection changed is an atomicity violation and counts as failed.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional, Tuple

from .hostspeed import BURST, HostSpeed
from .tracer import Tracer
from .verdicts import Table1Reference

APPS = ("LinkedList", "Dynarray", "HashedMap", "RBMap")
#: Collections per class in the pool, at PER_KIND log-spaced sizes from
#: MIN_SIZE to MAX_SIZE: every run has the same sizes, and the seed
#: draws their contents and the operation stream.
PER_KIND = 8
MIN_SIZE, MAX_SIZE = 10, 1000
#: Share of reads and of writes expected to fail; the rest are writes.
READ_SHARE, FAIL_SHARE = 0.70, 0.05
#: The one element value the screener rejects.
REJECT = -1
#: Seconds of operations, verified but not timed, before the timed
#: stream: the interpreter specialises the hot paths on their first runs.
WARMUP_S = 1.0


def accept(element) -> bool:
    """Screener of every pooled collection: rejects :data:`REJECT`."""
    return element != REJECT


class Pooled:
    """One collection plus its shadow model (a list or a dict)."""

    def __init__(self, kind: str, coll, model, target: int) -> None:
        self.kind = kind
        self.coll = coll
        self.model = model
        self.target = target
        self.next_value = 1_000_000

    def fresh(self) -> int:
        self.next_value += 1
        return self.next_value

    def contents(self):
        if isinstance(self.model, dict):
            return dict(self.coll.items())
        return list(self.coll)

    def consistent(self) -> Optional[str]:
        """Why the collection disagrees with its model (``None`` = it agrees)."""
        try:
            self.coll.check_implementation()
        except Exception as exc:  # any broken invariant is the finding
            return f"{self.kind}: invariant broken: {type(exc).__name__}: {exc}"
        if self.coll.size() != len(self.model) or self.contents() != self.model:
            return f"{self.kind}: contents differ from the shadow copy"
        return None


def build_pool(rng: random.Random) -> List[Pooled]:
    """Unhardened collections of fixed sizes with seeded contents."""
    from repro.collections import Dynarray, HashedMap, LinkedList, RBMap

    pool = []
    ratio = (MAX_SIZE / MIN_SIZE) ** (1.0 / (PER_KIND - 1))
    for kind in APPS:
        for step in range(PER_KIND):
            size = round(MIN_SIZE * ratio**step)
            values = [rng.randrange(1_000_000) for _ in range(size)]
            if kind == "LinkedList":
                coll, model = LinkedList(screener=accept), list(values)
                for value in values:
                    coll.insert_last(value)
            elif kind == "Dynarray":
                coll, model = Dynarray(screener=accept), list(values)
                for value in values:
                    coll.append(value)
            else:
                coll = HashedMap(screener=accept) if kind == "HashedMap" else RBMap(screener=accept)
                model = {}
                for key, value in enumerate(values):
                    coll.put(key, value)
                    model[key] = value
            pool.append(Pooled(kind, coll, model, size))
    return pool


def harden(reference: Table1Reference, stats) -> list:
    """Mask each app's classes by its reference classification."""
    from repro.core import ClassificationResult, Masker
    from repro.experiments.programs import program_by_name

    maskers = []
    for app in APPS:
        classification = ClassificationResult.from_json(reference.classifications[app])
        masker = Masker.from_classification(classification, stats=stats)
        masker.mask_classes(program_by_name(app).classes)
        maskers.append(masker)
    return maskers


def unharden(maskers: list) -> None:
    for masker in reversed(maskers):
        masker.unmask_all()


# -- the operation stream ----------------------------------------------------

Op = Tuple[str, Callable[[], object], Callable[[object], Optional[str]]]


def _read(item: Pooled, rng: random.Random) -> Op:
    coll, model = item.coll, item.model
    if isinstance(model, list):
        index = rng.randrange(len(model))
        if item.kind == "Dynarray" and rng.random() < 0.5:
            value = model[index]
            return ("read", lambda: coll.index_of(value),
                    lambda got: None if got == model.index(value) else "index_of wrong")
        return ("read", lambda: coll.get_at(index),
                lambda got: None if got == model[index] else "get_at wrong")
    key = rng.randrange(item.target * 2)
    if rng.random() < 0.5:
        return ("read", lambda: coll.contains_key(key),
                lambda got: None if got == (key in model) else "contains_key wrong")
    key = rng.choice(list(model)) if model else key
    return ("read", lambda: coll.get(key),
            lambda got: None if got == model.get(key) else "get wrong")


def _write(item: Pooled, rng: random.Random) -> Op:
    coll, model = item.coll, item.model
    grow = len(model) < item.target
    if isinstance(model, list):
        if grow:
            index, value = rng.randrange(len(model) + 1), item.fresh()

            def apply(got):
                model.insert(index, value)
                return item.consistent()

            return ("write", lambda: coll.insert_at(index, value), apply)
        index = rng.randrange(len(model))

        def apply_remove(got):
            expected = model.pop(index)
            return item.consistent() or (None if got == expected else "remove_at wrong")

        return ("write", lambda: coll.remove_at(index), apply_remove)
    if grow:
        key, value = item.fresh(), item.fresh()

        def apply_put(got):
            model[key] = value
            return item.consistent()

        return ("write", lambda: coll.put(key, value), apply_put)
    key = rng.choice(list(model))

    def apply_remove_key(got):
        expected = model.pop(key)
        return item.consistent() or (None if got == expected else "remove_key wrong")

    return ("write", lambda: coll.remove_key(key), apply_remove_key)


def _failing(item: Pooled, rng: random.Random) -> Op:
    """A write that must raise and leave the collection unchanged."""
    coll, model = item.coll, item.model
    if item.kind == "LinkedList":
        if rng.random() < 0.5:
            values = [item.fresh(), item.fresh(), REJECT]
            return ("fail", lambda: coll.extend(values), None)
        index = len(model) + 1 + rng.randrange(5)
        return ("fail", lambda: coll.insert_at(index, item.fresh()), None)
    if item.kind == "Dynarray":
        if rng.random() < 0.5 and model:
            index = rng.randrange(len(model))
            return ("fail", lambda: coll.insert_at(index, REJECT), None)
        index = len(model) + 1 + rng.randrange(5)
        return ("fail", lambda: coll.insert_at(index, item.fresh()), None)
    if item.kind == "HashedMap":
        key = item.fresh()
        return ("fail", lambda: coll.put(key, REJECT), None)
    batch = {item.fresh(): item.fresh(), item.fresh(): item.fresh(), item.fresh(): REJECT}
    return ("fail", lambda: coll.update(batch), None)


def next_op(pool: List[Pooled], rng: random.Random) -> Tuple[Pooled, Op]:
    item = pool[rng.randrange(len(pool))]
    draw = rng.random()
    if draw < READ_SHARE:
        return item, _read(item, rng)
    if draw < READ_SHARE + FAIL_SHARE:
        return item, _failing(item, rng)
    return item, _write(item, rng)


def run_stream(
    pool, rng, seconds: float, latencies: List[float], host: HostSpeed
) -> Tuple[int, List[str], float]:
    """Run ops for *seconds*; append each op's latency to *latencies*.

    Probes the host's speed between operations (see
    :meth:`HostSpeed.poll`) and once after the last.  Returns the number
    of ops, the problems found and the stream's slowdown.
    """
    from repro.collections.errors import CollectionsError

    problems: List[str] = []
    ops = 0
    begin = time.perf_counter()
    deadline = begin + seconds
    while time.perf_counter() < deadline:
        host.poll()
        item, (kind, call, verify) = next_op(pool, rng)
        started = time.perf_counter()
        try:
            got = call()
            error = None
        except Exception as exc:  # judged below, like any other outcome
            error = exc
        latencies.append(time.perf_counter() - started)
        ops += 1
        if kind == "fail":
            if not isinstance(error, CollectionsError):
                problems.append(f"{item.kind}: expected a collections error, got {error!r}")
            # the atomicity check: the model is the shadow copy of the
            # contents before the call, and a rollback must restore them
            problem = item.consistent()
        elif error is not None:
            problem = f"{item.kind}: {kind} raised {type(error).__name__}: {error}"
        else:
            problem = verify(got)
        if problem is not None:
            problems.append(problem)
    end = time.perf_counter()
    host.probe()
    return ops, problems, host.slowdown(begin, end)


def time_setup(
    reference: Table1Reference, stats, host: HostSpeed, repeats: int = 15
) -> Tuple[List[float], List[float], list]:
    """Harden *repeats* times, undoing all but the last.

    Returns the raw and the reference-host seconds of each hardening,
    and the last hardening's maskers.
    """
    spans = []
    maskers: list = []
    for attempt in range(repeats):
        host.probe(BURST)
        started = time.perf_counter()
        maskers = harden(reference, stats)
        spans.append((started, time.perf_counter()))
        if attempt < repeats - 1:
            unharden(maskers)
    host.probe(BURST)
    return [b - a for a, b in spans], host.normalise(spans), maskers


def install_tracing(tracer: Tracer) -> None:
    """Time the state backends' checkpoint, restore and commit."""
    from repro.core.state import StateBackend

    tracer.wrap_methods(StateBackend, ["checkpoint"], "mask.checkpoint")
    tracer.wrap_methods(StateBackend, ["restore"], "mask.restore")
    tracer.wrap_methods(StateBackend, ["commit"], "mask.commit")


def measure(seed: int, seconds: float, *, trace: bool) -> dict:
    from repro.core import MaskingStats

    reference = Table1Reference()
    rng = random.Random(seed)
    pool = build_pool(rng)
    stats = MaskingStats()
    host = HostSpeed()
    setup_raw, setup, maskers = time_setup(reference, stats, host)
    raw: List[float] = []
    try:
        warm_ops, warm_problems, _ = run_stream(pool, rng, WARMUP_S, [], host)
        ops, problems, slowdown = run_stream(
            pool, rng, seconds / 2 if trace else seconds, raw, host
        )
        problems = warm_problems + problems
        latencies = [lat / slowdown for lat in raw]
        result = {
            "setup_s": setup,
            "setup_raw_s": setup_raw,
            "host": host,
            "raw_latencies": raw,
            "latencies": latencies,
            "ops": warm_ops + ops,
            "problems": problems,
        }
        if trace:
            untraced_mean = sum(latencies) / len(latencies)
            calls, rollbacks, objects = stats.wrapped_calls, stats.rollbacks, stats.checkpointed_objects
            tracer = Tracer()
            install_tracing(tracer)
            traced_raw: List[float] = []
            try:
                traced_ops, traced_problems, slowdown = run_stream(
                    pool, rng, seconds / 2, traced_raw, host
                )
            finally:
                tracer.uninstall()
            traced_latencies = [lat / slowdown for lat in traced_raw]
            problems.extend(traced_problems)
            result["ops"] += traced_ops
            calls = stats.wrapped_calls - calls
            rollbacks = stats.rollbacks - rollbacks
            objects = stats.checkpointed_objects - objects
            result["layers"] = {
                "mask.calls": float(calls),
                "mask.rollbacks": float(rollbacks),
                "mask.rollback_frac": rollbacks / calls if calls else 0.0,
                "mask.checkpoint_objects": float(objects),
                "mask.objects_per_call": objects / calls if calls else 0.0,
                "mask.checkpoint_s": tracer.self_seconds("mask.checkpoint"),
                "mask.restore_s": tracer.self_seconds("mask.restore"),
                "mask.commit_s": tracer.self_seconds("mask.commit"),
                "tracing.overhead_frac": (sum(traced_latencies) / len(traced_latencies))
                / untraced_mean - 1.0,
                "tracing.spans": float(len(tracer.spans) + tracer.dropped),
            }
            result["tracer"] = tracer
    finally:
        unharden(maskers)
    return result
