"""Shard-able campaign service: point-range shards + coordinator merge.

The parallel engine (:mod:`repro.experiments.parallel`) fans a campaign
out over one process pool on one host.  This module promotes the same
resumable-journal design to a *distributed* shape: a campaign is split
into deterministic **shards** (contiguous point-range partitions of the
shared :func:`~repro.core.detector.plan_points` plan), every shard runs
in an independent worker process — possibly on another host, with no
coordination beyond agreeing on ``(program, config, shard_count)`` — and
each emits a self-contained **journal fragment**.  A coordinator then
merges the fragments into a result **bit-identical** to the sequential
engine's (``RunLog.to_json()`` equality), across engines × state
backends × ``--static-prune``/``--trace-derive``.

Why this is safe without a coordinator during execution:

* the plan is a pure function of the profiling run, and the profiling
  run is deterministic — every shard computes the *same* plan and the
  same static/trace decisions from its own profile;
* :func:`shard_points` is a stable balanced partition of that plan, and
  the shard assignment (``shard_index``/``shard_count``) is recorded in
  each fragment's header, so fragments from different campaigns or
  mis-numbered workers are rejected at merge time rather than mixed;
* each fragment embeds its shard's profiling log; the coordinator
  asserts all profiles are byte-identical before trusting any of them
  (a nondeterministic subject is detected, not silently merged);
* fragments are :class:`~repro.experiments.parallel.CampaignJournal`
  files, the pool engine's crash-safe JSONL journal — a shard killed
  mid-write leaves a truncated tail that is dropped on ``resume=True``,
  and the merge step reports exactly which points (and which shard) are
  missing.

The fragment format (one JSON object per line)::

    {"kind": "header", ...campaign plan..., "shard_index": 1, "shard_count": 4}
    {"kind": "profile", "total_points": N, "log": {...}, "exception_free": [...]}
    {"kind": "run", "point": 17, "record": {...}, "genuine_failure": null, "attempts": 1}

``repro shard`` / ``repro merge`` expose this from the CLI; the async
front end (:mod:`repro.service`) builds the "millions of users" queueing
and caching layer on top.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import ClassificationResult, WrapPolicy, plan_points, reclassify
from repro.core.detector import (
    DetectionResult,
    Detector,
    RunTally,
    campaign_telemetry,
)
from repro.core.instrument import resolve_instrumentor_name
from repro.core.runlog import RunLog
from repro.core.state import get_backend
from repro.core.telemetry import CampaignTelemetry

from .parallel import (
    CampaignJournal,
    header_mismatches,
    journal_entry,
    merge_runs,
    run_lines,
    scan_jsonl,
)

__all__ = [
    "ShardError",
    "ShardResult",
    "MergedCampaign",
    "shard_points",
    "run_shard",
    "merge_fragments",
]


class ShardError(ValueError):
    """Raised when journal fragments cannot be merged into a campaign."""


def shard_points(points: Sequence[int], shard_count: int) -> List[List[int]]:
    """Deterministically partition a campaign plan into contiguous shards.

    The split is *stable*: it depends only on the plan and the shard
    count, so independent workers (different processes, different hosts)
    agree on the assignment without talking to each other.  Shard sizes
    are balanced to within one point (the first ``len(points) %
    shard_count`` shards get the extra one), and every shard holds a
    contiguous range of the plan, so a fragment's byte layout mirrors a
    slice of the sequential sweep.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    base, extra = divmod(len(points), shard_count)
    shards: List[List[int]] = []
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shards.append(list(points[start : start + size]))
        start += size
    return shards


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """What one shard worker produced (plus the fragment on disk)."""

    shard_index: int
    shard_count: int
    fragment_path: str
    points: List[int]
    total_points: int
    executed: int
    resumed: int
    pruned: int
    derived: int
    crashed: int
    retries: int
    wall_seconds: float
    telemetry: CampaignTelemetry


def run_shard(
    program,
    shard_index: int,
    shard_count: int,
    fragment_path: str,
    *,
    stride: int = 1,
    capture_args: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    resume: bool = False,
    state_backend: str = "graph",
    static_prune: bool = False,
    trace_derive: bool = False,
    instrumentor: str = "weave",
    fingerprint_cache: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ShardResult:
    """Run one shard of a campaign and write its journal fragment.

    Runs the shared plan step in-process (weave → profile under the
    static/trace passes → plan), takes the ``shard_index``-th slice of
    the deterministic shard assignment, and runs the executor loop over
    exactly those points, appending every record — executed,
    synthesized (static) and derived (trace) alike — to the fragment so
    the coordinator can merge without re-profiling.  With
    ``resume=True`` a fragment left behind by a killed worker is
    replayed first and only the unfinished points run.

    Runs on any thread: per-run timeouts use SIGALRM on the main thread
    and the async-exception watchdog elsewhere (see
    :func:`~repro.core.detector.run_point_with_timeout`).
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    if retries < 0:
        raise ValueError("retries must be >= 0")
    state_backend = get_backend(state_backend).name
    instrumentor = resolve_instrumentor_name(instrumentor)

    started = time.perf_counter()
    with Detector.woven(
        program,
        capture_args=capture_args,
        state_backend=state_backend,
        instrumentor=instrumentor,
        stride=stride,
        progress=progress,
        static_prune=static_prune,
        trace_derive=trace_derive,
        fingerprint_cache=fingerprint_cache,
    ) as detector:
        plan = detector.plan()
        profiled = time.perf_counter()
        mine = shard_points(plan.points, shard_count)[shard_index]
        header = {
            "program": program.name,
            "rounds": program.rounds,
            "stride": stride,
            "total_points": plan.total_points,
            "capture_args": capture_args,
            "state_backend": state_backend,
            "static_prune": static_prune,
            "trace_derive": trace_derive,
            "instrumentor": instrumentor,
            "shard_index": shard_index,
            "shard_count": shard_count,
        }
        # The profile line makes the fragment self-contained: the merge
        # step takes call counts from here (asserting every shard saw
        # the identical profile) instead of re-executing the subject.
        # The snapshot is taken before any injection run, so the log
        # holds counts and no runs — exactly the parent profile log the
        # parallel engine merges from.
        profile = {
            "total_points": plan.total_points,
            "log": json.loads(detector.campaign.log.to_json()),
            "exception_free": sorted(
                spec.key for spec in detector.woven_specs if spec.exception_free
            ),
        }

        fragment = CampaignJournal(fragment_path)
        resumed: Dict[int, Dict[str, Any]] = {}
        if resume:
            assigned = set(mine)
            resumed = {
                point: line
                for point, line in fragment.load(header).items()
                if point in assigned
            }
        if not resumed:
            fragment.start(header, profile)

        # Decided points are journaled too (attempts=0 marks a record
        # that never ran the subject), so the merge step needs no
        # re-derivation.
        with detector.digest_cache() as cache:
            tally = detector.execute(
                [point for point in mine if point not in resumed],
                plan.decided,
                fragment.append_run,
                timeout=timeout,
                retries=retries,
                done=len(resumed),
            )
    finished = time.perf_counter()

    wall = finished - started
    telemetry = campaign_telemetry(
        "shard",
        tally,
        plan=plan,
        runs_total=len(mine),
        wall=wall,
        phases={"profile": profiled - started, "execute": finished - profiled},
        state=detector.campaign.state_stats,
        cache=cache.to_dict() if cache is not None else None,
        runs_resumed=len(resumed),
        instrumentor=instrumentor,
        state_backend=state_backend,
    )
    return ShardResult(
        shard_index=shard_index,
        shard_count=shard_count,
        fragment_path=fragment_path,
        points=list(mine),
        total_points=plan.total_points,
        executed=tally.executed,
        resumed=len(resumed),
        pruned=tally.pruned,
        derived=tally.derived,
        crashed=tally.crashed,
        retries=tally.retries,
        wall_seconds=wall,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Coordinator merge
# ---------------------------------------------------------------------------


@dataclass
class _Fragment:
    """A fully parsed fragment, as the merge step sees it."""

    path: str
    header: Dict[str, Any]
    profile: Optional[Dict[str, Any]]
    runs: Dict[int, Dict[str, Any]]


def _read_fragment(path: str) -> _Fragment:
    """Parse a fragment for merging.

    Unlike the resume path, crashed records are *kept* — a merged
    campaign reports crashed points exactly like the parallel engine
    does (the fix is to re-run that shard with ``resume=True``).  A
    truncated tail line (shard killed mid-write) is dropped; the
    coverage check then reports the missing points.  The file itself is
    left untouched.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise ShardError(f"fragment {path!r} does not exist")
    if not data:
        raise ShardError(f"fragment {path!r} is empty")
    lines, _ = scan_jsonl(data)
    if not lines:
        raise ShardError(f"fragment {path!r} has a corrupt header")
    if lines[0].get("kind") != "header":
        raise ShardError(f"fragment {path!r} does not start with a header")
    profiles = [line for line in lines if line.get("kind") == "profile"]
    return _Fragment(
        path=path,
        header=lines[0],
        profile=profiles[-1] if profiles else None,
        runs={int(line["point"]): line for line in run_lines(lines)},
    )


@dataclass
class MergedCampaign:
    """A coordinator-merged campaign: the sequential-identical result
    plus everything needed to classify it offline."""

    detection: DetectionResult
    header: Dict[str, Any]
    exception_free: frozenset = field(default_factory=frozenset)

    def classify(
        self, policy: Optional[WrapPolicy] = None
    ) -> ClassificationResult:
        """Classify the merged log exactly like ``run_app_campaign``:
        the programmer-declared exception-free annotations (recorded in
        the fragments' profile line) always apply, and a caller-supplied
        policy is merged on top."""
        effective = WrapPolicy(exception_free=set(self.exception_free))
        if policy is not None:
            effective = effective.merged_with(policy)
        return reclassify(self.detection.log, effective)


def merge_fragments(paths: Sequence[str]) -> MergedCampaign:
    """Merge journal fragments into one campaign result.

    Validates, then merges deterministically:

    1. every fragment's header agrees on the campaign plan (program,
       stride, total points, backend, instrumentor, passes, shard
       count) — any differing key/value pairs are reported;
    2. shard indices cover ``0..shard_count-1`` exactly once;
    3. every fragment's embedded profiling log is byte-identical (the
       determinism the whole scheme rests on);
    4. the union of the fragments' run records covers the plan exactly,
       each point inside its shard's assigned range — missing points
       name the shard to resume.

    The merged :class:`DetectionResult` is bit-identical to the
    sequential engine's: call counts from the (shared) profiling log,
    run records in planned-point order.
    """
    if not paths:
        raise ShardError("no fragments to merge")
    fragments = [_read_fragment(path) for path in paths]
    base = fragments[0]
    for fragment in fragments[1:]:
        diffs = header_mismatches(fragment.header, base.header)
        if diffs:
            raise ShardError(
                f"fragment {fragment.path!r} belongs to a different "
                f"campaign than {base.path!r}: " + ", ".join(diffs)
            )
    shard_count = int(base.header.get("shard_count", 0))
    if shard_count < 1:
        raise ShardError(
            f"fragment {base.path!r} has no shard_count in its header"
        )
    indices = sorted(int(f.header.get("shard_index", -1)) for f in fragments)
    if indices != list(range(shard_count)):
        seen = ", ".join(str(i) for i in indices)
        raise ShardError(
            f"fragments do not cover shards 0..{shard_count - 1} exactly "
            f"once (got shard indices: {seen})"
        )

    incomplete = [f.path for f in fragments if f.profile is None]
    if incomplete:
        raise ShardError(
            "fragment(s) missing their profile line (shard killed before "
            "profiling finished): " + ", ".join(repr(p) for p in incomplete)
        )
    profile_json = json.dumps(base.profile["log"], sort_keys=True)
    for fragment in fragments[1:]:
        if json.dumps(fragment.profile["log"], sort_keys=True) != profile_json:
            raise ShardError(
                f"profiling runs diverged between {base.path!r} and "
                f"{fragment.path!r}; the subject program is not "
                "deterministic, so shard results cannot be merged"
            )

    total = int(base.header["total_points"])
    stride = int(base.header.get("stride", 1))
    points = plan_points(total, stride=stride)
    assignment = shard_points(points, shard_count)
    by_point: Dict[int, Dict[str, Any]] = {}
    for fragment in fragments:
        allowed = set(assignment[int(fragment.header["shard_index"])])
        for point, line in fragment.runs.items():
            if point not in allowed:
                raise ShardError(
                    f"fragment {fragment.path!r} holds point {point}, "
                    f"outside its assigned range"
                )
            by_point[point] = line

    missing: Dict[int, List[int]] = {}
    for index, assigned in enumerate(assignment):
        gone = [p for p in assigned if p not in by_point]
        if gone:
            missing[index] = gone
    if missing:
        detail = "; ".join(
            f"shard {index} is missing point(s) "
            + ", ".join(str(p) for p in gone)
            for index, gone in sorted(missing.items())
        )
        raise ShardError(
            f"incomplete campaign: {detail} — re-run those shards with "
            "resume=True (repro shard --resume) and merge again"
        )

    merge_started = time.perf_counter()
    runs = {point: journal_entry(by_point[point]) for point in points}
    tally = RunTally()
    for record, _, attempts in runs.values():
        tally.add(record, attempts)
    profile_log = RunLog.from_json(profile_json)
    # to_json sorts call_counts keys, but merge_logs rebuilds
    # methods_seen from call_counts *insertion* order — restore the
    # first-seen order the profiling run recorded (methods_seen is a
    # list and survived the round-trip intact) so the merged log is
    # byte-identical to the sequential engine's.
    profile_log.call_counts = {
        method: profile_log.call_counts[method]
        for method in profile_log.methods_seen
        if method in profile_log.call_counts
    }
    merged, genuine_failures = merge_runs(profile_log, points, runs)
    merge_seconds = time.perf_counter() - merge_started

    telemetry = campaign_telemetry(
        "sharded",
        tally,
        runs_total=len(points),
        wall=merge_seconds,
        phases={"merge": merge_seconds},
        runs_per_second=0.0,
        workers=shard_count,
        instrumentor=str(base.header.get("instrumentor", "weave")),
        state_backend=str(base.header.get("state_backend", "graph")),
    )
    detection = DetectionResult(
        program=str(base.header["program"]),
        log=merged,
        total_points=total,
        runs_executed=len(points),
        genuine_failures=genuine_failures,
        telemetry=telemetry,
    )
    return MergedCampaign(
        detection=detection,
        header=dict(base.header),
        exception_free=frozenset(base.profile.get("exception_free", ())),
    )
