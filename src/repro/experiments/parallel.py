"""Parallel, resumable injection-campaign engine.

The paper's detection phase (Listing 1, Steps 1–3) re-executes the test
program once per injection point, so campaign wall-clock grows linearly
with the number of points.  The runs are mutually independent — each one
fixes a single ``InjectionPoint`` threshold on fresh program state —
which makes the sweep embarrassingly parallel.  This module fans the
per-point runs out over a :mod:`multiprocessing` pool:

1. the parent runs the shared plan step (:meth:`Detector.plan
   <repro.core.detector.Detector.plan>`) **once** — weave, profile under
   the static/trace passes, plan — then unweaves; workers never profile;
2. the points left to execute are split into contiguous chunks and
   dispatched to worker processes, each of which weaves its own copy of
   the subject classes and runs the shared executor loop
   (:meth:`Detector.execute <repro.core.detector.Detector.execute>`);
3. :func:`merge_runs` builds the final log — call counts from the
   parent's profiling run, run records in planned-point order — so the
   merged :class:`DetectionResult` is **bit-identical** to the sequential
   engine's (``RunLog.to_json()`` equality, not just statistics).

Robustness and observability around the fan-out:

* **per-run timeouts** (``timeout=`` seconds) with a bounded retry
  (``retries=``) before a point is marked ``crashed`` in its
  :class:`RunRecord`;
* a **campaign journal** (:class:`CampaignJournal`, JSONL of executed
  points) written as results arrive, enabling ``resume=True`` to skip
  finished work after an interruption — crashed points are re-attempted
  on resume.  Shard fragments (:mod:`repro.experiments.shard`) are the
  same format;
* structured :class:`~repro.core.telemetry.CampaignTelemetry`
  (runs/sec, per-phase timings, worker utilization) attached to the
  result and surfaced by ``run_app_campaign`` and the CLI
  (``repro detect --workers N --resume``).
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.detector import (
    CampaignPlan,
    DetectionResult,
    Detector,
    RunTally,
    campaign_telemetry,
    run_injection_point,
    run_point_with_timeout,
)
from repro.core.instrument import resolve_instrumentor_name
from repro.core.runlog import RunLog, RunRecord, merge_logs
from repro.core.state import StateStats, get_backend
from repro.resilience.chaos import fire as _fault_site

__all__ = [
    "CAMPAIGN_KEYS",
    "ProgramRef",
    "CampaignJournal",
    "JournalError",
    "ParallelDetector",
    "journal_entry",
    "merge_runs",
    "run_lines",
    "run_injection_point",
    "run_point_with_timeout",
    "scan_jsonl",
    "repair_jsonl_tail",
]

#: Journal schema version; bump when the line format changes.
JOURNAL_VERSION = 1

#: Header keys that identify the campaign a journal belongs to.  A resume
#: and a fragment merge both refuse a journal that disagrees on one of
#: them (a key a journal does not carry counts as matching, so journals
#: written before the key existed keep loading).
CAMPAIGN_KEYS = (
    "version",
    "program",
    "rounds",
    "stride",
    "total_points",
    "capture_args",
    "state_backend",
    "static_prune",
    "trace_derive",
    "instrumentor",
    "shard_count",
)

#: ``(record, genuine_failure, attempts)`` of one point; ``attempts == 0``
#: marks a record decided without execution.
RunEntry = Tuple[RunRecord, Optional[str], int]


class JournalError(ValueError):
    """Raised when a campaign journal cannot be used for a resume."""


# ---------------------------------------------------------------------------
# Crash-safe JSONL machinery (shared with the persistent result cache)
# ---------------------------------------------------------------------------


def scan_jsonl(data: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """Leniently parse append-only JSONL that may end in a torn write.

    Returns ``(entries, valid_end)``: every fully-written dict line in
    order, plus the byte offset of the end of the last complete line —
    the truncation point :func:`repair_jsonl_tail` restores the file
    to.  The file is scanned as bytes because a worker killed inside
    ``write(2)`` can tear a line in the middle of a multi-byte UTF-8
    sequence, not just between characters.
    """
    entries: List[Dict[str, Any]] = []
    valid_end = 0
    for raw, kept in zip(data.splitlines(), data.splitlines(keepends=True)):
        if not raw.strip():
            valid_end += len(kept)
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # torn tail: everything before it still counts
        if not isinstance(entry, dict):
            break  # a torn tail can decode to a bare JSON scalar
        entries.append(entry)
        valid_end += len(kept)
    return entries, valid_end


def repair_jsonl_tail(path: str, data: bytes, valid_end: int) -> None:
    """Durably drop a torn JSONL tail so subsequent appends stay clean.

    Truncates *path* back to *valid_end* (the end of the last
    fully-parsed line) and restores the trailing newline if the tear
    landed exactly on a line boundary without one.
    """
    if valid_end < len(data):
        with open(path, "rb+") as handle:
            handle.truncate(valid_end)
    elif data and not data.endswith(b"\n"):
        with open(path, "ab") as handle:
            handle.write(b"\n")


# ---------------------------------------------------------------------------
# Program references: how a worker process finds its test program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProgramRef:
    """A picklable recipe for rebuilding an :class:`AppProgram` in a worker.

    Worker processes cannot receive the woven program object itself (the
    weave is per-process state), so they receive either the registry name
    of one of the evaluation applications, or a module-level factory
    callable (used by tests and custom subjects).  ``rounds`` re-applies
    workload scaling in the worker.
    """

    name: Optional[str] = None
    factory: Optional[Callable[[], Any]] = None
    rounds: int = 1

    def resolve(self):
        from .programs import program_by_name

        if self.factory is not None:
            program = self.factory()
        elif self.name is not None:
            program = program_by_name(self.name)
        else:
            raise ValueError("ProgramRef needs a name or a factory")
        if self.rounds != program.rounds:
            program = program.scaled(self.rounds)
        return program

    @classmethod
    def for_program(cls, program) -> "ProgramRef":
        """Build a ref for a registry program (``repro.experiments.programs``)."""
        from .programs import is_registered

        if not is_registered(program.name):
            raise ValueError(
                f"program {program.name!r} is not in the registry; pass an "
                "explicit ProgramRef(factory=...) so workers can rebuild it"
            )
        return cls(name=program.name, rounds=program.rounds)


# ---------------------------------------------------------------------------
# Campaign journal: one JSONL format for --journal files and shard fragments
# ---------------------------------------------------------------------------


def header_mismatches(
    found: Mapping[str, Any],
    expected: Mapping[str, Any],
    keys: Sequence[str] = CAMPAIGN_KEYS,
) -> List[str]:
    """``key=value (expected ...)`` for every one of *keys* that both
    headers carry and disagree on."""
    return [
        f"{key}={found[key]!r} (expected {expected[key]!r})"
        for key in keys
        if found.get(key) is not None
        and key in expected
        and found[key] != expected[key]
    ]


def run_lines(lines: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """The well-formed ``run`` lines of a replayed journal, in order."""
    for line in lines:
        if (
            line.get("kind") == "run"
            and "point" in line
            and isinstance(line.get("record"), dict)
        ):
            yield line


def journal_entry(line: Mapping[str, Any]) -> RunEntry:
    """A journaled ``run`` line as ``(record, genuine_failure, attempts)``."""
    return (
        RunRecord.from_dict(line["record"]),
        line.get("genuine_failure"),
        int(line.get("attempts", 1)),
    )


def merge_runs(
    profile_log: RunLog, points: Sequence[int], runs: Mapping[int, RunEntry]
) -> Tuple[RunLog, List[str]]:
    """Build a campaign's final log and its genuine failures.

    Call counts come from the profiling run and run records follow in
    planned-point order — the exact layout the sequential engine's
    single log has.  Used by the pool engine and the fragment merge.
    """
    runs_log = RunLog()
    genuine_failures: List[str] = []
    for point in points:
        record, failure, _ = runs[point]
        runs_log.runs.append(record)
        if failure:
            genuine_failures.append(failure)
    return merge_logs([profile_log, runs_log]), genuine_failures


class CampaignJournal:
    """Append-only JSONL journal of a campaign's points.

    The one format behind both the pool engine's ``--journal`` file and
    the shard fragments (:mod:`repro.experiments.shard`).  Line 1 is a
    header identifying the campaign plan (:data:`CAMPAIGN_KEYS`); a
    fragment follows it with a ``profile`` line.  Every further line
    records one finished point: its :class:`RunRecord`, the genuine
    failure it observed, and how many attempts it took (0 for a record
    decided without execution).

    Every replay parses through :func:`scan_jsonl`: a torn trailing line
    (an interrupted write) ends the replay instead of raising, and
    unknown line kinds are skipped.  :meth:`load` filters that parse for
    a resume; the fragment merge filters it for merging.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing -----------------------------------------------------

    def start(
        self,
        header: Dict[str, Any],
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Truncate and durably write a fresh header line, followed by
        the *profile* line when given (shard fragments)."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        lines = [{"kind": "header", "version": JOURNAL_VERSION, **header}]
        if profile is not None:
            lines.append({"kind": "profile", **profile})
        with open(self.path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append_run(
        self,
        point: int,
        record: RunRecord,
        genuine_failure: Optional[str],
        attempts: int,
    ) -> None:
        line = json.dumps(
            {
                "kind": "run",
                "point": point,
                "record": record.to_dict(),
                "genuine_failure": genuine_failure,
                "attempts": attempts,
            },
            sort_keys=True,
        )
        # Chaos seams (no-ops unless a FaultPlan is armed): an armed
        # ioerror fires before the write, a kill/torn fault after it —
        # the on-disk states a real ENOSPC or mid-write SIGKILL leaves.
        _fault_site("journal.append", self.path)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        _fault_site("journal.appended", self.path)

    # -- reading -----------------------------------------------------

    def load(
        self, expected_header: Dict[str, Any]
    ) -> Dict[int, Dict[str, Any]]:
        """Replay the journal; return ``{point: run-line}`` for resumes.

        Crashed points are *not* returned as done — a resume re-attempts
        them.  Raises :class:`JournalError` when the file does not start
        with a header, or when a campaign key (or a fragment's
        ``shard_index``) present in the header contradicts the expected
        plan; the error names **every** differing key/value pair.

        A worker killed mid-``write`` leaves a truncated final line —
        possibly torn inside a multi-byte UTF-8 sequence.  The partial
        tail is dropped (everything before it still counts), and because
        every caller of ``load`` is about to *append*, the torn bytes are
        also truncated from the file, so the next ``append_run`` starts
        on a fresh line instead of concatenating onto the partial one.
        A header torn before anything was durable loads as empty.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return {}
        lines, valid_end = scan_jsonl(data)
        if lines:
            if lines[0].get("kind") != "header":
                raise JournalError(
                    f"journal {self.path!r} does not start with a header"
                )
            mismatches = header_mismatches(
                lines[0], expected_header, CAMPAIGN_KEYS + ("shard_index",)
            )
            if mismatches:
                raise JournalError(
                    f"journal {self.path!r} was written for a different "
                    f"campaign: " + ", ".join(mismatches) + "; delete it or "
                    "pass a different --journal path"
                )
        repair_jsonl_tail(self.path, data, valid_end)
        return {
            int(line["point"]): line
            for line in run_lines(lines)
            if not line["record"].get("crashed", False)
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


#: A pool worker's lifetime state, set by :func:`_init_worker`: its
#: detector over its own weave of the subject, the per-run budget, and
#: the exit stack holding the weave and the digest cache.  The stack is
#: never closed: the cache's write barriers stay installed across every
#: chunk the worker runs, so digests memoized in one chunk keep serving
#: later chunks (each run rebuilds fresh state, but class-level
#: constants and shared structures survive between runs).
_WORKER: Dict[str, Any] = {}


def _init_worker(
    ref: "ProgramRef",
    options: Dict[str, Any],
    call_exits: List[int],
    timeout: Optional[float],
    retries: int,
) -> None:
    lifetime = ExitStack()
    detector = lifetime.enter_context(Detector.woven(ref.resolve(), **options))
    # Workers never profile: the parent's call-exit table lets them skip
    # the before-captures its profile proves unneeded.
    detector.campaign.call_exits = call_exits
    lifetime.enter_context(detector.digest_cache())
    _WORKER.update(
        detector=detector, lifetime=lifetime, timeout=timeout, retries=retries
    )


def _run_chunk(task: Tuple[int, List[int]]) -> Dict[str, Any]:
    """Pool task: run the executor loop over a contiguous chunk of points."""
    chunk_index, points = task
    assert _WORKER, "worker initializer did not run"
    detector: Detector = _WORKER["detector"]
    cache = detector.campaign.digest_cache
    started = time.perf_counter()
    # The campaign's state counters accumulate for the lifetime of the
    # worker process; report this chunk's contribution as a delta so the
    # parent can sum chunk outcomes without double counting.
    stats_before = detector.campaign.state_stats.to_dict()
    cache_before = cache.to_dict() if cache is not None else {}
    results: List[Tuple[int, RunRecord, Optional[str], int]] = []
    tally = detector.execute(
        points,
        {},
        lambda *result: results.append(result),
        timeout=_WORKER["timeout"],
        retries=_WORKER["retries"],
    )
    stats_after = detector.campaign.state_stats.to_dict()
    cache_after = cache.to_dict() if cache is not None else {}
    return {
        "chunk": chunk_index,
        "worker": os.getpid(),
        "busy_seconds": time.perf_counter() - started,
        "capture_reruns": tally.capture_reruns,
        "state_stats": {
            key: stats_after[key] - stats_before[key] for key in stats_after
        },
        "cache_stats": {
            key: cache_after[key] - cache_before.get(key, 0)
            for key in cache_after
        },
        "results": results,
    }


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

#: Pool tasks per worker: enough chunks to balance uneven points across
#: the pool, few enough that dispatch overhead stays negligible.
TASKS_PER_WORKER = 4


class ParallelDetector:
    """Parallel drop-in for :class:`repro.core.Detector`.

    Runs the plan step once in the parent process (weave → profile →
    plan → unweave), fans the remaining per-point runs out over a
    process pool (``fork`` where available), and merges the worker
    results into a result equivalent to the sequential engine's.

    Args:
        program: the test program (an ``AppProgram``; must be resolvable
            in the worker — registry programs work out of the box,
            custom ones need ``program_ref``).
        workers: worker process count (default: the machine's CPUs).
        stride: sample every *stride*-th injection point.
        capture_args: forwarded to each worker's campaign.
        timeout: per-run wall-clock budget in seconds (``None`` = none).
        retries: retry attempts per point after a timeout before the
            point is marked crashed.
        journal_path: where to persist the campaign journal (JSONL).
        resume: skip points already completed in the journal.
        progress: optional ``(runs_done, runs_total)`` callback.
        program_ref: explicit worker-side recipe for non-registry programs.
        state_backend: name of the state backend workers compare state
            with (``graph`` or ``fingerprint``).  Recorded in the journal
            header, so a ``--resume`` against a journal written under a
            different backend is rejected instead of silently mixing
            runs.
        static_prune: run the static purity pre-analysis
            (``repro.core.staticpass``) over the parent's profiling run
            and synthesize the records of provably decided points
            instead of dispatching them to workers.  Recorded in the
            journal header; pruned points are never journaled (they are
            re-derived from a fresh profile on resume).
        trace_derive: instrument the parent's profiling run
            (``repro.core.tracepass``) and derive the records of every
            trace-decidable point from that one execution; only
            trace-undecidable points are dispatched to workers.  Same
            journal-header/resume semantics as ``static_prune``: derived
            points are never journaled and are re-derived from a fresh
            profile on resume.
        instrumentor: name of the instrumentation backend
            (:mod:`repro.core.instrument`) the parent's profiling passes
            and the workers' weaves route through (``weave`` or
            ``monitoring``).  Recorded in the journal header, so a
            ``--resume`` against a journal written under a different
            instrumentor is rejected instead of silently mixing runs.
        fingerprint_cache: let workers memoize frame digests for their
            process lifetime when the state backend supports it
            (fingerprint sweeps only; output is bit-identical either
            way).
    """

    def __init__(
        self,
        program,
        *,
        workers: Optional[int] = None,
        stride: int = 1,
        capture_args: bool = True,
        timeout: Optional[float] = None,
        retries: int = 1,
        journal_path: Optional[str] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        program_ref: Optional[ProgramRef] = None,
        state_backend: str = "graph",
        static_prune: bool = False,
        trace_derive: bool = False,
        instrumentor: str = "weave",
        fingerprint_cache: bool = True,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if resume and journal_path is None:
            raise ValueError("resume=True requires a journal_path")
        self.program = program
        self.workers = workers or os.cpu_count() or 1
        self.stride = stride
        self.capture_args = capture_args
        self.timeout = timeout
        self.retries = retries
        self.journal_path = journal_path
        self.resume = resume
        self.progress = progress
        self.ref = program_ref or ProgramRef.for_program(program)
        # Resolve eagerly so an unknown name fails here, not in a worker.
        self.state_backend = get_backend(state_backend).name
        self.static_prune = static_prune
        self.trace_derive = trace_derive
        self.instrumentor = resolve_instrumentor_name(instrumentor)
        self.fingerprint_cache = fingerprint_cache
        self.woven_specs: List[Any] = []

    # -- phases ------------------------------------------------------

    def _profile(self) -> Tuple[CampaignPlan, RunLog]:
        """The plan step in the parent; returns the plan and the profile
        log (the per-method call counts of Figures 2b/3b, no runs).

        The parent unweaves as soon as the plan is made, so worker
        processes (forked afterwards) start from clean classes and the
        trace recorder's write barriers are gone before any fork.
        """
        with Detector.woven(
            self.program,
            capture_args=self.capture_args,
            instrumentor=self.instrumentor,
            stride=self.stride,
            static_prune=self.static_prune,
            trace_derive=self.trace_derive,
        ) as detector:
            self.woven_specs = detector.woven_specs
            return detector.plan(), detector.campaign.log

    def _chunks(self, points: List[int]) -> List[Tuple[int, List[int]]]:
        size = max(1, math.ceil(len(points) / (self.workers * TASKS_PER_WORKER)))
        return [
            (index, points[start : start + size])
            for index, start in enumerate(range(0, len(points), size))
        ]

    # -- the campaign ------------------------------------------------

    def detect(self) -> DetectionResult:
        import multiprocessing

        started = time.perf_counter()
        plan, profile_log = self._profile()
        profiled = time.perf_counter()
        points = plan.points
        header = {
            "program": self.program.name,
            "rounds": self.program.rounds,
            "stride": self.stride,
            "total_points": plan.total_points,
            "capture_args": self.capture_args,
            "state_backend": self.state_backend,
            "static_prune": self.static_prune,
            "trace_derive": self.trace_derive,
            "instrumentor": self.instrumentor,
        }

        runs: Dict[int, RunEntry] = {}
        journal: Optional[CampaignJournal] = None
        if self.journal_path is not None:
            journal = CampaignJournal(self.journal_path)
            if self.resume:
                planned = set(points)
                for point, line in journal.load(header).items():
                    if point in planned:
                        runs[point] = journal_entry(line)
            if not runs:
                journal.start(header)
        resumed = len(runs)

        # Points decided without execution are never dispatched (and
        # never journaled: a resumed campaign re-derives them from its
        # own fresh profiling run).  A resumed record wins over a
        # synthesized one — both describe the same outcome.
        tally = RunTally()
        for point in points:
            if point not in runs and point in plan.decided:
                runs[point] = (plan.decided[point], None, 0)
                tally.add(plan.decided[point], 0)
        chunks = self._chunks([p for p in points if p not in runs])
        done = len(runs)
        if self.progress is not None and done:
            self.progress(done, len(points))

        busy: Dict[str, float] = {}
        state_stats = StateStats()
        cache_stats: Dict[str, int] = {}
        pool_size = min(self.workers, len(chunks))
        if chunks:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            options = {
                "capture_args": self.capture_args,
                "state_backend": self.state_backend,
                "instrumentor": self.instrumentor,
                "fingerprint_cache": self.fingerprint_cache,
            }
            pool = context.Pool(
                processes=pool_size,
                initializer=_init_worker,
                initargs=(
                    self.ref,
                    options,
                    plan.call_exits,
                    self.timeout,
                    self.retries,
                ),
            )
            try:
                for outcome in pool.imap_unordered(_run_chunk, chunks):
                    worker_id = str(outcome["worker"])
                    busy[worker_id] = (
                        busy.get(worker_id, 0.0) + outcome["busy_seconds"]
                    )
                    state_stats.merge(StateStats(**outcome["state_stats"]))
                    tally.capture_reruns += outcome["capture_reruns"]
                    for key, count in outcome["cache_stats"].items():
                        cache_stats[key] = cache_stats.get(key, 0) + count
                    for point, record, failure, attempts in outcome["results"]:
                        runs[point] = (record, failure, attempts)
                        tally.add(record, attempts)
                        if journal is not None:
                            journal.append_run(point, record, failure, attempts)
                        done += 1
                        if self.progress is not None:
                            self.progress(done, len(points))
            finally:
                pool.close()
                pool.join()
        executed = time.perf_counter()
        merged, genuine_failures = merge_runs(profile_log, points, runs)
        finished = time.perf_counter()

        execute_wall = executed - profiled
        utilization = 0.0
        if busy and execute_wall > 0:
            utilization = min(
                1.0, sum(busy.values()) / ((pool_size or 1) * execute_wall)
            )
        telemetry = campaign_telemetry(
            "parallel",
            tally,
            plan=plan,
            runs_total=len(points),
            wall=finished - started,
            phases={
                "profile": profiled - started,
                "execute": execute_wall,
                "merge": finished - executed,
            },
            state=state_stats,
            cache=cache_stats,
            workers=self.workers,
            runs_resumed=resumed,
            instrumentor=self.instrumentor,
            state_backend=self.state_backend,
            worker_busy_seconds=busy,
            worker_utilization=utilization,
        )
        return DetectionResult(
            program=self.program.name,
            log=merged,
            total_points=plan.total_points,
            runs_executed=len(points),
            genuine_failures=genuine_failures,
            telemetry=telemetry,
        )
