"""The detection campaign driver (Step 3 of Figure 1).

The exception injector program is executed repeatedly: the threshold
``InjectionPoint`` is incremented before each execution so that every run
injects exactly one exception, at a different point.  The driver first
performs a *profiling* run (threshold 0, nothing fires) to count the total
number of potential injection points and to collect per-method call
counts, then sweeps the threshold over ``1..N``.

This module is the campaign kernel every engine shares (the sequential
:class:`Detector`, the process pool in :mod:`repro.experiments.parallel`
and the shard runner in :mod:`repro.experiments.shard`):

* the **plan step** (:meth:`Detector.plan`) profiles once under the
  static/trace passes and returns the sweep plan with every point the
  passes decided without execution;
* the **executor loop** (:meth:`Detector.execute`) takes each point's
  decided record or runs it under :func:`run_point_with_timeout`, and
  hands ``(point, record, genuine_failure, attempts)`` to a sink;
* :func:`campaign_telemetry` builds every engine's telemetry.
"""

from __future__ import annotations

import ctypes
import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

from repro.resilience.chaos import fire as _fault_site

from .analyzer import Analyzer, MethodSpec
from .exceptions import InjectionAbort, is_injected
from .injection import InjectionCampaign
from .instrument import Instrumentor, WeavingInstrumentor, get_instrumentor
from .runlog import RunLog, RunRecord
from .state import FingerprintCache, StateStats, get_backend
from .staticpass import PROVENANCE_STATIC, StaticPruner, call_through_boundary
from .telemetry import CampaignTelemetry
from .tracepass import TraceDeriver, TraceRecorder

__all__ = [
    "Program",
    "Detector",
    "DetectionResult",
    "DetectionError",
    "CampaignPlan",
    "RunTally",
    "campaign_telemetry",
    "plan_points",
    "post_async_exc",
    "run_injection_point",
    "run_point_with_timeout",
]


@runtime_checkable
class Program(Protocol):
    """A re-runnable test program.

    Every invocation must execute the same deterministic workload on
    *fresh* state (construct the objects inside the call), because the
    detection phase re-executes the program once per injection point.
    """

    name: str

    def __call__(self) -> None: ...


class DetectionError(RuntimeError):
    """Raised when the test program misbehaves during a campaign."""


@dataclass
class DetectionResult:
    """Outcome of one detection campaign.

    ``telemetry`` is observability metadata (engine, timings, worker
    utilization) and intentionally not part of the scientific result:
    two campaigns over the same program are *equivalent* when their
    ``log``, ``total_points``, ``runs_executed`` and ``genuine_failures``
    agree, regardless of which engine produced them or how fast.
    """

    program: str
    log: RunLog
    total_points: int
    runs_executed: int
    genuine_failures: List[str] = field(default_factory=list)
    telemetry: Optional[CampaignTelemetry] = None

    @property
    def total_injections(self) -> int:
        """Number of runs in which an exception was injected (Table 1)."""
        return self.log.total_injections()


def plan_points(
    total: int,
    *,
    stride: int = 1,
    injection_points: Optional[Iterable[int]] = None,
    baseline_run: bool = True,
    pruned: Optional[Container[int]] = None,
) -> List[int]:
    """The ordered list of thresholds a campaign will sweep.

    Shared by the sequential and parallel engines so both execute the
    *same* plan: points ``1..total`` thinned by ``stride`` (or an explicit
    point list), plus the trailing baseline run at ``total + 1`` that
    observes genuine (non-injected) failures without injecting anything.

    Args:
        pruned: points the static pass decided without execution
            (``repro.core.staticpass``); they are dropped from the plan
            so both engines skip them the same way.  The baseline run is
            never pruned — genuine failures are only observable
            dynamically.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if injection_points is None:
        points = list(range(1, total + 1, stride))
    else:
        points = list(injection_points)
    if pruned is not None:
        points = [point for point in points if point not in pruned]
    if baseline_run:
        points.append(total + 1)
    return points


def run_injection_point(
    program: Program,
    campaign: InjectionCampaign,
    injection_point: int,
    *,
    reraise: Tuple[Type[BaseException], ...] = (),
) -> Tuple[RunRecord, Optional[str]]:
    """Execute one injection run; return ``(record, genuine_failure)``.

    This is the single-run kernel both engines share: begin a run at the
    given threshold, execute the program, swallow the injected abort, and
    classify anything else that escapes as a *genuine* failure (returned
    as the formatted string the campaign accumulates).

    Args:
        reraise: exception types to re-raise instead of recording — the
            parallel engine passes its timeout exception here so a timed
            out run is retried rather than logged as a genuine failure.

    Two cases re-execute the run transparently, the new record replacing
    the first, so the emitted log is bit-identical to that of an
    all-graph campaign that captures at every call:

    * an exception left a call whose before-capture the call-exit table
      elided (:attr:`InjectionCampaign.capture_missed`: the program
      diverged from its profile, so the record lacks that call's
      verdict) — the run is repeated with the table emptied, every call
      capturing as in Listing 1;
    * the campaign uses a lossy-diff backend (fingerprints) and the run
      produced non-atomic marks — the run is repeated under the graph
      backend: digests can witness *that* state changed but not
      *where*, and the run log's ``difference`` strings are part of the
      deliverable.  Programs are re-runnable by contract
      (:class:`Program`), so the refinement run observes the identical
      execution.  Atomic-only runs (the vast majority in a sweep,
      Figure 5) never pay for a second execution.
    """
    record = campaign.begin_run(injection_point)
    completed = False
    escaped = False
    failure: Optional[str] = None
    try:
        program()
        completed = True
    except InjectionAbort:
        pass
    except BaseException as exc:
        if reraise and isinstance(exc, reraise):
            raise
        escaped = is_injected(exc)
        if not escaped:
            # A genuine (non-injected) failure escaping the program is a
            # robustness finding of its own; record and go on.
            failure = f"point={injection_point}: {type(exc).__name__}: {exc}"
    finally:
        campaign.end_run(completed=completed, escaped=escaped)
    if campaign.capture_missed:
        campaign.capture_reruns += 1
        return _rerun(
            program, campaign, injection_point, record, reraise, call_exits=[]
        )
    if campaign.backend.lossy_diff and record.first_nonatomic() is not None:
        return _rerun(
            program,
            campaign,
            injection_point,
            record,
            reraise,
            backend=get_backend("graph"),
        )
    return record, failure


def _rerun(
    program: Program,
    campaign: InjectionCampaign,
    injection_point: int,
    dropped: RunRecord,
    reraise: Tuple[Type[BaseException], ...],
    **overrides: Any,
) -> Tuple[RunRecord, Optional[str]]:
    """Re-execute one run with campaign attributes temporarily overridden
    (``backend`` for full diagnostics, ``call_exits`` for full capture),
    replacing the *dropped* record."""
    if campaign.log.runs and campaign.log.runs[-1] is dropped:
        campaign.log.runs.pop()
    saved = {name: getattr(campaign, name) for name in overrides}
    for name, value in overrides.items():
        setattr(campaign, name, value)
    try:
        return run_injection_point(
            program, campaign, injection_point, reraise=reraise
        )
    finally:
        for name, value in saved.items():
            setattr(campaign, name, value)


# ---------------------------------------------------------------------------
# Per-run time budgets
# ---------------------------------------------------------------------------


def post_async_exc(ident: int, exc_type: Optional[type]) -> bool:
    """Raise *exc_type* inside the thread *ident* at its next bytecode
    boundary — the only portable way to interrupt a running thread.

    ``None`` clears an exception that was posted but not yet delivered.
    A post that hit more than one thread state is undone.  Returns
    whether exactly one thread was affected.
    """
    set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
    posted = set_async_exc(
        ctypes.c_ulong(ident),
        ctypes.py_object(exc_type) if exc_type is not None else None,
    )
    if posted > 1:  # hit more than one thread state: undo, do no harm
        set_async_exc(ctypes.c_ulong(ident), None)
        return False
    return posted == 1


class _RunTimeout(BaseException):
    """Raised by the SIGALRM handler when a run exceeds its budget.

    Derives from ``BaseException`` so application-level ``except
    Exception`` blocks inside the workload cannot swallow it.
    """


def _alarm_handler(signum, frame):
    raise _RunTimeout()


class _TimeoutGuard:
    """Arms a per-run wall-clock budget around one subject execution.

    On the main thread this is the classic ``SIGALRM`` + ``setitimer``
    pair.  ``signal.signal`` raises ``ValueError`` anywhere else — e.g.
    when the engine is driven from a ``repro serve`` worker thread — so
    off the main thread the guard falls back to a watchdog timer that
    posts :class:`_RunTimeout` into the running thread as an async
    exception.  The watchdog cannot preempt a call blocked in C (the
    exception is delivered at the next bytecode boundary), so a stalled
    run is detected late rather than interrupted instantly; the budget
    is still enforced and the point still crashes after its retries.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._thread_id = threading.get_ident()
        self._use_alarm = (
            hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        self._previous_handler: Any = None
        self._timer: Optional[threading.Timer] = None
        self._fired = False

    def _fire(self) -> None:
        self._fired = True
        post_async_exc(self._thread_id, _RunTimeout)

    def __enter__(self) -> "_TimeoutGuard":
        if self._use_alarm:
            try:
                self._previous_handler = signal.signal(
                    signal.SIGALRM, _alarm_handler
                )
                signal.setitimer(signal.ITIMER_REAL, self.seconds)
                return self
            except ValueError:
                # Lost a race against an interpreter that still considers
                # this a non-main thread (e.g. right after a fork from a
                # threaded parent): fall through to the watchdog.
                self._use_alarm = False
        self._timer = threading.Timer(self.seconds, self._fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            return
        assert self._timer is not None
        self._timer.cancel()
        if exc_type is not _RunTimeout:
            # Wait the timer thread out so a concurrent _fire cannot post
            # after this guard is gone, then clear any pending async raise
            # the run outlived (it must not surface in later code).
            self._timer.join()
            if self._fired:
                post_async_exc(self._thread_id, None)


def run_point_with_timeout(
    program: Program,
    campaign: InjectionCampaign,
    point: int,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Tuple[RunRecord, Optional[str], int, bool]:
    """Execute one injection point under an optional wall-clock budget.

    The single-point step of the executor loop: retries a timed-out run
    up to *retries* times, then marks the point crashed.  Returns
    ``(record, genuine_failure, attempts, crashed)``.  Works from any
    thread — see :class:`_TimeoutGuard` for the main-thread (SIGALRM)
    vs. worker-thread (watchdog) budget enforcement.
    """
    attempts = 0
    while True:
        attempts += 1
        guard = _TimeoutGuard(timeout) if timeout is not None else nullcontext()
        try:
            with guard:
                # Chaos seam: an armed hang fault sleeps here, inside
                # the watchdog's budget window, so "a run that stopped
                # making progress" exercises the timeout/retry path.
                _fault_site("run.exec")
                record, failure = run_injection_point(
                    program,
                    campaign,
                    point,
                    reraise=(_RunTimeout,),
                )
            return record, failure, attempts, False
        except _RunTimeout:
            # Drop the partial record the aborted run left in the log.
            runs = campaign.log.runs
            if runs and runs[-1].injection_point == point:
                runs.pop()
            if attempts > retries:
                return (
                    RunRecord(injection_point=point, crashed=True),
                    None,
                    attempts,
                    True,
                )


# ---------------------------------------------------------------------------
# The campaign kernel: plan, execute, report
# ---------------------------------------------------------------------------

#: Receives every point the executor loop handled:
#: ``(point, record, genuine_failure, attempts)``; ``attempts == 0``
#: marks a record decided without execution.
RunSink = Callable[[int, RunRecord, Optional[str], int], None]


@dataclass
class RunTally:
    """How the points an engine handled turned out."""

    executed: int = 0
    pruned: int = 0
    derived: int = 0
    crashed: int = 0
    retries: int = 0
    #: executed points run twice because a frame that skipped its
    #: before-capture raised (see :func:`run_injection_point`)
    capture_reruns: int = 0

    def add(self, record: RunRecord, attempts: int) -> None:
        """Count one point; ``attempts == 0`` marks a decided record."""
        if attempts == 0:
            if record.provenance == PROVENANCE_STATIC:
                self.pruned += 1
            else:
                self.derived += 1
            return
        self.executed += 1
        self.retries += attempts - 1
        if record.crashed:
            self.crashed += 1


@dataclass
class CampaignPlan:
    """What the plan step learned from the one profiling run.

    ``points`` is the ordered sweep (:func:`plan_points`); ``decided``
    maps the points the static/trace passes decided without execution
    to their records; ``call_exits`` is the profile's call-exit table
    (:attr:`InjectionCampaign.call_exits`), which engines that execute
    in another process install in their own campaign.  The passes
    themselves are kept for telemetry.
    """

    total_points: int
    points: List[int]
    decided: Dict[int, RunRecord]
    call_exits: List[int] = field(default_factory=list)
    pruner: Optional[StaticPruner] = None
    deriver: Optional[TraceDeriver] = None
    recorder: Optional[TraceRecorder] = None


def campaign_telemetry(
    engine: str,
    tally: RunTally,
    *,
    runs_total: int,
    wall: float,
    phases: Dict[str, float],
    plan: Optional[CampaignPlan] = None,
    state: Optional[StateStats] = None,
    cache: Optional[Mapping[str, int]] = None,
    **fields: Any,
) -> CampaignTelemetry:
    """Build the telemetry of one detection campaign, for every engine.

    Run counts come from *tally*, the pass counters from *plan*, the
    state-layer counters from *state* and the digest-cache counters
    from *cache* (``FingerprintCache.to_dict()`` form); *fields* sets
    the remaining attributes and overrides any of these.
    """
    values: Dict[str, Any] = dict(
        engine=engine,
        runs_total=runs_total,
        runs_executed=tally.executed,
        runs_pruned=tally.pruned,
        runs_derived=tally.derived,
        runs_crashed=tally.crashed,
        retries=tally.retries,
        capture_reruns=tally.capture_reruns,
        wall_seconds=wall,
        runs_per_second=(tally.executed / wall) if wall > 0 else 0.0,
        phase_seconds=phases,
    )
    if plan is not None and plan.pruner is not None:
        values.update(
            static_pure_methods=plan.pruner.pure_method_count,
            static_seconds=plan.pruner.seconds,
        )
    if plan is not None and plan.deriver is not None:
        values.update(
            trace_seconds=plan.deriver.seconds,
            trace_captures=plan.deriver.stats.captures,
            trace_capture_retries=plan.deriver.capture_retries,
        )
    if plan is not None and plan.recorder is not None:
        values["trace_writes"] = plan.recorder.recorded_writes
    if state is not None:
        values.update(
            state_captures=state.captures,
            state_fingerprints=state.fingerprints,
            state_compares=state.compares,
            state_seconds=state.seconds,
        )
    if cache is not None:
        values.update(
            fingerprint_cache_hits=cache.get("hits", 0),
            fingerprint_cache_misses=cache.get("misses", 0),
        )
    values.update(fields)
    return CampaignTelemetry(**values)


class Detector:
    """Runs the injector program once per injection point.

    Args:
        program: the (already woven) test program.
        campaign: the campaign whose wrappers instrument the program's
            classes.
        stride: sample every *stride*-th injection point instead of all of
            them.  The paper sweeps every point; a stride > 1 trades
            completeness for speed and is used by some benchmarks.
        static_prune: run the static purity pre-analysis
            (``repro.core.staticpass``) over the profiling run and
            synthesize the records of provably decided points instead of
            executing them.
        trace_derive: instrument the profiling run (``repro.core.tracepass``)
            and derive the records of every trace-decidable point from
            that one execution; only trace-undecidable points run for
            real.  Composes with ``static_prune`` on the same profiling
            run (statically decided points win the provenance tag).
        woven_specs: the campaign's woven method specs — the universe the
            static pass analyzes and the classes the trace pass puts
            write barriers on.  Optional; without it only points whose
            whole stack context is wrapper-free can be pruned.
        instrumentor: the event substrate the profiling passes observe
            through (:mod:`repro.core.instrument`).  Defaults to a
            weaving instrumentor over this campaign; callers that wove
            through an instrumentor pass it in so observation rides the
            same backend.
        fingerprint_cache: memoize frame digests between barriered
            writes when the campaign's backend supports it
            (fingerprint sweeps only; output is bit-identical either
            way, this is purely a hot-path switch).
    """

    def __init__(
        self,
        program: Program,
        campaign: InjectionCampaign,
        *,
        stride: int = 1,
        progress: Optional[Callable[[int, int], None]] = None,
        static_prune: bool = False,
        trace_derive: bool = False,
        woven_specs: Optional[List[MethodSpec]] = None,
        instrumentor: Optional[Instrumentor] = None,
        fingerprint_cache: bool = True,
    ) -> None:
        """
        Args:
            progress: optional ``(runs_done, runs_total)`` callback invoked
                after every run — long campaigns (large workloads, scale >
                1) are otherwise silent for minutes.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.program = program
        self.campaign = campaign
        self.stride = stride
        self.progress = progress
        self.static_prune = static_prune
        self.trace_derive = trace_derive
        self.woven_specs = woven_specs
        if instrumentor is None:
            # Observation-only adapter over the campaign's slots; the
            # program was woven by the caller (any factory), so this
            # instrumentor never instruments, it only dispatches events.
            instrumentor = WeavingInstrumentor(campaign)
        self.instrumentor = instrumentor
        self.fingerprint_cache = fingerprint_cache

    @classmethod
    @contextmanager
    def woven(
        cls,
        program: Any,
        *,
        capture_args: bool = True,
        state_backend: str = "graph",
        instrumentor: str = "weave",
        **options: Any,
    ) -> Iterator["Detector"]:
        """Weave *program*'s classes into a fresh campaign for the block.

        *program* is an application subject (``name``, ``classes``,
        ``exclude`` and ``__call__``, like
        :class:`~repro.experiments.programs.AppProgram`).  Yields a
        detector over the woven campaign; *options* are the detector's
        keyword arguments.  The classes are unwoven when the block exits.
        """
        campaign = InjectionCampaign(
            capture_args=capture_args, state_backend=state_backend
        )
        engine = get_instrumentor(
            instrumentor, campaign, analyzer=Analyzer(exclude=program.exclude)
        )
        with engine:
            specs = engine.instrument(program.classes)
            yield cls(
                program,
                campaign,
                woven_specs=specs,
                instrumentor=engine,
                **options,
            )

    def _woven_classes(self) -> set:
        return {spec.owner for spec in self.woven_specs or [] if spec.owner}

    def profile(self) -> int:
        """Count injection points, record call counts and the call-exit
        table (no injection)."""
        self.campaign.begin_profile()
        try:
            call_through_boundary(self.program)
        except BaseException as exc:
            raise DetectionError(
                f"program {self.program.name!r} failed during profiling: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            total = self.campaign.end_profile()
        return total

    def plan(
        self,
        *,
        injection_points: Optional[Iterable[int]] = None,
        baseline_run: bool = True,
    ) -> CampaignPlan:
        """The plan step: profile once under the passes, then plan.

        Subscribes the requested static/trace passes to the
        instrumentor's events, runs :meth:`profile`, and returns the
        sweep plan together with every point the passes decided without
        execution.  The arguments are those of :meth:`detect`.
        """
        instrumentor = self.instrumentor
        pruner = StaticPruner(self.woven_specs) if self.static_prune else None
        deriver: Optional[TraceDeriver] = None
        recorder: Optional[TraceRecorder] = None
        observer: Optional[object] = pruner
        if self.trace_derive:
            recorder = TraceRecorder()
            instrumentor.start_write_trace(recorder, self._woven_classes())
            # The deriver chains the pruner's observations internally,
            # so composed passes still share one event subscription.
            deriver = TraceDeriver(
                self.campaign, pruner=pruner, recorder=recorder
            )
            observer = deriver
        if observer is not None:
            instrumentor.subscribe(observer)
            instrumentor.attach()
        try:
            total = self.profile()
        finally:
            if instrumentor.attached:
                instrumentor.detach()
            if observer is not None:
                instrumentor.unsubscribe(observer)
            if recorder is not None:
                instrumentor.stop_write_trace(recorder)
        decided = dict(deriver.derive_map()) if deriver is not None else {}
        if pruner is not None:
            # Statically decided points win the provenance tag; the
            # records agree modulo provenance whenever both passes
            # decide a point.
            decided.update(pruner.prune_map())
        points = plan_points(
            total,
            stride=self.stride,
            injection_points=injection_points,
            baseline_run=baseline_run,
        )
        return CampaignPlan(
            total,
            points,
            decided,
            self.campaign.call_exits,
            pruner,
            deriver,
            recorder,
        )

    @contextmanager
    def digest_cache(self) -> Iterator[Optional[FingerprintCache]]:
        """Memoize frame digests across the runs inside the block.

        Active only when enabled, supported by the campaign's backend
        and not already attached; yields ``None`` otherwise.  The write
        barriers invalidate on any attribute write to a woven class, so
        a cached digest is only ever served when it is provably the
        digest the backend would recompute (bit-identical output).
        """
        classes = self._woven_classes()
        if not (
            self.fingerprint_cache
            and classes
            and self.campaign.digest_cache is None
            and getattr(self.campaign.backend, "supports_digest_cache", False)
        ):
            yield None
            return
        cache = FingerprintCache()
        cache.start(classes)
        self.campaign.digest_cache = cache
        try:
            yield cache
        finally:
            self.campaign.digest_cache = None
            cache.stop()

    def execute(
        self,
        points: Sequence[int],
        decided: Mapping[int, RunRecord],
        sink: RunSink,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        done: int = 0,
    ) -> RunTally:
        """The executor loop: handle *points* in order, feeding *sink*.

        Each point's record is its decided one when the plan has it, or
        comes from executing the point under :func:`run_point_with_timeout`.
        *done* points finished earlier (a resume) count towards the
        ``(done, total)`` progress reported after every point.
        """
        total = done + len(points)
        if self.progress is not None and done:
            self.progress(done, total)
        tally = RunTally()
        reruns = self.campaign.capture_reruns
        for point in points:
            record = decided.get(point)
            if record is None:
                record, failure, attempts, _ = run_point_with_timeout(
                    self.program,
                    self.campaign,
                    point,
                    timeout=timeout,
                    retries=retries,
                )
            else:
                failure, attempts = None, 0
            tally.add(record, attempts)
            sink(point, record, failure, attempts)
            done += 1
            if self.progress is not None:
                self.progress(done, total)
        tally.capture_reruns = self.campaign.capture_reruns - reruns
        return tally

    def detect(
        self,
        *,
        injection_points: Optional[Iterable[int]] = None,
        baseline_run: bool = True,
    ) -> DetectionResult:
        """Run the full campaign and return its result.

        Args:
            injection_points: explicit points to inject at; defaults to
                every point discovered by the profiling run (optionally
                thinned by ``stride``).
            baseline_run: additionally execute the program once with the
                threshold beyond the last point.  Nothing is injected, but
                the wrappers still capture and compare state, so methods
                that raise *genuine* exceptions are marked too (Listing 1
                intercepts all exceptions, not only injected ones).  Runs
                that abort at an early injection never reach later genuine
                failures; the baseline run observes them.
        """
        started = time.perf_counter()
        plan = self.plan(
            injection_points=injection_points, baseline_run=baseline_run
        )
        profiled = time.perf_counter()
        genuine_failures: List[str] = []

        def record_run(
            point: int, record: RunRecord, failure: Optional[str], attempts: int
        ) -> None:
            if attempts == 0:
                # Decided without execution: append the synthesized
                # record in plan order (executed runs were logged by
                # begin_run).
                self.campaign.log.runs.append(record)
            if failure is not None:
                genuine_failures.append(failure)

        with self.digest_cache() as cache:
            tally = self.execute(plan.points, plan.decided, record_run)
        finished = time.perf_counter()
        telemetry = campaign_telemetry(
            "sequential",
            tally,
            plan=plan,
            runs_total=len(plan.points),
            wall=finished - started,
            phases={"profile": profiled - started, "execute": finished - profiled},
            state=self.campaign.state_stats,
            cache=cache.to_dict() if cache is not None else None,
            state_backend=self.campaign.backend.name,
            instrumentor=self.instrumentor.name,
        )
        return DetectionResult(
            program=self.program.name,
            log=self.campaign.log,
            total_points=plan.total_points,
            runs_executed=len(plan.points),
            genuine_failures=genuine_failures,
            telemetry=telemetry,
        )


@dataclass
class CallableProgram:
    """Adapter turning a plain callable into a :class:`Program`."""

    name: str
    body: Callable[[], None]

    def __call__(self) -> None:
        self.body()
