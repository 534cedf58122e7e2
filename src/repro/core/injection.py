"""Injection wrappers and campaign state (Listing 1, Steps 1 and 3).

The paper injects exceptions with a global counter ``Point`` that is
incremented at every potential injection point; when it equals the preset
threshold ``InjectionPoint`` the corresponding exception is thrown.  The
wrapper otherwise deep-copies the receiver's object graph, calls the real
method, and — if an exception propagates out — compares the graphs and
marks the method atomic or non-atomic for this call before re-throwing.

A before-copy is only ever compared when an exception leaves the call,
so the wrapper skips it where the profiling run proves none can: the
profile records, per wrapped call in call order, the counter value at
the call's exit (:data:`RAISED` when the call raised).  Before the
threshold fires, a detection run retraces the profile call for call, so
call *k* with ``exits[k] < InjectionPoint`` returns normally before the
injection — unless the program is not deterministic, in which case an
exception leaving such a frame flags the run
(:attr:`InjectionCampaign.capture_missed`) and the detector re-executes it
with every capture taken.

Here the counter pair lives in an :class:`InjectionCampaign` object rather
than in actual globals, so several campaigns can coexist (e.g. in tests)
without interfering.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .analyzer import MethodSpec
from .exceptions import InjectionAbort, make_injected
from .runlog import ATOMIC, NONATOMIC, MethodKey, RunLog, RunRecord
from .state import (
    GraphDifference,
    LiveFrame,
    StateBackend,
    StateStats,
    get_backend,
)
from .state.introspect import is_opaque, is_scalar

__all__ = [
    "INJ_WRAPPER_CODE",
    "RAISED",
    "InjectionCampaign",
    "make_injection_wrapper",
]

#: The call-exit table's entry for a profiled call that raised: above
#: every threshold, so such a call always captures its before-state.
RAISED = sys.maxsize


class InjectionCampaign:
    """Shared state of one detection campaign.

    A campaign owns the ``Point`` counter, the ``InjectionPoint``
    threshold, and the run log.  The threshold semantics follow the paper
    exactly: the counter is incremented at every potential injection point
    and the exception fires when ``Point == InjectionPoint``; a threshold
    of 0 never fires (the counter only increases), which is how the
    profiling run counts the total number of injection points.

    Modes:

    * ``enabled=False`` — wrappers call through without any bookkeeping.
    * profiling (``injection_point == 0``) — wrappers count calls and
      injection points, record the call-exit table and skip state
      capture.
    * detecting (``injection_point > 0``) — Listing-1 behavior, with
      the before-capture skipped where the call-exit table proves the
      call returns before the threshold fires.
    """

    def __init__(
        self,
        *,
        capture_args: bool = True,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_graph_nodes: Optional[int] = None,
        state_backend: Union[str, StateBackend, None] = None,
    ) -> None:
        self.point = 0
        self.injection_point = 0
        self.log = RunLog()
        self.enabled = False
        self.capture_args = capture_args
        self.ignore_attrs = ignore_attrs
        #: Optional node budget for state captures.  A capture that
        #: exceeds it raises CaptureLimitError *instead of* producing a
        #: partial graph, so no truncated-graph verdict can ever be
        #: recorded in the run log; the run surfaces as a genuine failure.
        #: A call that skips its before-capture (:attr:`call_exits`) is
        #: not measured against it.
        self.max_graph_nodes = max_graph_nodes
        #: The state backend deciding how before/after summaries are
        #: materialized and compared.  Defaults to the graph backend (the
        #: reference semantics); the fingerprint backend answers the same
        #: question from a 128-bit digest compare.
        self.backend = get_backend(state_backend)
        #: Where the campaign's state-machinery time goes (telemetry).
        self.state_stats = StateStats()
        #: Profiling-only hook: called as ``observer(spec, point)`` at
        #: every wrapper entry with the base value of the point counter
        #: (the entry's repertoire occupies the next ``len(exceptions)``
        #: points).  The static pruning pass attaches here to pair each
        #: injection point with its live call stack.
        self.point_observer: Optional[Callable[[MethodSpec, int], None]] = None
        #: Profiling-only hook: called as ``escape_observer(spec)`` when a
        #: wrapped call exits via an exception during profiling.  A genuine
        #: failure leaves a mark in every detection run that executes past
        #: it, which only execution can produce — the pruning pass uses
        #: this to stop synthesizing records for later points.
        self.escape_observer: Optional[Callable[[MethodSpec], None]] = None
        #: Profiling-only hook: called as ``exit_observer(spec)`` when a
        #: wrapped call returns normally during profiling.  Together with
        #: the two hooks above this is the full event surface the
        #: instrumentor protocol (:mod:`repro.core.instrument`) adapts.
        self.exit_observer: Optional[Callable[[MethodSpec], None]] = None
        #: Optional per-campaign digest cache
        #: (:class:`repro.core.state.FingerprintCache`).  Installed by the
        #: engines for fingerprint-backend sweeps; ``capture_state``
        #: consults it only while the active backend supports digests, so
        #: graph-backend refinement re-runs bypass it.
        self.digest_cache = None
        #: The call-exit table of the last profiling run: the point
        #: counter at the exit of each wrapped call, in call order, or
        #: :data:`RAISED`.  Empty means every call captures.
        self.call_exits: List[int] = []
        #: Wrapped calls entered so far in the current detection run
        #: (the index into :attr:`call_exits`).
        self.calls = 0
        #: Set when an exception other than :class:`InjectionAbort` left
        #: a frame that skipped its before-capture: the run's record
        #: misses a verdict and must be re-executed with the table empty.
        self.capture_missed = False
        #: Runs re-executed because :attr:`capture_missed` was set.
        self.capture_reruns = 0
        self.current_run: Optional[RunRecord] = None
        self._suspended = 0
        self._owner_thread: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    def _check_thread(self) -> None:
        """Campaigns are single-threaded (paper Section 4.4); a counter
        shared across threads would make runs non-reproducible, so the
        violation is loud instead of silent."""
        current = threading.get_ident()
        if self._owner_thread is None:
            self._owner_thread = current
        elif self._owner_thread != current:
            raise RuntimeError(
                "InjectionCampaign used from multiple threads; the "
                "detection methodology is single-threaded (paper §4.4)"
            )

    def begin_profile(self) -> None:
        """Start a profiling run: count points and calls, never inject."""
        self._check_thread()
        self.point = 0
        self.injection_point = 0
        self.call_exits = []
        self.enabled = True
        self.current_run = None

    def end_profile(self) -> int:
        """Finish profiling; return the total number of injection points."""
        self.enabled = False
        return self.point

    def begin_run(self, injection_point: int) -> RunRecord:
        """Start one injection run with the given threshold."""
        if injection_point <= 0:
            raise ValueError("injection_point must be >= 1")
        self._check_thread()
        self.point = 0
        self.injection_point = injection_point
        self.calls = 0
        self.capture_missed = False
        self.enabled = True
        self.current_run = self.log.begin_run(injection_point)
        return self.current_run

    def end_run(self, *, completed: bool, escaped: bool) -> None:
        if self.current_run is not None:
            self.current_run.completed = completed
            self.current_run.escaped = escaped
        self.enabled = False
        self.current_run = None

    # -- wrapper services ------------------------------------------------

    @property
    def detecting(self) -> bool:
        """True while a real injection run (not profiling) is active."""
        return self.enabled and self.injection_point > 0

    @property
    def suspended(self) -> bool:
        return self._suspended > 0

    def suspend(self) -> "_Suspension":
        """Temporarily make wrappers transparent.

        Used while the campaign itself executes application code (state
        capture, comparison) so the observer does not perturb the counter.
        """
        return _Suspension(self)

    def note_call(self, method: MethodKey) -> None:
        # Call counts feed the call-weighted statistics (Figures 2b/3b);
        # they are taken from the profiling run only so that the repeated
        # detection executions do not inflate them.
        if self.injection_point == 0:
            self.log.record_call(method)

    def note_injection(self, method: MethodKey, exc: BaseException) -> None:
        if self.current_run is not None:
            self.current_run.injected_method = method
            self.current_run.injected_exception = type(exc).__name__

    def mark(
        self, method: MethodKey, verdict: str, difference: Optional[str] = None
    ) -> None:
        if self.current_run is not None:
            self.current_run.add_mark(method, verdict, difference)

    def capture_state(
        self, spec: MethodSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> Any:
        """Summarize the receiver and mutable arguments of a call.

        Mirrors Listing 1: the deep copy covers ``this`` plus all
        arguments passed as non-constant references.  In Python every
        argument is a reference, so we include each argument that holds
        mutable state.  The summary type is backend-specific (a full
        :class:`~repro.core.state.ObjectGraph` or a digest); callers only
        ever hand it back to :meth:`compare_state`.
        """
        with self.suspend():
            return self._summarize(self.capture_roots(spec, args, kwargs))

    def compare_state(
        self,
        before: Any,
        spec: MethodSpec,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> Optional[GraphDifference]:
        """First difference between *before* and the call's state now.

        A backend with graph semantics compares the before-graph with
        the live objects (:class:`~repro.core.state.LiveFrame`), as
        Listing 1 compares its copy with the graph observed when the
        exception propagates; a digest backend summarizes the state now
        and compares digests.
        """
        with self.suspend():
            roots = self.capture_roots(spec, args, kwargs)
            if not self.backend.lossy_diff:
                now: Any = LiveFrame(
                    roots,
                    ignore_attrs=self.ignore_attrs,
                    max_nodes=self.max_graph_nodes,
                )
            else:
                now = self._summarize(roots)
            return self.backend.diff(before, now, stats=self.state_stats)

    def _summarize(self, roots: List[Tuple[Any, Any]]) -> Any:
        cache = self.digest_cache
        if cache is not None and getattr(
            self.backend, "supports_digest_cache", False
        ):
            return cache.capture(
                self.backend,
                roots,
                ignore_attrs=self.ignore_attrs,
                max_nodes=self.max_graph_nodes,
                stats=self.state_stats,
            )
        return self.backend.capture_frame(
            roots,
            ignore_attrs=self.ignore_attrs,
            max_nodes=self.max_graph_nodes,
            stats=self.state_stats,
        )

    def capture_roots(
        self, spec: MethodSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> List[Tuple[Any, Any]]:
        """The labeled roots a state capture of this call starts from:
        the receiver plus (under ``capture_args``) every non-scalar,
        non-opaque argument.  Public so the trace pass captures exactly
        the same frame a dynamic run would."""
        roots: List[Tuple[Any, Any]] = []
        positional = args
        if spec.has_receiver and args:
            roots.append(("self", args[0]))
            positional = args[1:]
        if self.capture_args:
            for index, value in enumerate(positional):
                if not is_scalar(value) and not is_opaque(value):
                    roots.append((("arg", index), value))
            for name in sorted(kwargs):
                value = kwargs[name]
                if not is_scalar(value) and not is_opaque(value):
                    roots.append((("kwarg", name), value))
        return roots


class _Suspension:
    def __init__(self, campaign: InjectionCampaign) -> None:
        self._campaign = campaign

    def __enter__(self) -> None:
        self._campaign._suspended += 1

    def __exit__(self, *exc_info: object) -> None:
        self._campaign._suspended -= 1


def make_injection_wrapper(
    spec: MethodSpec, campaign: InjectionCampaign
) -> Callable:
    """Build the injection wrapper of Listing 1 for one method.

    The wrapper (a) walks the method's injection repertoire, incrementing
    the campaign counter once per potential injection point and raising
    when the threshold is hit; (b) snapshots the object graph, unless the
    call-exit table proves the call returns before the threshold fires;
    (c) calls the original method; and (d) on exception, compares the
    snapshot with the state now, marks the method, and re-throws.
    """
    original = spec.func
    exceptions = spec.exceptions

    @functools.wraps(original)
    def inj_wrapper(*args: Any, **kwargs: Any) -> Any:
        if not campaign.enabled or campaign.suspended:
            return original(*args, **kwargs)
        campaign.note_call(spec.key)
        observer = campaign.point_observer
        if observer is not None and campaign.injection_point == 0:
            observer(spec, campaign.point)
        for exc_type in exceptions:
            campaign.point += 1
            if campaign.point == campaign.injection_point:
                exc = make_injected(
                    exc_type, method=spec.key, injection_point=campaign.point
                )
                campaign.note_injection(spec.key, exc)
                try:
                    raise exc
                finally:
                    # The traceback holds this frame: drop the frame's
                    # reference so the pair is not a reference cycle.
                    del exc
        if not campaign.detecting:
            escape = campaign.escape_observer
            on_exit = campaign.exit_observer
            exits = campaign.call_exits
            call = len(exits)
            exits.append(RAISED)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                if escape is not None:
                    escape(spec)
                raise
            exits[call] = campaign.point
            if on_exit is not None:
                on_exit(spec)
            return result
        call = campaign.calls
        campaign.calls = call + 1
        threshold = campaign.injection_point
        exits = campaign.call_exits
        # The profile returned from this call before the counter reached
        # the threshold: no exception leaves it, so a before-state would
        # never be compared.
        skipped = (
            campaign.point < threshold
            and call < len(exits)
            and exits[call] < threshold
        )
        before = None
        if not skipped:
            before = campaign.capture_state(spec, args, kwargs)
        try:
            return original(*args, **kwargs)
        except InjectionAbort:
            raise
        except BaseException:
            if skipped:
                campaign.capture_missed = True
                raise
            difference = campaign.compare_state(before, spec, args, kwargs)
            if difference is None:
                campaign.mark(spec.key, ATOMIC)
            else:
                campaign.mark(spec.key, NONATOMIC, str(difference))
            raise

    inj_wrapper._repro_wrapped = original  # type: ignore[attr-defined]
    inj_wrapper._repro_spec = spec  # type: ignore[attr-defined]
    inj_wrapper._repro_kind = "injection"  # type: ignore[attr-defined]
    return inj_wrapper


#: Code object shared by every injection wrapper — the static pruning
#: pass recognizes wrapper frames in a stack walk by identity against
#: this constant (closures share one code object across instantiations).
INJ_WRAPPER_CODE = next(
    const
    for const in make_injection_wrapper.__code__.co_consts
    if isinstance(const, types.CodeType) and const.co_name == "inj_wrapper"
)
