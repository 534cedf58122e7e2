"""PEP 669 instrumentor: observation through ``sys.monitoring``.

Python 3.12's ``sys.monitoring`` delivers per-code-object events from
inside the interpreter: we arm *local* events on the shared injection
wrapper code object (``INJ_WRAPPER_CODE``), so wrapper entries,
returns, and unwinds reach us without the campaign's observer slots
ever being set — the wrapper's profiling path calls no observer, and
uninstrumented code runs at full speed because no global events are
armed at all.

The callbacks replicate the wrapper's own guards (campaign enabled,
not suspended, profiling i.e. ``injection_point == 0``) so observers
see exactly the event stream the weaving backend produces; the
conformance suite asserts the resulting campaign outputs are
bit-identical.  On top of that, this backend delivers *exact* line
events (``exact_lines``) for the instrumented method bodies — the
events the transparency index otherwise approximates from suspended
``f_lineno`` probes — to any observer with ``wants_line_events``.

Below 3.12 the class is importable but refuses construction with
:class:`~repro.core.instrument.protocol.InstrumentorUnavailable`.
"""

from __future__ import annotations

import sys
from types import CodeType
from typing import TYPE_CHECKING, List, Optional

from ..injection import INJ_WRAPPER_CODE
from .protocol import InstrumentorUnavailable
from .weaving import WeaverBacked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analyzer import Analyzer
    from ..injection import InjectionCampaign

__all__ = ["MONITORING_AVAILABLE", "MonitoringInstrumentor"]

#: True when this interpreter implements PEP 669.
MONITORING_AVAILABLE = hasattr(sys, "monitoring")

#: Identifier registered with ``sys.monitoring.use_tool_id``.
_TOOL_NAME = "repro-instrument"


class MonitoringInstrumentor(WeaverBacked):
    """Observation via ``sys.monitoring`` local events (Python 3.12+)."""

    name = "monitoring"
    exact_lines = True

    def __init__(
        self,
        campaign: "InjectionCampaign",
        *,
        analyzer: Optional["Analyzer"] = None,
    ) -> None:
        if not MONITORING_AVAILABLE:
            raise InstrumentorUnavailable(
                "the 'monitoring' instrumentor requires sys.monitoring "
                "(PEP 669, Python 3.12+) and this is Python "
                "%d.%d — use the 'weave' instrumentor here"
                % sys.version_info[:2]
            )
        super().__init__(campaign, analyzer=analyzer)
        self._tool_id: Optional[int] = None
        self._line_codes: List[CodeType] = []

    # -- event delivery ------------------------------------------------

    def _acquire_tool_id(self) -> int:
        monitoring = sys.monitoring
        for tool_id in range(6):
            try:
                monitoring.use_tool_id(tool_id, _TOOL_NAME)
            except ValueError:
                continue
            return tool_id
        raise InstrumentorUnavailable(
            "all sys.monitoring tool ids are in use"
        )

    def attach(self) -> None:
        if self._attached:
            return
        monitoring = sys.monitoring
        events = monitoring.events
        tool_id = self._acquire_tool_id()
        self._tool_id = tool_id
        monitoring.register_callback(
            tool_id, events.PY_START, self._on_py_start
        )
        monitoring.register_callback(
            tool_id, events.PY_RETURN, self._on_py_return
        )
        monitoring.register_callback(
            tool_id, events.PY_UNWIND, self._on_py_unwind
        )
        monitoring.set_local_events(
            tool_id,
            INJ_WRAPPER_CODE,
            events.PY_START | events.PY_RETURN | events.PY_UNWIND,
        )
        if any(
            observer.wants_line_events for observer in self._observers
        ):
            monitoring.register_callback(
                tool_id, events.LINE, self._on_line
            )
            for spec in self.woven_specs:
                code = spec.func.__code__
                monitoring.set_local_events(tool_id, code, events.LINE)
                self._line_codes.append(code)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        monitoring = sys.monitoring
        events = monitoring.events
        tool_id = self._tool_id
        monitoring.set_local_events(
            tool_id, INJ_WRAPPER_CODE, events.NO_EVENTS
        )
        for code in self._line_codes:
            monitoring.set_local_events(tool_id, code, events.NO_EVENTS)
        self._line_codes = []
        for event in (
            events.PY_START,
            events.PY_RETURN,
            events.PY_UNWIND,
            events.LINE,
        ):
            monitoring.register_callback(tool_id, event, None)
        monitoring.free_tool_id(tool_id)
        self._tool_id = None
        self._attached = False

    # -- callbacks -----------------------------------------------------
    #
    # Each callback runs synchronously in the monitored thread with the
    # wrapper frame as its caller; sys._getframe(1) recovers it and
    # f_locals carry the closure-visible spec/args/kwargs the observers
    # read — the same frame the weaving dispatchers hand over.

    def _profiling(self) -> bool:
        campaign = self.campaign
        return (
            campaign.enabled
            and not campaign.suspended
            and campaign.injection_point == 0
        )

    def _on_py_start(self, code: CodeType, instruction_offset: int):
        if not self._profiling():
            return None
        frame = sys._getframe(1)
        try:
            spec = frame.f_locals.get("spec")
            if spec is None:
                return None
            base_point = self.campaign.point
            for observer in self._observers:
                observer.on_call_enter(spec, base_point, frame)
        finally:
            del frame
        return None

    def _on_py_return(
        self, code: CodeType, instruction_offset: int, retval: object
    ):
        if not self._profiling():
            return None
        frame = sys._getframe(1)
        try:
            spec = frame.f_locals.get("spec")
            if spec is None:
                return None
            for observer in self._observers:
                observer.on_call_exit(spec, frame)
        finally:
            del frame
        return None

    def _on_py_unwind(
        self, code: CodeType, instruction_offset: int, exception: BaseException
    ):
        if not self._profiling():
            return None
        frame = sys._getframe(1)
        try:
            spec = frame.f_locals.get("spec")
            if spec is None:
                return None
            for observer in self._observers:
                observer.on_escape(spec, frame)
        finally:
            del frame
        return None

    def _on_line(self, code: CodeType, lineno: int):
        if not self._profiling():
            return None
        for observer in self._observers:
            if observer.wants_line_events:
                observer.on_line(code, lineno)
        return None
