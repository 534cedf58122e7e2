"""Outside-in span tracing of the program's public layer functions.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers, keeps every span (name, start, end, parent) in memory up to a
cap, and aggregates count, total time and *self* time per span name --
a span's duration minus the part its child spans cover.  Nothing in the
program changes; :meth:`Tracer.uninstall` puts every original back.

Parallel-engine workers are forked from the traced process, so they
inherit the wrappers.  Each worker starts with empty aggregates and
hands them back through a file per pool task (see
:meth:`Tracer.trace_pool_tasks`), which :meth:`Tracer.collect_workers`
merges into the parent's totals.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept verbatim; later spans still count in the aggregates.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, worker_dir: Optional[str] = None) -> None:
        self.worker_dir = worker_dir
        #: name -> [count, total seconds, self seconds]
        self.aggregates: Dict[str, List[float]] = {}
        #: counter name -> value, fed by ``count=`` hooks
        self.counters: Dict[str, float] = {}
        #: [name, start, end, parent index] -- end is None while open
        self.spans: List[list] = []
        self.dropped = 0
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._reset_in_child)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _reset_in_child(self) -> None:
        self.aggregates = {}
        self.counters = {}
        self.spans = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else -1
        start = time.perf_counter()
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        else:
            self.dropped += 1
        frame = [name, start, 0.0, index]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        with self._lock:
            agg = self.aggregates.get(frame[0])
            if agg is None:
                agg = self.aggregates[frame[0]] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def span(self, name: str) -> "_Span":
        """Context manager for a benchmark-side span."""
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished leaf span measured elsewhere (client timings)."""
        with self._lock:
            if len(self.spans) < SPAN_CAP:
                self.spans.append([name, start, end, -1])
            else:
                self.dropped += 1
            agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- installing wrappers ----------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        nested_name: Optional[str] = None,
        count: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span *name*.

        Args:
            nested_name: span name to use instead when the caller is
                itself a *name* span (e.g. a refinement re-run inside
                an injection run).
            count: maps the call's result to an amount added to the
                counter ``<name>.count``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name
            if nested_name is not None and tracer.current() == name:
                label = nested_name
            frame = tracer.begin(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            if count is not None:
                tracer.add(f"{label}.count", count(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_methods(self, base: type, attrs, name: str, **options) -> None:
        """Wrap each of *attrs* that *base* or a subclass defines itself."""
        for cls in _class_tree(base):
            for attr in attrs:
                if attr in cls.__dict__:
                    self.wrap(cls, attr, name, **options)

    def trace_pool_tasks(self, module: Any, attr: str) -> None:
        """Wrap a pool task function so workers report their aggregates.

        The wrapper keeps the task's module and qualified name, so the
        pool still pickles it by reference and forked workers resolve
        it to this wrapper.  After each task the worker writes its
        aggregates to ``worker_dir`` and starts afresh.
        """
        original = getattr(module, attr)
        tracer = self
        parent = os.getpid()

        @functools.wraps(original)
        def task(*args, **kwargs):
            frame = tracer.begin("pool.chunk")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(frame)
                if os.getpid() != parent:
                    tracer._flush_worker()

        setattr(module, attr, task)
        self._patches.append((module, attr, original))

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            return
        with self._lock:
            payload = {"aggregates": self.aggregates, "counters": self.counters}
            self.aggregates = {}
            self.counters = {}
        name = f"w{os.getpid()}-{time.perf_counter_ns()}.json"
        path = os.path.join(self.worker_dir, name)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def collect_workers(self) -> int:
        """Merge and delete the aggregate files workers left; returns count."""
        if self.worker_dir is None:
            return 0
        paths = sorted(glob.glob(os.path.join(self.worker_dir, "w*.json")))
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            os.remove(path)
            with self._lock:
                for key, (count, total, own) in payload["aggregates"].items():
                    agg = self.aggregates.setdefault(key, [0, 0.0, 0.0])
                    agg[0] += count
                    agg[1] += total
                    agg[2] += own
                for key, value in payload["counters"].items():
                    self.counters[key] = self.counters.get(key, 0) + value
        return len(paths)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.aggregates.get(name, (0, 0.0, 0.0))[0])

    def self_seconds(self, name: str) -> float:
        return float(self.aggregates.get(name, (0, 0.0, 0.0))[2])

    def total_seconds(self, name: str) -> float:
        return float(self.aggregates.get(name, (0, 0.0, 0.0))[1])

    def write(self, path: str) -> None:
        """Write spans as Chrome trace events plus the aggregates."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(((end if end is not None else start) - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "aggregates": self.aggregates,
                    "counters": self.counters,
                    "dropped_spans": self.dropped,
                },
                handle,
            )


def _class_tree(base: type) -> List[type]:
    """*base* and all its subclasses, depth first."""
    found = [base]
    for sub in base.__subclasses__():
        found.extend(_class_tree(sub))
    return found


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._frame)
