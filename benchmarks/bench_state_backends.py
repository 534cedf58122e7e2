"""Benchmark — fingerprint vs. graph state backend on a detection sweep.

The detection phase spends most of its time in the state layer: a call
an exception can leave captures the reachable state before and after so
the injector can compare them (Definition 2).  Calls the profiling run
proves return before the injection fires skip their capture, so the
captures are those of calls on the stack when the exception fires, of
calls that raised in the profile, and of every call after the
injection.  The graph backend
materializes two full :class:`ObjectGraph` snapshots per comparison; the
fingerprint backend reduces each side to a 128-bit structural digest in
one traversal and compares 16 bytes, falling back to a graph re-run only
for points that report non-atomicity (so diagnostics — and the run log
bytes — are identical).  On top of the digests sits the per-campaign
**digest cache** (`repro.core.state.fpcache`): a receiver whose write
barrier reported no writes since its last capture reuses the stored
digest without traversing at all.

The workload is a read-heavy variant of the Figure-5 synthetic service:
the original ``step`` writes three attributes per call, so every capture
misses the cache by design — the variant interleaves each write with a
run of read-only calls, the access pattern the cache exists for (and
the common shape of getter-heavy subjects), and keeps its state vector
barrier-covered so digests are actually storable.  The program is a
request loop that survives a failed request, as a service does: every
call after an injected exception captures, and those captures are the
traffic the digest cache serves.  The object size is
the knob the paper turns in Figure 5, and it is exactly the knob that
decides how much a skipped traversal is worth.

Each grid point runs the *same* sweep three ways — graph, fingerprint
with the digest cache disabled, fingerprint with the cache on — verifies
all three results are bit-identical (the refinement + invalidation
guarantees), and reports two speedup trajectories over object size:
fingerprint-over-graph and cache-over-no-cache.  Measurements go to
``BENCH_state_backends.json``.

Modes:

* full (default): sizes 64/256/1024; the aggregate sweep must show
  ≥ 2× fingerprint-over-graph and ≥ 1.2× cache-over-no-cache.
* smoke (``REPRO_BENCH_SMOKE=1``, used by ``make bench-state``): one
  tiny size that exercises all three columns and the equivalence
  assertions in seconds; the speedup bars are not enforced because
  fixed per-run costs dominate tiny states.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import run_app_campaign
from repro.experiments.programs import AppProgram

from conftest import emit

#: Smoke mode: tiny state budget for CI sanity runs (make bench-state).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Where the machine-readable measurements land (consumed by CI logs and
#: docs/BENCHMARKS.md).
REPORT_PATH = os.environ.get(
    "REPRO_BENCH_STATE_OUT", "BENCH_state_backends.json"
)

#: (object size, write calls, reads per write) per measured point.
FULL_GRID = ((64, 10, 4), (256, 10, 4), (1024, 8, 4))
SMOKE_GRID = ((16, 4, 2),)

#: Full-mode acceptance floors on the aggregate sweep.
MIN_FINGERPRINT_SPEEDUP = 2.0
MIN_CACHE_SPEEDUP = 1.2


class ReadHeavyService:
    """Figure-5 service shape with read-mostly traffic.

    ``step`` is the writer (three attribute writes per call, one into
    a size-*n* state vector); ``total`` and ``peek`` read without
    writing, so consecutive calls leave the receiver digest valid in
    the cache.  The state vector is a tuple rather than fig5's list:
    tuples are immutable shells, so every mutation of the reachable
    state is an attribute write on the (barriered) receiver — the
    coverage property the digest cache requires to store an entry at
    all, while the capture traversal still scales with ``size``.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.counter = 0
        self.accumulator = 0
        self.state = (0,) * size

    def step(self, value: int) -> int:
        self.counter += 1
        self.accumulator += value
        index = value % self.size
        self.state = (
            self.state[:index] + (self.counter,) + self.state[index + 1:]
        )
        return self.accumulator

    def total(self) -> int:
        return self.accumulator

    def peek(self, index: int) -> int:
        return self.state[index % self.size]


def _program(size: int, writes: int, reads: int) -> AppProgram:
    """A detection subject: *writes* requests, each one write followed by
    *reads* pairs of read-only calls; a failed request is dropped and the
    loop serves the next one."""

    def body() -> None:
        service = ReadHeavyService(size)
        for index in range(writes):
            try:
                service.step(index)
                for offset in range(reads):
                    service.peek(index + offset)
                    service.total()
            except Exception:
                continue

    return AppProgram(
        name=f"ReadHeavyService{size}",
        language="synthetic",
        classes=[ReadHeavyService],
        body=body,
    )


def _timed_sweep(program: AppProgram, backend: str, cache: bool):
    started = time.perf_counter()
    outcome = run_app_campaign(
        program, state_backend=backend, fingerprint_cache=cache
    )
    return time.perf_counter() - started, outcome


def bench_state_backends(benchmark):
    grid = SMOKE_GRID if SMOKE else FULL_GRID
    rows = []
    graph_total = uncached_total = cached_total = 0.0
    for size, writes, reads in grid:
        program = _program(size, writes, reads)
        graph_seconds, graph_outcome = _timed_sweep(program, "graph", True)
        uncached_seconds, uncached_outcome = _timed_sweep(
            program, "fingerprint", False
        )
        cached_seconds, cached_outcome = _timed_sweep(
            program, "fingerprint", True
        )

        # The refinement + invalidation guarantees: identical run logs,
        # bit for bit, across backend and cache mode.
        reference = graph_outcome.detection.log.to_json()
        assert uncached_outcome.detection.log.to_json() == reference, (
            f"fingerprint backend diverged from graph at size {size}"
        )
        assert cached_outcome.detection.log.to_json() == reference, (
            f"digest cache diverged from uncached sweep at size {size}"
        )
        assert (
            graph_outcome.classification.to_json()
            == uncached_outcome.classification.to_json()
            == cached_outcome.classification.to_json()
        )

        cached_telemetry = cached_outcome.detection.telemetry
        assert cached_telemetry.fingerprint_cache_hits > 0, (
            f"read-heavy workload produced no cache hits at size {size}"
        )
        assert uncached_outcome.detection.telemetry.fingerprint_cache_hits == 0

        graph_total += graph_seconds
        uncached_total += uncached_seconds
        cached_total += cached_seconds
        rows.append(
            {
                "size": size,
                "write_calls": writes,
                "reads_per_write": reads,
                "points": graph_outcome.detection.total_points,
                "graph_seconds": graph_seconds,
                "fingerprint_uncached_seconds": uncached_seconds,
                "fingerprint_cached_seconds": cached_seconds,
                "fingerprint_speedup": graph_seconds / cached_seconds,
                "cache_speedup": uncached_seconds / cached_seconds,
                "cache_hits": cached_telemetry.fingerprint_cache_hits,
                "cache_misses": cached_telemetry.fingerprint_cache_misses,
                "fingerprints": cached_telemetry.state_fingerprints,
                "refinement_captures": cached_telemetry.state_captures,
            }
        )

    fingerprint_speedup = graph_total / cached_total
    cache_speedup = uncached_total / cached_total
    report = {
        "workload": "fig5-read-heavy-service",
        "smoke": SMOKE,
        "rows": rows,
        "graph_seconds": graph_total,
        "fingerprint_uncached_seconds": uncached_total,
        "fingerprint_cached_seconds": cached_total,
        "fingerprint_speedup": fingerprint_speedup,
        "cache_speedup": cache_speedup,
    }
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    lines = [
        f"size={row['size']:5d}: graph {row['graph_seconds']:.3f}s   "
        f"fp-uncached {row['fingerprint_uncached_seconds']:.3f}s   "
        f"fp-cached {row['fingerprint_cached_seconds']:.3f}s   "
        f"fp-speedup {row['fingerprint_speedup']:.2f}x   "
        f"cache-speedup {row['cache_speedup']:.2f}x   "
        f"(hits={row['cache_hits']}, misses={row['cache_misses']})"
        for row in rows
    ]
    lines.append(
        f"aggregate: graph {graph_total:.3f}s   "
        f"fp-uncached {uncached_total:.3f}s   "
        f"fp-cached {cached_total:.3f}s   "
        f"fp-speedup {fingerprint_speedup:.2f}x   "
        f"cache-speedup {cache_speedup:.2f}x"
    )
    lines.append(f"results bit-identical: yes   report: {REPORT_PATH}")
    emit(
        "State backends: detection sweep, graph vs fingerprint "
        "(cached and uncached)",
        "\n".join(lines),
    )

    benchmark.extra_info["fingerprint_speedup"] = fingerprint_speedup
    benchmark.extra_info["cache_speedup"] = cache_speedup
    benchmark.extra_info["graph_seconds"] = graph_total
    benchmark.extra_info["fingerprint_cached_seconds"] = cached_total
    benchmark.extra_info["report_path"] = REPORT_PATH

    if not SMOKE:
        assert fingerprint_speedup >= MIN_FINGERPRINT_SPEEDUP, (
            f"expected the fingerprint backend to sweep >= "
            f"{MIN_FINGERPRINT_SPEEDUP}x faster than graph, "
            f"measured {fingerprint_speedup:.2f}x"
        )
        assert cache_speedup >= MIN_CACHE_SPEEDUP, (
            f"expected the digest cache to sweep >= {MIN_CACHE_SPEEDUP}x "
            f"faster than uncached digests, measured {cache_speedup:.2f}x"
        )

    # the benchmarked unit: one small end-to-end sweep on the fast path
    benchmark.pedantic(
        lambda: run_app_campaign(
            _program(16, 4, 2), state_backend="fingerprint"
        ),
        rounds=3,
        iterations=1,
    )
