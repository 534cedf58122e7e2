"""The two Table-1 workloads: the paper's full sweep and the derived one.

``table1-sweep`` runs all 16 applications through ``run_app_campaign``
with default settings (sequential engine, graph backend, every point
executed).  ``table1-derived`` runs the same applications with the
fingerprint backend, the static and trace passes, and the parallel
engine with two workers and a journal, so most points are decided
without execution.  The seed fixes the order the applications run in.
Every campaign's verdict is compared with the committed references.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .common import out_dir, program_env
from .hostspeed import BURST, HostSpeed
from .tracer import Tracer
from .verdicts import Table1Reference, digest_log

#: The application the warm-up campaign runs (the smallest sweep).
WARMUP_APP = "LLMap"


@dataclass
class Sweep:
    #: raw wall seconds of the campaigns, host-speed probes excluded
    wall: float = 0.0
    #: the same in reference-host seconds (see :mod:`perfbench.hostspeed`)
    norm_wall: float = 0.0
    #: seconds between consecutive progress callbacks, raw
    point_gaps: List[float] = field(default_factory=list)
    #: the gaps in reference-host seconds
    norm_gaps: List[float] = field(default_factory=list)
    plan_points: int = 0
    problems: List[str] = field(default_factory=list)
    outcomes: list = field(default_factory=list)


def _config(derived: bool, journal_dir: str, name: str) -> Dict[str, object]:
    if not derived:
        return {}
    return {
        "state_backend": "fingerprint",
        "static_prune": True,
        "trace_derive": True,
        "workers": 2,
        "journal": os.path.join(journal_dir, f"{name}.jsonl"),
    }


def run_sweep(
    programs, reference: Table1Reference, host: HostSpeed, *, derived: bool,
    journal_dir: str, keep_outcomes: bool = False, tracer: Optional[Tracer] = None,
) -> Sweep:
    """One campaign per program; timed, then verified outside the timing.

    The host's speed is probed before every campaign and after the last.
    The sequential engine is also probed between points, from the
    progress callback; the parallel engine is not, since its workers
    still run while the parent handles a callback.
    """
    from repro.experiments.campaign import run_app_campaign

    result = Sweep()
    checks = []
    begin = time.perf_counter()
    # (start, end, probe seconds inside, point gaps) of each campaign
    campaigns = []
    for program in programs:
        gaps: List[float] = []
        # last callback's end and probe seconds inside this campaign
        state = [None, 0.0]

        def progress(done: int, total: int, state=state, gaps=gaps) -> None:
            now = time.perf_counter()
            if state[0] is not None:
                gaps.append(now - state[0])
            if not derived:
                state[1] += host.poll()
            state[0] = time.perf_counter()

        config = _config(derived, journal_dir, program.name)
        host.probe(BURST)
        started = time.perf_counter()
        if tracer is None:
            outcome = run_app_campaign(program, progress=progress, **config)
        else:
            with tracer.span("campaign"):
                outcome = run_app_campaign(program, progress=progress, **config)
        finished = time.perf_counter()
        campaigns.append((started, finished, state[1], gaps))
        result.plan_points += outcome.detection.runs_executed
        checks.append(
            (
                outcome.name,
                outcome.classification.to_json(),
                digest_log(outcome.detection.log, outcome.detection.runs_executed),
            )
        )
        if keep_outcomes:
            result.outcomes.append(outcome)
        del outcome
    end = time.perf_counter()
    host.probe()
    for started, finished, probing, gaps in campaigns:
        # The sequential engine is probed inside each campaign, so each
        # is scaled by the host's speed while it ran: an app's slowest
        # points come in one burst, which the sweep's mean would not
        # match.  The parallel engine's campaigns have probes only
        # around them, too few for one campaign, so the sweep's mean.
        if derived:
            slowdown = host.slowdown(begin, end)
        else:
            slowdown = host.slowdown(started, finished)
        result.wall += finished - started - probing
        result.norm_wall += (finished - started - probing) / slowdown
        result.point_gaps.extend(gaps)
        result.norm_gaps.extend(gap / slowdown for gap in gaps)
    for name, classification_json, digests in checks:
        result.problems.extend(
            reference.check(
                name, classification_json, digests, modulo_provenance=derived
            )
        )
    return result


def time_setup(host: HostSpeed, repeats: int = 7) -> Tuple[List[float], List[float]]:
    """Start-up of the program's command line: import, registry, exit.

    Returns the raw and the reference-host seconds of each start-up.
    """
    spans = []
    for _ in range(repeats):
        host.probe(BURST)
        started = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the measured start-up time
        subprocess.run(
            [sys.executable, "-m", "repro", "apps"],
            env=program_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        spans.append((started, time.perf_counter()))
    host.probe(BURST)
    return [b - a for a, b in spans], host.normalise(spans)


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public functions of every layer a campaign passes through."""
    from repro.core import detector as detector_mod
    from repro.core.instrument.protocol import Instrumentor
    from repro.core.state import StateBackend
    from repro.experiments import campaign as campaign_mod
    from repro.experiments import parallel as parallel_mod

    from .masked import install_tracing as install_mask_tracing

    # the count hook adds up the methods each instrument() call wove
    tracer.wrap_methods(Instrumentor, ["instrument"], "weave", count=len)
    tracer.wrap(detector_mod.Detector, "profile", "profile")
    tracer.wrap(parallel_mod.ParallelDetector, "_profile", "profile")
    for module in (detector_mod, parallel_mod):
        tracer.wrap(module, "run_injection_point", "point", nested_name="refine")
    tracer.wrap_methods(
        StateBackend,
        ["capture", "capture_frame", "capture_frame_covered", "fingerprint"],
        "state.capture",
    )
    tracer.wrap_methods(StateBackend, ["diff", "equal"], "state.diff")
    install_mask_tracing(tracer)
    tracer.wrap(campaign_mod, "reclassify", "classify")
    tracer.wrap(parallel_mod.CampaignJournal, "append_run", "journal.append")
    tracer.trace_pool_tasks(parallel_mod, "_run_chunk")


def layer_metrics(tracer: Tracer, sweep: Sweep) -> Dict[str, float]:
    """Per-layer numbers of one traced sweep (spans plus telemetry)."""
    telemetry = [o.telemetry for o in sweep.outcomes if o.telemetry is not None]

    def total(attr: str) -> float:
        return float(sum(getattr(t, attr) for t in telemetry))

    plan = sweep.plan_points or 1
    wall = sweep.wall or 1.0
    executes = [t.phase_seconds.get("execute", 0.0) for t in telemetry]
    pool_execute = sum(
        e for t, e in zip(telemetry, executes) if t.engine == "parallel"
    )
    utilization = (
        sum(
            t.worker_utilization * e
            for t, e in zip(telemetry, executes)
            if t.engine == "parallel"
        )
        / pool_execute
        if pool_execute
        else 0.0
    )
    hits = total("fingerprint_cache_hits")
    misses = total("fingerprint_cache_misses")
    return {
        "weave.s": tracer.self_seconds("weave"),
        "weave.methods": float(tracer.counters.get("weave.count", 0)),
        "profile.s": tracer.self_seconds("profile"),
        "profile.points": float(sum(o.detection.total_points for o in sweep.outcomes)),
        "static.s": total("static_seconds"),
        "static.pruned": total("runs_pruned"),
        "static.pure_methods": total("static_pure_methods"),
        "trace.s": total("trace_seconds"),
        "trace.derived": total("runs_derived"),
        "trace.writes": total("trace_writes"),
        "trace.captures": total("trace_captures"),
        "trace.capture_retries": total("trace_capture_retries"),
        "trace.decided_frac": (total("runs_derived") + total("runs_pruned")) / plan,
        "point.executed": float(tracer.count("point")),
        "point.s": tracer.self_seconds("point"),
        "point.exec_per_s": tracer.count("point") / wall,
        "point.decided_per_s": plan / wall,
        "state.captures": total("state_captures"),
        "state.fingerprints": total("state_fingerprints"),
        "state.compares": total("state_compares"),
        "state.s": total("state_seconds"),
        "state.capture_s": tracer.self_seconds("state.capture"),
        "state.diff_s": tracer.self_seconds("state.diff"),
        "fpcache.hits": hits,
        "fpcache.misses": misses,
        "fpcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "refine.runs": float(tracer.count("refine")),
        "refine.s": tracer.total_seconds("refine"),
        "classify.s": tracer.self_seconds("classify"),
        "pool.utilization": utilization,
        "pool.execute_s": pool_execute,
        "journal.appends": float(tracer.count("journal.append")),
        "journal.append_s": tracer.self_seconds("journal.append"),
        "merge.s": float(
            sum(t.phase_seconds.get("merge", 0.0) for t in telemetry)
        ),
        "pool.retries": total("retries"),
        "campaign.self_s": tracer.self_seconds("campaign"),
    }


def measure(seed: int, seconds: float, *, derived: bool, trace: bool) -> dict:
    """Run sweeps for *seconds* (at least one); see :func:`run_sweep`."""
    from repro.experiments.programs import ALL_PROGRAMS, program_by_name

    reference = Table1Reference()
    programs = list(ALL_PROGRAMS)
    random.Random(seed).shuffle(programs)
    journal_dir = out_dir("journals")
    host = HostSpeed()
    setup_raw, setup = time_setup(host)

    # Warm-up: lazy imports and first-use caches, verified like the rest.
    warm = run_sweep(
        [program_by_name(WARMUP_APP)], reference, host, derived=derived,
        journal_dir=journal_dir,
    )
    problems = list(warm.problems)
    attempted = 1

    sweeps: List[Sweep] = []
    started = time.perf_counter()
    while not sweeps or (
        time.perf_counter() - started + sweeps[-1].wall <= seconds
        and not trace
    ):
        sweep = run_sweep(
            programs, reference, host, derived=derived, journal_dir=journal_dir
        )
        sweeps.append(sweep)
        problems.extend(sweep.problems)
        attempted += len(programs)

    result = {
        "setup_s": setup,
        "setup_raw_s": setup_raw,
        "host": host,
        "sweeps": sweeps,
        "problems": problems,
        "attempted": attempted,
    }
    if trace:
        worker_dir = tempfile.mkdtemp(prefix="workers-", dir=out_dir())
        tracer = Tracer(worker_dir=worker_dir)
        install_tracing(tracer)
        try:
            traced = run_sweep(
                programs, reference, host, derived=derived, journal_dir=journal_dir,
                keep_outcomes=True, tracer=tracer,
            )
        finally:
            tracer.uninstall()
            tracer.collect_workers()
            shutil.rmtree(worker_dir, ignore_errors=True)
        problems.extend(traced.problems)
        result["attempted"] += len(programs)
        layers = layer_metrics(tracer, traced)
        layers["tracing.overhead_frac"] = traced.norm_wall / sweeps[0].norm_wall - 1.0
        layers["tracing.spans"] = float(len(tracer.spans) + tracer.dropped)
        result["layers"] = layers
        result["tracer"] = tracer
    return result

