"""The ``service-open`` workload: ``repro serve`` under an open loop.

The server runs as a subprocess with a persistent result cache.  One
client process sends submissions on a fixed schedule (an open loop: a
slow server does not slow the schedule down) over at most two
connections.  Each submission is a seeded ``repro.fuzz`` program
rendered as service source, with a config drawn from graph/fingerprint
x passes on/off; a fixed share repeats an earlier submission so the
result cache sees hits beside misses.  Every verdict is compared with
``repro.fuzz.simulate``.

The client follows each campaign's ``/events`` stream to its end and
then fetches the verdict.  The stream checks for new events on a fixed
20 ms sleep, so open-loop latencies sit near one or two of those sleeps.

A second, closed-loop phase keeps both connections busy back to back
resubmitting open-loop programs whose verdicts the server has cached,
and measures how many verified verdicts per second the service answers:
the HTTP, JSON, digest and cache path, without the 20 ms sleep that
bounds a closed loop of fresh campaigns.  Its time is in reference-host
seconds (see :mod:`perfbench.hostspeed`), probed from the client's main
thread while the connection threads wait on the server.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .common import out_dir, percentile, program_env
from .hostspeed import BURST, HostSpeed
from .tracer import Tracer
from .verdicts import check_service_verdict, service_source

#: Submissions per second in the open-loop phase.
RATE = 20.0
#: Client connections (threads); the service may use at most two.
CONNECTIONS = 2
#: Every this-many-th submission repeats an earlier one (cache hits).
REPEAT_EVERY = 4
#: A repeat refers back at least this many submissions, so the
#: original has finished and the repeat is answered from the cache.
REPEAT_DISTANCE = 10
#: ... and at most this many back, well inside the server's default
#: result-cache capacity (128 entries), so it is not already evicted.
REPEAT_WINDOW = 40
#: Fresh submissions per block of 40, by plan size: 2-3, 4-7, 8-15 and
#: 16+ points (bit length of the point count), close to the generator's
#: own mix (30% / 50% / 18% / 1%) but exact in every run.
SIZE_QUOTAS = {2: 12, 3: 20, 4: 7, 5: 1}
#: Share of the run spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.6
#: How many of the open loop's most recent programs the closed loop
#: resubmits; well inside the result cache's capacity (128 entries).
CACHED_SET = 64
CONFIGS = (
    {"state_backend": "graph"},
    {"state_backend": "fingerprint"},
    {"state_backend": "graph", "static_prune": True, "trace_derive": True},
    {"state_backend": "fingerprint", "static_prune": True, "trace_derive": True},
)


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_path: str) -> None:
        if os.path.exists(cache_path):
            os.remove(cache_path)
        # the server's own log, kept for diagnosing a failed run
        self.log = open(cache_path + ".log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-path", cache_path,
                "--queue-size", "64",
            ],
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.strip().rsplit("http://", 1)[1]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def request(self, method: str, path: str, body: Optional[dict] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def follow(self, campaign_id: str) -> Optional[float]:
        """Read the NDJSON event stream to its end; return when 'started' came."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        started_at = None
        try:
            conn.request("GET", f"/campaigns/{campaign_id}/events")
            response = conn.getresponse()
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("event") == "started" and started_at is None:
                    started_at = time.perf_counter()
        finally:
            conn.close()
        return started_at

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


@dataclass
class Submission:
    name: str
    source: str
    config: dict
    expected: Dict[str, str]


@dataclass
class Loop:
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: verdicts that came back and disagree with the oracle
    wrong: int = 0
    attempted: int = 0
    rejected: int = 0
    run_ms: List[float] = field(default_factory=list)
    wall: float = 0.0
    #: the host's slowdown over the loop (1.0 when not probed)
    slowdown: float = 1.0


def make_schedule(seed: int, count: int) -> List[Submission]:
    """Seeded submissions with a fixed mix of sizes, configs and repeats.

    The seed picks the programs and their order; the mix is the same in
    every run, so runs with different seeds measure the same load: every
    :data:`REPEAT_EVERY`-th submission repeats a recent one, fresh ones
    take each config in turn and fill :data:`SIZE_QUOTAS` per block.
    """
    from repro.fuzz import generate_program, simulate

    rng = random.Random(seed)
    waiting: Dict[int, List[Tuple[str, Dict[str, str]]]] = {b: [] for b in SIZE_QUOTAS}
    candidates = itertools.count()

    seen = set()

    def take(bucket: int) -> Tuple[str, Dict[str, str]]:
        while not waiting[bucket]:
            spec = generate_program(seed, next(candidates))
            source = service_source(spec)
            # small generated programs repeat; a duplicate would be an
            # unplanned cache hit and shift the hit share between seeds
            if source in seen:
                continue
            seen.add(source)
            oracle = simulate(spec)
            size = min(max(oracle.total_points.bit_length(), 2), max(SIZE_QUOTAS))
            waiting[size].append((source, dict(oracle.categories)))
        return waiting[bucket].pop(0)

    fresh: List[Submission] = []
    schedule: List[Submission] = []
    sizes: List[int] = []
    configs: List[dict] = []
    for position in range(count):
        if position >= REPEAT_DISTANCE and position % REPEAT_EVERY == REPEAT_EVERY - 1:
            window = fresh[-REPEAT_WINDOW - REPEAT_DISTANCE : -REPEAT_DISTANCE]
            schedule.append(rng.choice(window or fresh[:1]))
            continue
        if not sizes:
            sizes = [b for b, quota in SIZE_QUOTAS.items() for _ in range(quota)]
            rng.shuffle(sizes)
        if not configs:
            configs = list(CONFIGS)
            rng.shuffle(configs)
        source, expected = take(sizes.pop())
        submission = Submission(
            f"s{seed}-{len(fresh)}", source, dict(configs.pop()), expected
        )
        fresh.append(submission)
        schedule.append(submission)
    return schedule


def submit(
    server: Server, item: Submission, tracer: Optional[Tracer]
) -> Tuple[Optional[str], Optional[float]]:
    """One submission to its verified verdict.

    Returns ``(problem, run_ms)``: why the submission failed, was
    refused or got a wrong verdict (``None`` when the verdict is right),
    and the campaign's own wall time when it ran rather than being
    answered from the cache.
    """
    t0 = time.perf_counter()
    status, body = server.request(
        "POST", "/campaigns",
        {"source": item.source, "config": item.config, "name": item.name},
    )
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.record("svc.submit", t0, t1)
    payload = json.loads(body)
    run_ms = None
    if status == 202:
        started_at = server.follow(payload["id"])
        t2 = time.perf_counter()
        status, body = server.request("GET", f"/campaigns/{payload['id']}")
        t3 = time.perf_counter()
        if tracer is not None:
            tracer.record("svc.events", t1, t2)
            tracer.record("svc.fetch", t2, t3)
            if started_at is not None:
                tracer.record("svc.queue_wait", t1, started_at)
        summary = json.loads(body)
        if summary.get("status") != "done":
            return f"{item.name}: campaign {summary.get('status')}", None
        payload = summary.get("result") or {}
        run_ms = 1000.0 * payload.get("telemetry", {}).get("wall_seconds", 0.0)
    elif status != 200:
        return f"{item.name}: HTTP {status}", None
    problem = check_service_verdict(payload, item.expected)
    return (None if problem is None else f"{item.name}: wrong verdict: {problem}"), run_ms


def run_loop(
    server: Server, schedule: List[Submission], seconds: float, *,
    rate: Optional[float], host: Optional[HostSpeed] = None,
    tracer: Optional[Tracer] = None,
) -> Loop:
    """Open loop at *rate* per second, or closed loop when *rate* is None.

    With *host*, the calling thread probes the host's speed while the
    connection threads run, and once after they end.
    """
    loop = Loop()
    lock = threading.Lock()
    cursor = [0]
    begin = time.perf_counter()
    deadline = begin + seconds

    def worker() -> None:
        while True:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            due = begin + position / rate if rate is not None else time.perf_counter()
            if due >= deadline or position >= len(schedule):
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            run_ms = None
            try:
                problem, run_ms = submit(server, schedule[position], tracer)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                problem = f"{schedule[position].name}: {exc!r}"
            done = time.perf_counter()
            with lock:
                loop.attempted += 1
                loop.lags.append(sent - due)
                if problem is None:
                    loop.latencies.append(done - due)
                else:
                    loop.problems.append(problem)
                    loop.rejected += problem.endswith("HTTP 503")
                    loop.wrong += ": wrong verdict: " in problem
                if run_ms is not None:
                    loop.run_ms.append(run_ms)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    while host is not None and any(thread.is_alive() for thread in threads):
        host.poll()
        threads[0].join(timeout=host.every / 10)
    for thread in threads:
        thread.join()
    loop.wall = time.perf_counter() - begin
    if host is not None:
        host.probe()
        loop.slowdown = host.slowdown(begin, begin + loop.wall)
    return loop


def cached_schedule(done: List[Submission], seed: int, count: int) -> List[Submission]:
    """The closed loop's *count* submissions: recent ones, in a seeded order.

    Takes the last :data:`CACHED_SET` distinct programs of *done* (the
    open loop's schedule, all answered by now, so in the result cache)
    and repeats them, shuffled.
    """
    recent: List[Submission] = []
    for item in reversed(done):
        if item not in recent:
            recent.append(item)
        if len(recent) == CACHED_SET:
            break
    rng = random.Random(seed)
    order: List[Submission] = []
    while len(order) < count:
        rng.shuffle(recent)
        order.extend(recent)
    return order[:count]


def server_stats(server: Server) -> Dict[str, int]:
    """Result-cache hits and misses and campaign records, from ``GET /stats``."""
    status, body = server.request("GET", "/stats")
    stats = json.loads(body) if status == 200 else {}
    cache = stats.get("result_cache", {})
    return {
        "hits": int(cache.get("hits", 0)),
        "misses": int(cache.get("misses", 0)),
        "campaigns": int(stats.get("campaigns", 0)),
    }


def time_setup(host: HostSpeed, repeats: int = 7) -> Tuple[List[float], List[float], Server]:
    """Start the server *repeats* times; keep the last one running.

    Returns the raw and the reference-host seconds of each start-up,
    and the running server.
    """
    spans = []
    server = None
    cache_dir = out_dir("service")
    for attempt in range(repeats):
        if server is not None:
            server.stop()
        host.probe(BURST)
        started = time.perf_counter()
        server = Server(os.path.join(cache_dir, f"cache-{attempt}.jsonl"))
        spans.append((started, time.perf_counter()))
    host.probe(BURST)
    return [b - a for a, b in spans], host.normalise(spans), server


def measure(seed: int, seconds: float, *, trace: bool) -> dict:
    from .verdicts import checker_self_test

    open_seconds = seconds * OPEN_SHARE
    closed_seconds = seconds - open_seconds
    # the open loop and the traced one send at most RATE per second
    schedule = make_schedule(seed, int(2 * RATE * open_seconds) + 2 * CONNECTIONS)
    self_test = checker_self_test(_self_test_specs(seed))
    host = HostSpeed()
    own = os.sched_getaffinity(0)
    # Client and server share one CPU: the connection threads and the
    # server process inherit this thread's.  Across two CPUs, every
    # request and answer wakes the other CPU, and on a virtual machine
    # that wake-up's cost swings from second to second: the closed
    # loop's rate moved between 360 and 830 per second within one run.
    os.sched_setaffinity(0, {min(own)})
    try:
        setup_raw, setup, server = time_setup(host)
        result: dict = {"setup_s": setup, "setup_raw_s": setup_raw, "host": host}
        problems: List[str] = []
        try:
            open_loop = run_loop(server, schedule, open_seconds, rate=RATE)
            used = open_loop.attempted
            # far more than the closed loop can send at any plausible speed
            repeats = cached_schedule(schedule[:used], seed, int(2000 * closed_seconds))
            closed = run_loop(server, repeats, closed_seconds, rate=None, host=host)
            result.update(open_loop=open_loop, closed_loop=closed)
            problems += open_loop.problems + closed.problems
            wrong = open_loop.wrong + closed.wrong
            attempted = open_loop.attempted + closed.attempted
            if trace:
                tracer = Tracer()
                before = server_stats(server)
                traced = run_loop(server, schedule[used:], open_seconds, rate=RATE, tracer=tracer)
                problems += traced.problems
                wrong += traced.wrong
                attempted += traced.attempted
                after = server_stats(server)
                hits = after["hits"] - before["hits"]
                lookups = hits + after["misses"] - before["misses"]

                def median_ms(name: str) -> float:
                    spans = [s for s in tracer.spans if s[0] == name]
                    return 1000.0 * percentile([s[2] - s[1] for s in spans], 50) if spans else 0.0

                result["layers"] = {
                    "svc.submit_ms": median_ms("svc.submit"),
                    "svc.queue_wait_ms": median_ms("svc.queue_wait"),
                    "svc.run_ms": percentile(traced.run_ms, 50) if traced.run_ms else 0.0,
                    "svc.cache_hit_ratio": hits / lookups if lookups else 0.0,
                    "svc.rejected": float(open_loop.rejected + closed.rejected + traced.rejected),
                    "svc.campaigns_run": float(after["campaigns"] - before["campaigns"]),
                    "loadgen.lag_p99_ms": 1000.0 * percentile(traced.lags, 99),
                    "tracing.overhead_frac": percentile(traced.latencies, 50)
                    / percentile(open_loop.latencies, 50) - 1.0,
                    "tracing.spans": float(len(tracer.spans) + tracer.dropped),
                }
                result["tracer"] = tracer
        finally:
            server.stop()
        result["problems"] = self_test + problems
        result["wrong"] = len(self_test) + wrong
        result["attempted"] = attempted
    finally:
        os.sched_setaffinity(0, own)
    return result


def _self_test_specs(seed: int):
    from repro.fuzz import generate_program

    for index in range(200):
        yield generate_program(seed + 1, index)
