"""Shared helpers: locating the program, statistics, memory, results."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The program's sources, built from this checkout only.
SRC = os.path.join(ROOT, "src")

#: Scratch space for journals, caches and traces (ignored by git).
OUT = os.path.join(ROOT, "perfbench", "_out")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no program sources)."""


def import_program() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and import it.

    Refuses to measure a ``repro`` package found anywhere else, so a
    checkout without sources fails instead of benchmarking a stale copy.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(location) != SRC:
        raise SetupError(f"repro imported from {location}, not {SRC}")


def pin_hash_seed() -> None:
    """Re-execute this script under ``PYTHONHASHSEED=0`` unless already so.

    HashedMap's run log lists state differences in bucket order, which
    follows ``hash()`` of string keys and so changes with the per-process
    hash seed.  Its classification does not.  Pinning the seed makes the
    whole log -- and hence the committed reference digests -- repeatable
    across processes; subprocesses inherit the pinned seed.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def program_env() -> Dict[str, str]:
    """Environment for subprocesses that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def out_dir(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile, 0 = minimum and 100 = maximum.

    The same interpolation as ``statistics.quantiles(method="inclusive")``.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
    summary: Optional[Dict[str, object]] = None,
) -> None:
    """Print the human summary, then the one-line JSON result (last line)."""
    if summary:
        for key in sorted(summary):
            print(f"# {key}: {summary[key]}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def quartile_spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and IQR/median, as the acceptance rule takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("inf"),
    }
