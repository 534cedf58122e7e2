#!/usr/bin/env python
"""Write the machine-independent counts of the Table-1 campaigns.

For every Table-1 application, two campaign configurations yield counts
that depend on the code, not on the machine:

``default``
    sequential engine, graph backend, every point executed:
    ``total_points``, ``runs_executed``, ``state_captures`` and
    ``state_compares``;
``all_passes``
    sequential engine, fingerprint backend, static pruning and trace
    derivation: ``runs_executed``, ``runs_pruned``, ``runs_derived``,
    ``state_captures``, ``state_fingerprints``, ``state_compares`` and
    ``trace_captures``.

``tests/experiments/test_table1_counts.py`` compares them exactly with
the committed baseline ``benchmarks/baselines/table1_counts.json``, so a
change that moves a count must regenerate the file and say why::

    PYTHONPATH=src python tools/table1_counts.py

The counts do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "table1_counts.json"

#: Configuration name -> (``run_app_campaign`` options, pinned counts).
CONFIGS = {
    "default": (
        {},
        ("total_points", "runs_executed", "state_captures", "state_compares"),
    ),
    "all_passes": (
        {"state_backend": "fingerprint", "static_prune": True, "trace_derive": True},
        (
            "runs_executed",
            "runs_pruned",
            "runs_derived",
            "state_captures",
            "state_fingerprints",
            "state_compares",
            "trace_captures",
        ),
    ),
}


def collect(config: str = "default") -> Dict[str, Dict[str, int]]:
    """The counts of one campaign per Table-1 application under *config*."""
    from repro.experiments import run_app_campaign
    from repro.experiments.programs import ALL_PROGRAMS

    options, names = CONFIGS[config]
    counts = {}
    for program in ALL_PROGRAMS:
        detection = run_app_campaign(program, **options).detection
        telemetry = detection.telemetry
        counts[program.name] = {
            name: getattr(detection if name == "total_points" else telemetry, name)
            for name in names
        }
    return counts


def render(counts: Dict[str, Dict[str, Dict[str, int]]]) -> str:
    return json.dumps(counts, indent=2, sort_keys=True) + "\n"


def main() -> int:
    counts = {config: collect(config) for config in CONFIGS}
    BASELINE.write_text(render(counts), encoding="utf-8")
    print(f"wrote {BASELINE.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
