#!/usr/bin/env python
"""Write the machine-independent counts of the default Table-1 campaigns.

For every Table-1 application, a default campaign (sequential engine,
graph backend, every point executed) yields four counts that depend on
the code, not on the machine: ``total_points``, ``runs_executed``,
``state_captures`` and ``state_compares``.  ``tests/experiments/
test_table1_counts.py`` compares them exactly with the committed
baseline ``benchmarks/baselines/table1_counts.json``, so a change that
moves a count must regenerate the file and say why::

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


def collect() -> Dict[str, Dict[str, int]]:
    """The counts of one default campaign per Table-1 application."""
    from repro.experiments import run_app_campaign
    from repro.experiments.programs import ALL_PROGRAMS

    counts = {}
    for program in ALL_PROGRAMS:
        detection = run_app_campaign(program).detection
        telemetry = detection.telemetry
        counts[program.name] = {
            "total_points": detection.total_points,
            "runs_executed": detection.runs_executed,
            "state_captures": telemetry.state_captures,
            "state_compares": telemetry.state_compares,
        }
    return counts


def render(counts: Dict[str, Dict[str, int]]) -> str:
    return json.dumps(counts, indent=2, sort_keys=True) + "\n"


def main() -> int:
    BASELINE.write_text(render(collect()), encoding="utf-8")
    print(f"wrote {BASELINE.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
