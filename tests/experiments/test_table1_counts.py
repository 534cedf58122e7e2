"""The default Table-1 campaigns' machine-independent counts, pinned.

``benchmarks/baselines/table1_counts.json`` holds, per application, the
plan size and the state-layer work of a default campaign.  The counts
depend on the code only, so they are compared exactly: a change that
cuts captures shows here first, and one that adds captures back (or
changes a plan) fails until the baseline is regenerated with
``PYTHONPATH=src python tools/table1_counts.py``.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "table1_counts.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("table1_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table1_counts_match_the_committed_baseline():
    tool = _load_tool()
    baseline = json.loads(tool.BASELINE.read_text(encoding="utf-8"))
    counts = tool.collect()
    assert sorted(counts) == sorted(baseline)
    for name, expected in sorted(baseline.items()):
        assert counts[name] == expected, name
