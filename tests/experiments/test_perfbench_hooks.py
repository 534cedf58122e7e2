"""The benchmark's traced run must find every hook it patches.

``perfbench/run.py --trace 1`` wraps named functions and methods of the
campaign stack to time its layers.  A refactor that renames or removes
one of them breaks the traced run; this test breaks first.
"""

from perfbench.table1 import install_tracing
from perfbench.tracer import Tracer

from repro.core import detector
from repro.experiments import campaign, parallel

#: (owner, attribute) pairs the table-1 workloads time.
HOOKS = [
    (detector.Detector, "profile"),
    (parallel.ParallelDetector, "_profile"),
    (detector, "run_injection_point"),
    (parallel, "run_injection_point"),
    (parallel.CampaignJournal, "append_run"),
    (parallel, "_run_chunk"),
    (campaign, "reclassify"),
]


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracing_patches_every_hook_and_uninstall_restores_them():
    originals = {(owner, attr): _current(owner, attr) for owner, attr in HOOKS}
    tracer = Tracer()
    install_tracing(tracer)
    try:
        for owner, attr in HOOKS:
            assert _current(owner, attr) is not originals[owner, attr], attr
    finally:
        tracer.uninstall()
    for owner, attr in HOOKS:
        assert _current(owner, attr) is originals[owner, attr], attr
