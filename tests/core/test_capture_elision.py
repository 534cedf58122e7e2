"""Before-capture elision: the profile's call-exit table and its fallback.

The injection wrapper skips the before-capture of every call the
profiling run proves returns before the threshold fires.  These tests
pin the table, the elision rule, the full-capture re-run that keeps the
run log exact when a subject diverges from its profile, and that an
injected run leaves no reference cycle holding the subject alive.
"""

import gc
import weakref

from repro.core.detector import CallableProgram, Detector, run_injection_point
from repro.core.injection import (
    RAISED,
    InjectionCampaign,
    make_injection_wrapper,
)
from repro.core.weaver import Weaver


class Box:
    def __init__(self):
        self.items = []

    def add(self, value, fail=False):
        self.items.append(value)
        if fail:
            raise ValueError("genuine failure")


def _woven(campaign, cls=Box):
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    weaver.weave_class(cls)
    return weaver


def _body():
    box = Box()
    box.add(1)
    try:
        box.add(2, fail=True)
    except ValueError:
        pass
    box.add(3)


def test_profile_records_call_exits_in_call_order():
    campaign = InjectionCampaign()
    with _woven(campaign):
        campaign.begin_profile()
        _body()
        total = campaign.end_profile()
    # __init__ (point 1), add (2), add raising (3), add (4)
    assert total == 4
    assert campaign.call_exits == [1, 2, RAISED, 4]


def test_detection_captures_only_where_an_exception_can_leave():
    campaign = InjectionCampaign()
    with _woven(campaign):
        result = Detector(CallableProgram("box", _body), campaign).detect()
    # Only the runs that reach the raising call before their threshold
    # (injection at the last add's entry, and the baseline) capture, and
    # only around that call: the other calls all return before it fires.
    # The after-state is compared live, so each compare follows exactly
    # one capture.
    stats = campaign.state_stats
    assert [run.injection_point for run in result.log.runs] == [1, 2, 3, 4, 5]
    assert stats.compares == 2
    assert stats.captures == 2
    assert result.telemetry.capture_reruns == 0


def test_profile_mismatch_beyond_the_table_captures():
    campaign = InjectionCampaign()
    with _woven(campaign):
        campaign.begin_profile()
        Box()
        campaign.end_profile()
        campaign.begin_run(100)
        _body()
        campaign.end_run(completed=True, escaped=False)
    assert not campaign.capture_missed
    # __init__ is in the one-entry table and skips; the three adds are
    # not, so each captures before the call (and the raising one
    # compares with the live state after it).
    assert campaign.state_stats.captures == 3
    assert campaign.state_stats.compares == 1


class Flaky:
    """Its second ``add`` returns normally on the first execution (the
    profile) and raises a genuine exception on every later one."""

    executions = 0

    def __init__(self):
        self.items = []

    def add(self, value):
        self.items.append(value)
        if value == 2 and Flaky.executions > 1:
            raise KeyError(value)


def _flaky_body():
    Flaky.executions += 1
    flaky = Flaky()
    flaky.add(1)
    try:
        flaky.add(2)
    except KeyError:
        pass


def _flaky_detector(campaign):
    Flaky.executions = 0
    return Detector(CallableProgram("flaky", _flaky_body), campaign)


def test_divergence_from_profile_reruns_with_full_capture():
    elided = InjectionCampaign()
    with _woven(elided, Flaky):
        result = _flaky_detector(elided).detect()
    # Only the baseline run reaches the second add before its threshold,
    # so only it skipped that call's capture and saw it raise.
    assert result.telemetry.capture_reruns == 1
    assert elided.capture_reruns == 1

    cleared = InjectionCampaign()
    with _woven(cleared, Flaky):
        detector = _flaky_detector(cleared)
        plan = detector.plan()
        cleared.call_exits = []
        tally = detector.execute(plan.points, plan.decided, lambda *_: None)
    assert tally.capture_reruns == 0
    assert cleared.log.to_json() == result.log.to_json()
    nonatomic = [mark for run in result.log.runs for mark in run.marks]
    assert any(mark.method == "Flaky.add" for mark in nonatomic)


def test_injected_run_frees_the_subject_without_the_cycle_collector():
    refs = []

    def body():
        box = Box()
        refs.append(weakref.ref(box))
        box.add(1)

    campaign = InjectionCampaign()
    program = CallableProgram("box", body)
    with _woven(campaign):
        Detector(program, campaign).profile()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for point in (1, 2):  # fire at __init__, then at add
                record, failure = run_injection_point(program, campaign, point)
                assert record.injected_method is not None
                assert failure is None
        finally:
            if enabled:
                gc.enable()
    assert refs and all(ref() is None for ref in refs)
