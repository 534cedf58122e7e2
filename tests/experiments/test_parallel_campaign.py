"""Tests for the parallel, resumable injection-campaign engine.

The contract under test (see ``docs/GUIDE.md`` §"Campaign engines"):

* the parallel engine's merged result is **identical** to the sequential
  engine's — same run log bytes, same classification;
* an interrupted campaign resumes from its journal without re-running
  finished points, and still converges to the identical result;
* a run that exceeds its time budget is retried a bounded number of
  times and then marked ``crashed`` instead of wedging the campaign.
"""

import json
import threading
import time

import pytest

from repro.core import Analyzer, CampaignTelemetry, InjectionCampaign, plan_points
from repro.core.instrument import get_instrumentor
from repro.core.runlog import RunLog, RunRecord
from repro.experiments.parallel import run_point_with_timeout
from repro.experiments import (
    AppProgram,
    CampaignJournal,
    JournalError,
    ParallelDetector,
    ProgramRef,
    load_outcome,
    program_by_name,
    run_app_campaign,
    save_outcome,
)

APP = "LLMap"  # small, fast campaign with real marks and an error path


@pytest.fixture(scope="module")
def sequential():
    return run_app_campaign(program_by_name(APP))


def _same_result(a, b) -> None:
    assert a.detection.total_points == b.detection.total_points
    assert a.detection.runs_executed == b.detection.runs_executed
    assert a.detection.genuine_failures == b.detection.genuine_failures
    assert a.detection.log.to_json() == b.detection.log.to_json()
    assert a.classification.to_json() == b.classification.to_json()


# ---------------------------------------------------------------------------
# determinism: parallel == sequential
# ---------------------------------------------------------------------------


def test_parallel_matches_sequential(sequential):
    parallel = run_app_campaign(program_by_name(APP), workers=2)
    _same_result(sequential, parallel)


def test_parallel_matches_sequential_with_stride(tmp_path):
    program = program_by_name("Dynarray")
    seq = run_app_campaign(program, stride=3)
    par = run_app_campaign(program, stride=3, workers=3)
    _same_result(seq, par)


def test_single_worker_pool_is_equivalent(sequential):
    parallel = run_app_campaign(program_by_name(APP), workers=1)
    _same_result(sequential, parallel)


def test_parallel_telemetry_populated(sequential):
    parallel = run_app_campaign(program_by_name(APP), workers=2)
    telemetry = parallel.detection.telemetry
    assert telemetry is not None
    assert telemetry.engine == "parallel"
    assert telemetry.workers == 2
    assert telemetry.runs_total == sequential.detection.runs_executed
    assert telemetry.runs_executed == telemetry.runs_total
    assert telemetry.runs_resumed == 0
    assert telemetry.runs_per_second > 0
    assert set(telemetry.phase_seconds) == {"profile", "execute", "merge"}
    assert telemetry.worker_busy_seconds  # at least one worker reported
    # the sequential engine reports telemetry too
    assert sequential.detection.telemetry.engine == "sequential"


def test_pool_workers_receive_the_call_exit_table():
    """Workers never profile; the parent's call-exit table lets them
    skip exactly the captures the sequential engine skips."""
    program = program_by_name("LinkedList")
    seq = run_app_campaign(program)
    par = run_app_campaign(program, workers=2)
    _same_result(seq, par)
    seq_telemetry = seq.detection.telemetry
    par_telemetry = par.detection.telemetry
    assert par_telemetry.state_captures == seq_telemetry.state_captures
    assert par_telemetry.state_compares == seq_telemetry.state_compares
    assert par_telemetry.capture_reruns == seq_telemetry.capture_reruns == 0


def test_plan_points_shared_helper():
    assert plan_points(5) == [1, 2, 3, 4, 5, 6]
    assert plan_points(5, baseline_run=False) == [1, 2, 3, 4, 5]
    assert plan_points(6, stride=2) == [1, 3, 5, 7]
    assert plan_points(4, injection_points=[2, 4]) == [2, 4, 5]
    with pytest.raises(ValueError):
        plan_points(5, stride=0)


# ---------------------------------------------------------------------------
# journal + resume
# ---------------------------------------------------------------------------


def test_resume_after_interrupt_is_equivalent(sequential, tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    full = run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    _same_result(sequential, full)

    # simulate an interrupt: keep the header and the first 10 run lines
    lines = open(journal, encoding="utf-8").read().splitlines()
    assert len(lines) > 11
    with open(journal, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:11]) + "\n")

    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    telemetry = resumed.detection.telemetry
    assert telemetry.runs_resumed == 10
    assert telemetry.runs_executed == telemetry.runs_total - 10


def test_resume_with_complete_journal_executes_nothing(sequential, tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    assert resumed.detection.telemetry.runs_executed == 0
    assert (
        resumed.detection.telemetry.runs_resumed
        == resumed.detection.telemetry.runs_total
    )


def test_resume_rejects_mismatched_journal(tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    with pytest.raises(JournalError, match="different campaign"):
        run_app_campaign(
            program_by_name(APP),
            workers=2,
            journal=journal,
            resume=True,
            stride=2,
        )


def test_resume_requires_journal_path():
    with pytest.raises(ValueError, match="journal"):
        ParallelDetector(program_by_name(APP), resume=True)


def test_journal_tolerates_old_headers_and_corrupt_tail(tmp_path):
    """Journals from older code (missing header keys) and interrupted
    writes (a torn trailing line) must load, not raise."""
    path = str(tmp_path / "old.jsonl")
    record = RunRecord(injection_point=1, completed=False, escaped=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"kind": "header", "program": "X"}) + "\n")
        handle.write(
            json.dumps(
                {"kind": "run", "point": 1, "record": record.to_dict()}
            )
            + "\n"
        )
        handle.write('{"kind": "run", "point": 2, "rec')  # torn write
    done = CampaignJournal(path).load(
        {"program": "X", "stride": 1, "total_points": 7}
    )
    assert list(done) == [1]
    rebuilt = RunRecord.from_dict(done[1]["record"])
    assert rebuilt.escaped and not rebuilt.crashed


def test_resume_reattempts_crashed_tail_record(sequential, tmp_path):
    """A journal whose *last* record is crashed (the worker died mid-run
    and the crash marker was the final write) must not be treated as
    done: resume re-attempts exactly that point and converges to the
    sequential result."""
    journal = str(tmp_path / "campaign.jsonl")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)

    lines = open(journal, encoding="utf-8").read().splitlines()
    tail = json.loads(lines[-1])
    assert tail["kind"] == "run"
    tail["record"]["crashed"] = True
    tail["record"]["marks"] = []
    with open(journal, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1] + [json.dumps(tail)]) + "\n")

    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    telemetry = resumed.detection.telemetry
    assert telemetry.runs_executed == 1  # only the crashed point re-ran
    assert telemetry.runs_resumed == telemetry.runs_total - 1
    assert not any(run.crashed for run in resumed.detection.log.runs)


class _Tiny:
    """Two injection points total: ``__init__`` and ``poke``."""

    def __init__(self):
        self.count = 0

    def poke(self):
        self.count += 1


def _tiny_body():
    _Tiny().poke()


def _tiny_program() -> AppProgram:
    return AppProgram(
        name="tinybox",
        language="Java",
        classes=[_Tiny],
        body=_tiny_body,
    )


def test_more_workers_than_injection_points():
    """A pool wider than the campaign must neither wedge nor duplicate
    runs — idle workers simply never receive a point."""
    seq = run_app_campaign(_tiny_program())
    detector = ParallelDetector(
        _tiny_program(),
        workers=8,
        program_ref=ProgramRef(factory=_tiny_program),
    )
    par = detector.detect()
    assert par.total_points < 8
    assert par.runs_executed == seq.detection.runs_executed
    assert par.log.to_json() == seq.detection.log.to_json()
    assert par.genuine_failures == seq.detection.genuine_failures
    assert par.telemetry.workers == 8


# ---------------------------------------------------------------------------
# timeouts and crashed points
# ---------------------------------------------------------------------------


class _Sleeper:
    """Subject whose workload stalls long enough to trip a tiny budget."""

    def __init__(self):
        self.poked = 0

    def poke(self):
        self.poked += 1


def _slow_body():
    time.sleep(0.25)
    _Sleeper().poke()


def _slow_program() -> AppProgram:
    return AppProgram(
        name="slowpoke",
        language="Java",
        classes=[_Sleeper],
        body=_slow_body,
    )


def test_timeout_marks_points_crashed(tmp_path):
    journal = str(tmp_path / "slow.jsonl")
    detector = ParallelDetector(
        _slow_program(),
        workers=2,
        timeout=0.05,
        retries=1,
        journal_path=journal,
        program_ref=ProgramRef(factory=_slow_program),
    )
    result = detector.detect()
    assert result.runs_executed == result.total_points + 1
    assert all(run.crashed for run in result.log.runs)
    assert not result.genuine_failures  # timeouts are not genuine failures
    telemetry = result.telemetry
    assert telemetry.runs_crashed == result.runs_executed
    # every point: 1 attempt + 1 retry before crashing
    assert telemetry.retries == result.runs_executed

    # crashed points are not treated as done: a resume re-attempts them
    retry = ParallelDetector(
        _slow_program(),
        workers=2,
        timeout=30.0,
        journal_path=journal,
        resume=True,
        program_ref=ProgramRef(factory=_slow_program),
    ).detect()
    assert retry.telemetry.runs_resumed == 0
    assert retry.telemetry.runs_crashed == 0
    assert not any(run.crashed for run in retry.log.runs)


def test_generous_timeout_preserves_equivalence(sequential):
    parallel = run_app_campaign(
        program_by_name(APP), workers=2, timeout=60.0, retries=2
    )
    _same_result(sequential, parallel)
    assert parallel.detection.telemetry.runs_crashed == 0


# ---------------------------------------------------------------------------
# telemetry persistence + compatibility
# ---------------------------------------------------------------------------


def test_save_load_roundtrips_telemetry(tmp_path):
    outcome = run_app_campaign(program_by_name("Dynarray"), stride=4, workers=2)
    directory = str(tmp_path / "campaign")
    save_outcome(outcome, directory)
    meta, _, _ = load_outcome(directory)
    telemetry = meta["telemetry"]
    assert isinstance(telemetry, CampaignTelemetry)
    assert telemetry.engine == "parallel"
    assert telemetry.workers == 2
    assert telemetry.runs_total == outcome.detection.runs_executed
    assert telemetry.phase_seconds == outcome.detection.telemetry.phase_seconds


def test_load_outcome_tolerates_pre_telemetry_meta(tmp_path):
    """meta.json written before telemetry existed must still load."""
    outcome = run_app_campaign(program_by_name("Dynarray"), stride=4)
    directory = str(tmp_path / "campaign")
    save_outcome(outcome, directory)
    meta_path = tmp_path / "campaign" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta.pop("telemetry", None)
    meta_path.write_text(json.dumps(meta))
    loaded_meta, log, classification = load_outcome(directory)
    assert "telemetry" not in loaded_meta
    assert len(log.runs) == len(outcome.detection.log.runs)


def test_telemetry_from_dict_defaults_missing_keys():
    telemetry = CampaignTelemetry.from_dict({"engine": "parallel", "workers": 4})
    assert telemetry.engine == "parallel"
    assert telemetry.workers == 4
    assert telemetry.runs_total == 0
    assert telemetry.phase_seconds == {}
    assert CampaignTelemetry.from_dict(None).engine == "sequential"
    assert "engine=sequential" in CampaignTelemetry.from_dict({}).summary()


def test_crashed_flag_roundtrips_and_defaults():
    log = RunLog()
    log.runs.append(RunRecord(injection_point=3, crashed=True))
    reloaded = RunLog.from_json(log.to_json())
    assert reloaded.runs[0].crashed
    # logs written before the flag existed default to crashed=False
    payload = json.loads(log.to_json())
    del payload["runs"][0]["crashed"]
    legacy = RunLog.from_json(json.dumps(payload))
    assert not legacy.runs[0].crashed


def test_program_ref_rejects_unknown_programs():
    with pytest.raises(ValueError, match="not in the registry"):
        ProgramRef.for_program(_slow_program())
    with pytest.raises(ValueError, match="name or a factory"):
        ProgramRef().resolve()


# ---------------------------------------------------------------------------
# crash-safe journal loading (torn tails, header diagnostics)
# ---------------------------------------------------------------------------


def _journal_bytes() -> tuple:
    """A journal with two completed runs whose lines carry real multibyte
    UTF-8 (so a torn write can split a character, not just a brace).
    Returns ``(prefix bytes, last line bytes incl. newline)``."""
    header = json.dumps(
        {"kind": "header", "program": "X", "stride": 1, "total_points": 7}
    )
    first = json.dumps(
        {
            "kind": "run",
            "point": 1,
            "record": RunRecord(injection_point=1, escaped=True).to_dict(),
            "genuine_failure": None,
            "attempts": 1,
        },
        ensure_ascii=False,
    )
    last = json.dumps(
        {
            "kind": "run",
            "point": 2,
            "record": RunRecord(injection_point=2, completed=True).to_dict(),
            "genuine_failure": "naïve Σtate ☃ diverged",
            "attempts": 1,
        },
        ensure_ascii=False,
    )
    prefix = (header + "\n" + first + "\n").encode("utf-8")
    return prefix, (last + "\n").encode("utf-8")


def test_journal_load_tolerates_truncation_at_every_byte(tmp_path):
    """A worker killed mid-``write`` leaves the journal truncated at an
    arbitrary byte of its final line — possibly inside a multibyte
    character.  ``load`` must never raise: every byte prefix yields the
    fully-written records, and the torn tail is simply dropped."""
    expected_header = {"program": "X", "stride": 1, "total_points": 7}
    prefix, last = _journal_bytes()
    path = tmp_path / "torn.jsonl"
    # the last line parses once its closing brace is present — with or
    # without the trailing newline
    complete_from = len(prefix) + len(last) - 1
    for cut in range(len(prefix), len(prefix) + len(last) + 1):
        path.write_bytes((prefix + last)[:cut])
        done = CampaignJournal(str(path)).load(expected_header)
        if cut >= complete_from:
            assert sorted(done) == [1, 2], f"cut at byte {cut}"
            assert done[2]["genuine_failure"] == "naïve Σtate ☃ diverged"
        else:
            assert sorted(done) == [1], f"cut at byte {cut}"


def test_journal_load_tolerates_truncated_header(tmp_path):
    """Truncation inside the *header* line means nothing was durably
    recorded: the journal loads as empty rather than raising."""
    prefix, last = _journal_bytes()
    header_line = prefix.split(b"\n", 1)[0] + b"\n"
    path = tmp_path / "torn-header.jsonl"
    for cut in (1, len(header_line) // 2, len(header_line) - 2):
        path.write_bytes(header_line[:cut])
        done = CampaignJournal(str(path)).load({"program": "X"})
        assert done == {}


def test_parallel_resume_after_torn_tail_write(sequential, tmp_path):
    """End-to-end: a campaign whose journal ends in a torn write resumes
    cleanly — the partial line is dropped *and* the records appended by
    the resumed campaign do not concatenate onto the torn bytes (the
    journal must replay completely afterwards)."""
    journal = str(tmp_path / "campaign.jsonl")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    data = open(journal, "rb").read()
    with open(journal, "wb") as handle:
        handle.write(data[:-7])  # tear the final record mid-line

    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    assert resumed.detection.telemetry.runs_executed == 1

    # the repaired + appended journal now holds every point: a second
    # resume replays it fully and executes nothing
    again = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, again)
    assert again.detection.telemetry.runs_executed == 0


def test_journal_header_mismatch_reports_differing_keys(tmp_path):
    """The resume error must say *which* header keys differ, not just
    that the journal belongs to a different campaign."""
    prefix, last = _journal_bytes()
    path = tmp_path / "other.jsonl"
    path.write_bytes(prefix + last)
    with pytest.raises(JournalError) as excinfo:
        CampaignJournal(str(path)).load(
            {"program": "X", "stride": 2, "total_points": 9}
        )
    message = str(excinfo.value)
    assert "stride=1 (expected 2)" in message
    assert "total_points=7 (expected 9)" in message
    assert "program" not in message.split("campaign:")[1]


# ---------------------------------------------------------------------------
# timeout enforcement on and off the main thread
# ---------------------------------------------------------------------------


def _run_slow_point(timeout, retries):
    """Weave the slow subject and execute its first injection point
    under a budget, via the shared single-point kernel."""
    program = _slow_program()
    campaign = InjectionCampaign(capture_args=True)
    engine = get_instrumentor(
        "weave", campaign, analyzer=Analyzer(exclude=program.exclude)
    )
    with engine:
        engine.instrument(program.classes)
        campaign.begin_profile()
        program()
        campaign.end_profile()
        return run_point_with_timeout(
            program, campaign, 1, timeout=timeout, retries=retries
        )


def test_timeout_on_main_thread_uses_sigalrm_path():
    assert threading.current_thread() is threading.main_thread()
    record, failure, attempts, crashed = _run_slow_point(0.05, retries=1)
    assert crashed and record.crashed
    assert failure is None
    assert attempts == 2  # one attempt + one retry


def test_timeout_on_worker_thread_uses_watchdog_path():
    """SIGALRM is a main-thread-only facility (``signal.signal`` raises
    ``ValueError`` elsewhere); driven from a thread — as under ``repro
    serve`` — the budget must still be enforced via the watchdog."""
    results = {}

    def drive():
        results["value"] = _run_slow_point(0.05, retries=1)

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    record, failure, attempts, crashed = results["value"]
    assert crashed and record.crashed
    assert attempts == 2


def test_generous_timeout_on_worker_thread_completes_cleanly():
    """The watchdog arms but never fires: the run completes, and no
    pending async exception leaks into later code on that thread."""
    results = {}

    def drive():
        results["value"] = _run_slow_point(30.0, retries=0)
        # anything pending would surface at the next bytecode boundaries
        for _ in range(10000):
            pass
        results["clean"] = True

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    record, failure, attempts, crashed = results["value"]
    assert not crashed and not record.crashed
    assert results["clean"]
