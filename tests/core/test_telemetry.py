"""CampaignTelemetry serialization: every field survives the dict form."""

from dataclasses import fields

from repro.core import CampaignTelemetry


def _non_default_telemetry() -> CampaignTelemetry:
    telemetry = CampaignTelemetry()
    for index, spec in enumerate(fields(telemetry), start=1):
        default = getattr(telemetry, spec.name)
        if isinstance(default, dict):
            value = {f"{spec.name}-key": index + 0.5}
        elif isinstance(default, str):
            value = f"{spec.name}-value"
        elif isinstance(default, float):
            value = index + 0.25
        else:
            value = index
        assert value != default
        setattr(telemetry, spec.name, value)
    return telemetry


def test_every_field_round_trips():
    telemetry = _non_default_telemetry()
    data = telemetry.to_dict()
    assert set(data) == {spec.name for spec in fields(telemetry)}
    assert CampaignTelemetry.from_dict(data) == telemetry


def test_capture_reruns_round_trips_and_is_summarized():
    telemetry = CampaignTelemetry(capture_reruns=3)
    assert CampaignTelemetry.from_dict(telemetry.to_dict()) == telemetry
    assert CampaignTelemetry.from_dict({}).capture_reruns == 0
    assert "capture_reruns=3" in telemetry.summary()


def test_from_dict_tolerates_old_and_loose_records():
    assert CampaignTelemetry.from_dict(None) == CampaignTelemetry()
    loaded = CampaignTelemetry.from_dict(
        {"workers": "3", "wall_seconds": 2, "phase_seconds": {"profile": 1}}
    )
    assert loaded.workers == 3
    assert loaded.wall_seconds == 2.0 and isinstance(loaded.wall_seconds, float)
    assert loaded.phase_seconds == {"profile": 1.0}
    assert loaded.engine == "sequential"


def test_dict_fields_are_copied_both_ways():
    telemetry = CampaignTelemetry(phase_seconds={"execute": 1.0})
    data = telemetry.to_dict()
    data["phase_seconds"]["execute"] = 9.0
    assert telemetry.phase_seconds == {"execute": 1.0}
    source = {"worker_busy_seconds": {"1": 0.5}}
    loaded = CampaignTelemetry.from_dict(source)
    loaded.worker_busy_seconds["1"] = 7.0
    assert source["worker_busy_seconds"] == {"1": 0.5}
