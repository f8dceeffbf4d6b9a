"""Seeded fault injection: spec validation, determinism, store seam."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultError,
    FaultPlan,
    FaultSpec,
    install_store_gate,
)
from repro.storage import artifacts
from repro.storage.artifacts import ArtifactStore


# -- spec validation --------------------------------------------------------


def test_fault_kinds_cover_the_documented_set():
    assert set(FAULT_KINDS) == {
        "worker_kill", "torn_write", "stage_latency", "heartbeat_loss",
        "conn_drop", "partition",
    }


@pytest.mark.parametrize("kwargs", [
    {"kind": "meteor_strike"},
    {"kind": "worker_kill", "status": "meh"},
    {"kind": "worker_kill", "at": 0},
    {"kind": "worker_kill", "times": 0},
    {"kind": "worker_kill", "probability": 1.5},
    {"kind": "stage_latency", "latency": -1.0},
    # a wire op that is not in the protocol's table would never fire
    {"kind": "conn_drop", "op": "progress"},
])
def test_malformed_specs_are_rejected(kwargs):
    with pytest.raises(FaultError):
        FaultSpec(**kwargs)


def test_spec_payload_roundtrip():
    spec = FaultSpec(kind="torn_write", stage="transformation", at=3,
                     times=2, keep_bytes=10)
    assert FaultSpec.from_payload(spec.to_payload()) == spec


def test_spec_payload_rejects_unknown_keys_and_missing_kind():
    with pytest.raises(FaultError):
        FaultSpec.from_payload({"kind": "worker_kill", "frequency": 2})
    with pytest.raises(FaultError):
        FaultSpec.from_payload({"stage": "recording"})
    with pytest.raises(FaultError):
        FaultSpec.from_payload("worker_kill")


def test_plan_payload_roundtrip_and_validation():
    plan = FaultPlan([FaultSpec(kind="stage_latency", latency=0.5)], seed=9)
    decoded = FaultPlan.from_payload(plan.to_payload())
    assert decoded.seed == 9
    assert decoded.specs == plan.specs
    with pytest.raises(FaultError):
        FaultPlan.from_payload({"specs": {}})
    with pytest.raises(FaultError):
        FaultPlan.from_payload({"specs": [], "seed": True})


# -- occurrence counting ----------------------------------------------------


def events(plan, n, stage="recording", benchmark="open"):
    for _ in range(n):
        plan.on_stage(benchmark, stage, "started")


def test_latency_fires_on_the_nth_matching_occurrence_only():
    plan = FaultPlan(
        [FaultSpec(kind="stage_latency", stage="recording", at=3,
                   latency=0.0)],
    )
    events(plan, 2)
    assert plan.fired == []
    events(plan, 1)
    assert plan.fired == [("stage_latency", "open/recording:started", 3)]
    # past the occurrence point it never re-fires in this process
    events(plan, 5)
    assert len(plan.fired) == 1


def test_site_filters_select_the_firing_point():
    spec = FaultSpec(kind="stage_latency", stage="generalization",
                     benchmark="close", status="finished", latency=0.0)
    plan = FaultPlan([spec])
    plan.on_stage("close", "generalization", "started")   # wrong edge
    plan.on_stage("open", "generalization", "finished")   # wrong benchmark
    plan.on_stage("close", "recording", "finished")       # wrong stage
    assert plan.fired == []
    plan.on_stage("close", "generalization", "finished")
    assert plan.fired == [
        ("stage_latency", "close/generalization:finished", 1)
    ]


def test_worker_filter_restricts_to_one_slot():
    spec = FaultSpec(kind="stage_latency", worker=1, latency=0.0)
    other = FaultPlan([spec]).bind(0, None)
    mine = FaultPlan([spec]).bind(1, None)
    events(other, 3)
    events(mine, 1)
    assert other.fired == []
    assert len(mine.fired) == 1


def test_seeded_probability_is_deterministic():
    spec = FaultSpec(kind="stage_latency", at=1, probability=0.5,
                     latency=0.0)

    def decisions(seed):
        out = []
        for worker in range(8):
            plan = FaultPlan([spec], seed=seed).bind(worker, None)
            events(plan, 1)
            out.append(bool(plan.fired))
        return out

    first = decisions(2019)
    assert first == decisions(2019)  # same seed, same schedule
    assert decisions(7) != first or decisions(11) != first
    assert any(first) and not all(first)  # the coin actually flips


def test_fleet_wide_times_budget_via_token_dir(tmp_path):
    spec = FaultSpec(kind="stage_latency", at=1, times=1, latency=0.0)
    token_dir = str(tmp_path / "faults")
    # two processes replaying the same occurrence point: only one may
    # fire (this is the retried-job case the budget exists for)
    first = FaultPlan([spec]).bind(0, token_dir)
    second = FaultPlan([spec]).bind(1, token_dir)
    events(first, 1)
    events(second, 1)
    assert len(first.fired) + len(second.fired) == 1


def test_local_times_budget_without_token_dir():
    spec = FaultSpec(kind="stage_latency", at=2, times=1, latency=0.0)
    plan = FaultPlan([spec])
    events(plan, 4)
    assert len(plan.fired) == 1


def test_heartbeat_loss_arms_at_attempt_start():
    plan = FaultPlan([FaultSpec(kind="heartbeat_loss", at=2)])
    assert not plan.heartbeat_suppressed()
    plan.on_attempt_start()
    assert not plan.heartbeat_suppressed()
    plan.on_attempt_start()
    assert plan.heartbeat_suppressed()
    assert plan.fired == [("heartbeat_loss", "attempt", 2)]


# -- the artifact-store seam ------------------------------------------------


def test_torn_write_publishes_truncation_then_read_recovers(tmp_path):
    """Crash consistency: a torn artifact write leaves corruption under
    the final name; the store's read path treats it as a miss and the
    retried write publishes cleanly."""
    plan = FaultPlan(
        [FaultSpec(kind="torn_write", stage="transformation", at=1,
                   times=1)],
    ).bind(0, None)
    store = ArtifactStore(tmp_path / "store", fault_gate=plan)
    material = {"benchmark": "open", "seed": 1}
    payload = {"graph": ["x"] * 64}

    with pytest.raises(OSError, match="injected torn write"):
        store.save("transformation", material, payload)

    # the corruption is really on disk, under the final name
    path = store.path_for("transformation", material)
    assert path.exists()
    with pytest.raises(ValueError):
        json.loads(path.read_text())

    # corruption-tolerant read: a miss, counted invalid, file dropped
    assert store.load("transformation", material) is None
    assert store.stats.invalid == 1
    assert not path.exists()

    # the retry (fault budget spent) rewrites cleanly and reads back
    store.save("transformation", material, payload)
    assert store.load("transformation", material) == payload


def test_torn_write_keep_bytes_controls_truncation(tmp_path):
    plan = FaultPlan([FaultSpec(kind="torn_write", keep_bytes=7)]).bind(
        0, None
    )
    store = ArtifactStore(tmp_path, fault_gate=plan)
    with pytest.raises(OSError):
        store.save("recording", {"k": 1}, {"v": 2})
    assert len(store.path_for("recording", {"k": 1}).read_text()) == 7


def test_install_store_gate_seam(tmp_path):
    plan = FaultPlan([FaultSpec(kind="torn_write")]).bind(0, None)
    install_store_gate(plan)
    try:
        assert artifacts.DEFAULT_FAULT_GATE is plan
        # stores built after installation adopt the gate without plumbing
        store = ArtifactStore(tmp_path)
        assert store.fault_gate is plan
    finally:
        install_store_gate(None)
    assert artifacts.DEFAULT_FAULT_GATE is None
    assert ArtifactStore(tmp_path).fault_gate is None
