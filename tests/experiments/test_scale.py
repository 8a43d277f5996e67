"""Golden determinism tests for the sharded scale engine."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments.scale import ScaleConfig, run_scale, run_shard

# Small but real: two shards over the full stack, ~a second of wall time.
TEST_CONFIG = ScaleConfig(
    population=50_000,
    rate_ops_per_ms=50.0,
    duration_ms=20.0,
    warmup_ms=5.0,
    drain_ms=10.0,
    shards=2,
    workers=1,
    seed=0,
)


@pytest.fixture(scope="module")
def artifact():
    return run_scale(TEST_CONFIG)


def _hash_deterministic(doc: dict) -> str:
    deterministic = {k: doc[k] for k in ("schema", "config", "shards", "merged")}
    return hashlib.sha256(
        json.dumps(deterministic, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def test_artifact_structure(artifact):
    assert artifact["schema"] == "repro-scale-v1"
    assert len(artifact["shards"]) == 2
    merged = artifact["merged"]
    assert merged["arrivals"] == sum(s["arrivals"] for s in artifact["shards"])
    assert merged["events"] == sum(s["events"] for s in artifact["shards"])
    assert merged["detailed"] == sum(s["detailed"] for s in artifact["shards"])
    assert merged["offered_ops_per_s"] > 0
    assert merged["collector"]["completed"] > 0
    assert merged["histogram"]["count"] == merged["collector"]["completed"]
    # hash covers exactly the deterministic sections, nothing machine-local
    assert artifact["artifact_hash"] == _hash_deterministic(artifact)
    assert "timing" in artifact and "aggregate_events_per_sec" in artifact["timing"]


def test_bit_identical_across_runs(artifact):
    again = run_scale(TEST_CONFIG)
    assert again["artifact_hash"] == artifact["artifact_hash"]
    assert again["merged"]["dispatch_hash"] == artifact["merged"]["dispatch_hash"]


def test_artifact_invariant_to_worker_count(artifact):
    forked = run_scale(replace(TEST_CONFIG, workers=2))
    assert forked["artifact_hash"] == artifact["artifact_hash"]
    assert forked["merged"] == artifact["merged"]
    # but worker count is honestly recorded in the unhashed timing section
    assert forked["timing"]["workers"] == 2


def test_seed_changes_artifact(artifact):
    other = run_scale(replace(TEST_CONFIG, seed=1))
    assert other["artifact_hash"] != artifact["artifact_hash"]
    assert other["merged"]["dispatch_hash"] != artifact["merged"]["dispatch_hash"]


def test_shards_have_distinct_streams(artifact):
    hashes = [s["dispatch_hash"] for s in artifact["shards"]]
    assert len(set(hashes)) == len(hashes)
    ids = [s["shard_id"] for s in artifact["shards"]]
    assert ids == sorted(ids)


def test_merged_dispatch_hash_is_fold_of_shards(artifact):
    h = hashlib.sha256()
    for s in artifact["shards"]:
        h.update(f"{s['shard_id']}:{s['dispatch_hash']}\n".encode())
    assert artifact["merged"]["dispatch_hash"] == h.hexdigest()


def test_population_scales_without_event_growth(artifact):
    # The tentpole claim: virtual clients are free.  20x the population
    # must not change arrival/event counts — only which ids get sampled.
    big = run_scale(replace(TEST_CONFIG, population=1_000_000))
    assert big["merged"]["arrivals"] == pytest.approx(
        artifact["merged"]["arrivals"], rel=0.05
    )
    assert big["merged"]["max_client_id"] >= artifact["merged"]["max_client_id"]


def test_unknown_setup_rejected():
    with pytest.raises(ReproError):
        run_scale(replace(TEST_CONFIG, setup="NoSuchFS (9,9)"))


def test_unknown_scenario_rejected():
    from dataclasses import asdict

    bad = replace(TEST_CONFIG, scenario="no-such-scenario")
    with pytest.raises(ReproError):
        run_shard({"config": asdict(bad), "shard_id": 0})


def test_datanode_shut_down_mid_scan_fails_the_op_not_the_run():
    # An AZ outage kills NDB datanodes while LDM scans are queued on them.
    # The scan must come back to its TC as an error (the op fails or
    # retries) instead of escaping the handler and aborting the shard.
    config = ScaleConfig(
        population=1000,
        rate_ops_per_ms=500.0,
        detail_every=32,
        duration_ms=200.0,
        shards=2,
        workers=1,
        scenario="az-outage-under-load",
    )
    merged = run_scale(config)["merged"]
    assert merged["detailed"] > 0
    assert merged["all_green"] is True


@pytest.mark.parametrize("setup", ["HopsFS-CL (3,3)", "CephFS"])
def test_scenario_shard_stubs_sit_in_the_shard_az(monkeypatch, setup):
    # A scenario shard drives its load from stubs in the shard's AZ, as a
    # fault-free shard does; the AZ outage then hits the same clients.
    import repro.experiments.scale as scale

    class Captured(Exception):
        pass

    def capture(env, stubs, *args, az, **kwargs):
        topology = stubs[0].network.topology
        raise Captured([topology.az_of(stub.addr) for stub in stubs], az)

    monkeypatch.setattr(scale, "AggregatedArrivalEngine", capture)
    config = replace(TEST_CONFIG, setup=setup, shards=3, stubs_per_shard=6,
                     scenario="az-outage-under-load")
    from dataclasses import asdict

    for shard_id in range(3):
        with pytest.raises(Captured) as caught:
            run_shard({"config": asdict(config), "shard_id": shard_id})
        stub_azs, shard_az = caught.value.args
        assert stub_azs == [shard_az] * 6
