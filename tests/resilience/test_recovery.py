"""Tests for the checkpoint store and exact shard rebuild."""

import random

import pytest

from repro.core.octocache import OctoCacheMap
from repro.octree.serialize import tree_to_bytes
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.recovery import (
    CheckpointStore,
    ShardCheckpoint,
    ShardHealth,
    restore_pipeline,
)
from repro.sensor.scaninsert import ScanBatch

RESOLUTION = 0.1
DEPTH = 6


def make_pipeline():
    return OctoCacheMap(resolution=RESOLUTION, depth=DEPTH)


def make_batches(num_batches=3, per_batch=40, seed=11):
    """Deterministic observation batches over a small key grid."""
    rng = random.Random(seed)
    batches = []
    for _ in range(num_batches):
        batch = []
        for _ in range(per_batch):
            key = (rng.randrange(32), rng.randrange(32), rng.randrange(32))
            batch.append((key, rng.random() < 0.6))
        batches.append(batch)
    return batches


def keys_of(batches):
    return {key for batch in batches for key, _ in batch}


def as_batches(batches):
    return [ScanBatch.coerce(batch) for batch in batches]


def build_direct(batches):
    """The fault-free reference: insert every batch into one pipeline."""
    pipeline = make_pipeline()
    for batch in batches:
        pipeline.insert_batch(ScanBatch(observations=list(batch), num_rays=0))
    return pipeline


class TestShardHealth:
    def test_values(self):
        assert ShardHealth.HEALTHY.value == "healthy"
        assert ShardHealth.RECOVERING.value == "recovering"
        assert ShardHealth.DEAD.value == "dead"
        # str-enum: usable directly where the service reports health text
        assert ShardHealth.DEAD == "dead"


class TestCheckpointStore:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            CheckpointStore(0)

    def test_journal_append_and_length(self):
        store = CheckpointStore(2)
        assert store.append(0, ScanBatch.coerce([((1, 2, 3), True)])) == 0
        assert store.append(0, ScanBatch.coerce([((4, 5, 6), False)])) == 1
        assert store.append(1, ScanBatch.coerce([((7, 8, 9), True)])) == 0
        assert store.journal_length(0) == 2
        assert store.journal_length(1) == 1

    def test_snapshot_cannot_claim_unjournaled_entries(self):
        store = CheckpointStore(1)
        store.append(0, ScanBatch.coerce([((1, 1, 1), True)]))
        tree = make_pipeline().octree
        with pytest.raises(ValueError, match="only journaled"):
            store.write_snapshot(0, tree, upto=5)

    def test_recovery_state_without_snapshot_replays_everything(self):
        store = CheckpointStore(1)
        batches = make_batches(num_batches=2)
        for batch in as_batches(batches):
            store.append(0, batch)
        checkpoint, tail = store.recovery_state(0)
        assert checkpoint is None
        assert [entry.observations for entry in tail] == batches

    def test_recovery_state_with_snapshot_returns_tail_only(self):
        store = CheckpointStore(1)
        batches = make_batches(num_batches=3)
        for batch in as_batches(batches):
            store.append(0, batch)
        reference = build_direct(batches[:1])
        reference.finalize()
        store.write_snapshot(0, reference.octree, upto=1)
        checkpoint, tail = store.recovery_state(0)
        assert checkpoint is not None
        assert checkpoint.upto == 1
        assert [entry.observations for entry in tail] == batches[1:]

    def test_snapshot_persisted_to_directory(self, tmp_path):
        store = CheckpointStore(1, directory=str(tmp_path))
        pipeline = build_direct(make_batches(num_batches=1))
        pipeline.finalize()
        store.append(0, ScanBatch.coerce([((1, 1, 1), True)]))
        checkpoint = store.write_snapshot(0, pipeline.octree, upto=1)
        path = tmp_path / "shard-0.oct"
        assert path.read_bytes() == checkpoint.blob

    def test_stats(self):
        store = CheckpointStore(1)
        store.append(0, ScanBatch.coerce([((1, 1, 1), True)]))
        store.append(0, ScanBatch.coerce([((2, 2, 2), False)]))
        pipeline = make_pipeline()
        store.write_snapshot(0, pipeline.octree, upto=1)
        stats = store.stats(0)
        assert stats["journal_entries"] == 2
        assert stats["snapshot_upto"] == 1
        assert stats["snapshot_bytes"] > 0

    def test_injected_snapshot_failure_keeps_previous_checkpoint(self):
        plan = FaultPlan(
            [FaultSpec(site="snapshot.write", mode="error", after=1)]
        )
        store = CheckpointStore(1, fault_plan=plan)
        store.append(0, ScanBatch.coerce([((1, 1, 1), True)]))
        store.append(0, ScanBatch.coerce([((2, 2, 2), True)]))
        tree = make_pipeline().octree
        first = store.write_snapshot(0, tree, upto=1)
        with pytest.raises(InjectedFault):
            store.write_snapshot(0, tree, upto=2)
        assert store.checkpoint(0) is first


class TestRestorePipeline:
    def test_replay_only_matches_direct_build(self):
        batches = make_batches()
        direct = build_direct(batches)
        restored = restore_pipeline(make_pipeline, None, as_batches(batches))
        for key in sorted(keys_of(batches)):
            assert restored.query_key(key) == pytest.approx(
                direct.query_key(key)
            )

    def test_snapshot_plus_tail_matches_direct_build(self):
        batches = make_batches(num_batches=4)
        prefix = build_direct(batches[:2])
        prefix.finalize()  # flush the cache: octree is now authoritative
        checkpoint = ShardCheckpoint(
            blob=tree_to_bytes(prefix.octree), upto=2
        )
        restored = restore_pipeline(
            make_pipeline, checkpoint, as_batches(batches[2:])
        )
        direct = build_direct(batches)
        for key in sorted(keys_of(batches)):
            assert restored.query_key(key) == pytest.approx(
                direct.query_key(key)
            )

    def test_shape_mismatch_rejected(self):
        other = OctoCacheMap(resolution=RESOLUTION, depth=DEPTH + 1)
        checkpoint = ShardCheckpoint(
            blob=tree_to_bytes(other.octree), upto=0
        )
        with pytest.raises(ValueError, match="does not match"):
            restore_pipeline(make_pipeline, checkpoint, [])
