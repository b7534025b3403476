"""Seeded inputs: same seed, same bytes; another seed, other bytes."""

from bench.inputs import build_inputs
from bench.workloads import WORKLOADS


def test_same_seed_same_digest_other_seed_other_digest():
    spec = WORKLOADS["campus_sparse"]
    first = build_inputs(spec, seed=5, max_scans=4)
    again = build_inputs(spec, seed=5, max_scans=4)
    other = build_inputs(spec, seed=6, max_scans=4)
    assert first.digest == again.digest
    assert first.probes[0].points == again.probes[0].points
    assert first.probes[0].rays == again.probes[0].rays
    assert first.digest != other.digest
    assert first.probes[0].points != other.probes[0].points


def test_the_seed_moves_every_pose():
    spec = WORKLOADS["service_thread"]
    one = build_inputs(spec, seed=1, max_scans=3)
    two = build_inputs(spec, seed=2, max_scans=3)
    assert all(a.origin != b.origin for a, b in zip(one.scans, two.scans))


def test_probe_shape_follows_the_workload():
    mixed = build_inputs(WORKLOADS["college_mixed"], seed=1, max_scans=3)
    assert len(mixed.scans) == 3 and len(mixed.probes) == 3
    assert len(mixed.probes[0].points) == 4000 and len(mixed.probes[0].rays) == 200
    # Interleaved ray casts start from the pose that was just mapped.
    assert {origin for origin, _ in mixed.probes[2].rays} == {mixed.scans[2].origin}
    dense = build_inputs(WORKLOADS["corridor_dense"], seed=1, max_scans=2)
    assert len(dense.probes) == 1 and len(dense.probes[0].points) == 2000
