"""The reference is independent of the code under test, and it bites."""

import numpy as np

from repro.octree.occupancy import OccupancyParams

from bench import golden
from bench.inputs import build_inputs
from bench.workloads import WORKLOADS, construct, drive


def small_inputs():
    return build_inputs(WORKLOADS["campus_sparse"], seed=1, max_scans=3)


def test_flat_reference_equals_the_scalar_octomap_pipeline():
    inputs = small_inputs()
    params = OccupancyParams()
    flat = golden.digest_leaves(
        golden.sorted_leaves(golden.flat_reference(inputs).items()), params
    )
    tree = golden.octomap_reference(inputs)
    named = golden.digest_leaves(
        golden.sorted_leaves(tree.iter_finest_leaves()), params
    )
    assert flat == named and flat.leaves > 0 and 0 < flat.occupied < flat.leaves


def test_the_built_map_matches_and_a_flipped_leaf_does_not():
    spec = WORKLOADS["campus_sparse"]
    inputs = small_inputs()
    rep = drive(spec, inputs, construct(spec, inputs), None)
    assert rep.failed == 0
    params = rep.tree.params
    keys, values = golden.sorted_leaves(rep.tree.iter_finest_leaves())
    reference = golden.digest_leaves(
        golden.sorted_leaves(golden.flat_reference(inputs).items()), params
    )
    assert golden.digest_leaves((keys, values), params) == reference
    share, _detail = golden.leafwise_agreement(inputs, (keys, values))
    assert share == 1.0
    corrupted = values.copy()
    corrupted[0] = np.nextafter(corrupted[0], np.inf)
    assert golden.digest_leaves((keys, corrupted), params) != reference
    share, detail = golden.leafwise_agreement(inputs, (keys, corrupted))
    assert share == (len(values) - 1) / len(values)
    assert "bit-equal" in detail


def test_committed_golden_covers_seeds_one_and_two():
    entries = golden._load(golden.GOLDEN_PATH)
    for seed in (1, 2):
        for spec in WORKLOADS.values():
            if spec.name == "corridor_dense":
                continue  # generating its inputs alone takes a second; see smoke
            inputs = build_inputs(spec, seed)
            assert f"{spec.name}:{inputs.digest}" in entries, (spec.name, seed)
