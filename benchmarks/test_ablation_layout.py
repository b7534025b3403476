"""Ablation: node-storage layout — pointer-sized nodes vs dense records.

§2.3 of the paper surveys replacing OctoMap's pointer octree with denser
structures.  The tree here keeps its nodes in arrays, so a node id is an
array slot; what a slot *costs* in the modeled memory hierarchy is the
address space's ``node_bytes``.  Two layout effects are separable:

1. **Density** — the same node-visit trace costs less when nodes are 16
   bytes (4 per cache line, a dense record) than 48 bytes (1.3 per line,
   OctoMap's C++ pointer node): replayed through the simulator by
   swapping ``AddressSpace(node_bytes=…)`` over the one tree's trace.
2. **Orthogonality** — the Morton-ordering effect persists under both
   layouts: layout density and insertion order are independent levers.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.morton import morton_encode3
from repro.octree.tree import OccupancyOctree
from repro.simcache.address_space import AddressSpace
from repro.simcache.cost_model import scaled_tx2_hierarchy
from repro.simcache.trace import TraceRecorder, replay_trace

from .conftest import BENCH_DEPTH

NUM_KEYS = 15_000


def surface_keys():
    rng = np.random.default_rng(31)
    x = rng.integers(0, 512, NUM_KEYS)
    y = rng.integers(0, 512, NUM_KEYS)
    z = (128 + 9 * np.sin(x / 35.0) + rng.integers(0, 2, NUM_KEYS)).astype(int)
    return list(zip(x.tolist(), y.tolist(), z.tolist()))


def trace_of(ordering):
    recorder = TraceRecorder()
    tree = OccupancyOctree(
        resolution=0.1, depth=BENCH_DEPTH, visit_hook=recorder.record
    )
    for key in ordering:
        tree.update_node(key, True)
    return recorder.trace, len(set(ordering))


def test_ablation_storage_layout(benchmark, emit):
    keys = surface_keys()
    rng = np.random.default_rng(3)
    shuffled = list(keys)
    rng.shuffle(shuffled)
    morton_keys = sorted(keys, key=lambda k: morton_encode3(*k))

    def run():
        results = {}
        for order_name, ordering in (
            ("morton", morton_keys),
            ("random", shuffled),
        ):
            # One visit trace per ordering, costed under both layouts.
            trace, distinct = trace_of(ordering)
            for layout_name, node_bytes in (("pointer-48B", 48), ("array-16B", 16)):
                space = AddressSpace(node_bytes=node_bytes)
                # Fixed cache geometry (scaled once, for the 48B working
                # set): only the address packing differs between layouts.
                hierarchy = scaled_tx2_hierarchy(
                    int(distinct * 1.14), address_space=space
                )
                replay = replay_trace(trace, hierarchy=hierarchy)
                results[(order_name, layout_name)] = (
                    replay.total_cycles / len(ordering)
                )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [order, layout, f"{cycles:.1f}"]
        for (order, layout), cycles in results.items()
    ]
    emit(
        "ablation_storage_layout",
        format_table(["ordering", "layout", "cycles/voxel"], rows),
    )

    # Density helps for any fixed ordering...
    for order in ("morton", "random"):
        assert (
            results[(order, "array-16B")] <= results[(order, "pointer-48B")]
        )
    # ...and the ordering effect survives both layouts (orthogonal levers).
    for layout in ("pointer-48B", "array-16B"):
        ratio = results[("random", layout)] / results[("morton", layout)]
        assert ratio > 1.2, (layout, ratio)
