"""The golden reference: what the built map must equal, bit for bit.

``bench/golden.json`` maps ``<workload>:<input digest>`` to the leaf
count, occupied count and SHA-256 over the sorted ``(key, float64
value)`` finest leaves of the map built by the independent path —
``repro.baselines.octomap.OctoMapPipeline(kernel="scalar")``: no cache,
no shards, no vector kernels, one ``update_node`` per observation.  It
is committed for seeds 1 and 2 (``python3 -m bench golden --regen``).

That pipeline needs minutes per workload, so an input without a
committed entry (a new seed, a smoke run, a host whose numpy generates
different clouds) is checked against a *flat* reference built live,
outside every timed region: the scalar ray tracer's observation stream
folded per voxel with ``OccupancyParams.update`` into a plain dict — no
cache, no octree.  ``--regen`` asserts the two references agree, which
anchors the cheap one to the named one.  Live results are cached under
``bench/results/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.baselines.octomap import OctoMapPipeline
from repro.octree.merge import map_agreement
from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree
from repro.sensor.scaninsert import trace_scan

from bench.inputs import Inputs

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
LIVE_CACHE_PATH = Path(__file__).resolve().parent / "results" / "golden-live.json"

RESOLUTION = 0.2
DEPTH = 12


@dataclasses.dataclass(frozen=True)
class MapDigest:
    leaves: int
    occupied: int
    sha256: str


Leaves = Tuple[np.ndarray, np.ndarray]


def sorted_leaves(items: Iterable[Tuple[tuple, float]]) -> Leaves:
    """``(keys (N,3) int64, values (N,) float64)`` sorted by key."""
    pairs = list(items)
    keys = np.array([key for key, _ in pairs], dtype=np.int64).reshape(-1, 3)
    values = np.array([value for _, value in pairs], dtype=np.float64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    return keys[order], values[order]


def digest_leaves(leaves: Leaves, params: OccupancyParams) -> MapDigest:
    keys, values = leaves
    sha = hashlib.sha256()
    sha.update(keys.tobytes())
    sha.update(values.tobytes())
    return MapDigest(
        leaves=int(len(values)),
        occupied=int((values >= params.threshold).sum()),
        sha256=sha.hexdigest(),
    )


def flat_reference(inputs: Inputs) -> Dict[tuple, float]:
    """Voxel → log-odds from scalar tracing and a per-observation fold."""
    params = OccupancyParams()
    update, start = params.update, params.threshold
    values: Dict[tuple, float] = {}
    for scan in inputs.scans:
        batch = trace_scan(
            scan, RESOLUTION, DEPTH, max_range=inputs.max_range, kernel="scalar"
        )
        for key, occupied in batch.observations:
            values[key] = update(values.get(key, start), occupied)
    return values


def octomap_reference(inputs: Inputs) -> OccupancyOctree:
    """The named reference: scalar ``OctoMapPipeline``, slow by design."""
    pipeline = OctoMapPipeline(
        RESOLUTION, depth=DEPTH, max_range=inputs.max_range, kernel="scalar"
    )
    for scan in inputs.scans:
        pipeline.insert_point_cloud(scan)
    pipeline.finalize()
    return pipeline.octree


def _load(path: Path) -> Dict[str, dict]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _store(path: Path, entries: Dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")


def reference_digest(workload: str, inputs: Inputs) -> Tuple[MapDigest, str]:
    """The digest the built map must have, and where it came from."""
    entry_key = f"{workload}:{inputs.digest}"
    for source, path in (("golden", GOLDEN_PATH), ("live-cache", LIVE_CACHE_PATH)):
        entry = _load(path).get(entry_key)
        if entry is not None:
            return MapDigest(**entry), source
    digest = digest_leaves(
        sorted_leaves(flat_reference(inputs).items()), OccupancyParams()
    )
    cached = _load(LIVE_CACHE_PATH)
    cached[entry_key] = dataclasses.asdict(digest)
    _store(LIVE_CACHE_PATH, cached)
    return digest, "live"


def leafwise_agreement(inputs: Inputs, built: Leaves) -> Tuple[float, str]:
    """Share of finest leaves equal bit for bit, after a digest mismatch."""
    reference = flat_reference(inputs)
    keys, values = built
    built_map = dict(zip(map(tuple, keys.tolist()), values.tolist()))
    universe = reference.keys() | built_map.keys()
    equal = sum(
        1 for key in universe if reference.get(key) == built_map.get(key)
    )
    trees = []
    for voxels in (reference, built_map):
        tree = OccupancyOctree(resolution=RESOLUTION, depth=DEPTH)
        for key, value in voxels.items():
            tree.set_leaf(key, value)
        trees.append(tree)
    report = map_agreement(trees[0], trees[1])
    detail = (
        f"{equal}/{len(universe)} leaves bit-equal; decisions: "
        f"{report.matching}/{report.compared} match, {report.missing} missing"
    )
    return (equal / len(universe) if universe else 1.0), detail


def regenerate(workloads, seeds, build_inputs) -> Dict[str, dict]:
    """Rebuild ``golden.json`` with the scalar ``OctoMapPipeline``."""
    entries: Dict[str, dict] = {}
    built: Dict[str, MapDigest] = {}
    for seed in seeds:
        for spec in workloads:
            inputs = build_inputs(spec, seed)
            digest = built.get(inputs.digest)
            if digest is None:
                tree = octomap_reference(inputs)
                digest = digest_leaves(
                    sorted_leaves(tree.iter_finest_leaves()), tree.params
                )
                flat = digest_leaves(
                    sorted_leaves(flat_reference(inputs).items()), tree.params
                )
                if flat != digest:
                    raise SystemExit(
                        f"flat reference disagrees with OctoMapPipeline on "
                        f"{spec.name} seed {seed}: {flat} != {digest}"
                    )
                built[inputs.digest] = digest
            entries[f"{spec.name}:{inputs.digest}"] = dataclasses.asdict(digest)
            print(f"golden {spec.name} seed {seed}: {digest}", flush=True)
    _store(GOLDEN_PATH, entries)
    return entries
