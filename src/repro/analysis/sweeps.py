"""Construction-experiment drivers (Figures 6, 20–24; Table 3).

`run_construction` feeds a whole scan dataset through one mapping pipeline
and collects everything the paper's construction figures need: total and
per-stage runtimes, cache hit ratio, octree size, and the per-batch stage
records that the analytic two-thread pipeline model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.interface import MappingSystem
from repro.core.config import CacheConfig
from repro.core.octocache import OctoCacheMap
from repro.core.pipeline_model import PipelineModel, PipelineTimeline
from repro.datasets.generator import ScanDataset
from repro.datasets.stats import dataset_statistics

__all__ = [
    "ConstructionResult",
    "run_construction",
    "sweep_resolutions",
    "cache_size_sweep",
    "tau_sweep",
    "suggest_cache_config",
]

#: Builds a fresh mapping pipeline for a given resolution.
PipelineFactory = Callable[[float], MappingSystem]


@dataclass
class ConstructionResult:
    """Metrics of one full 3-D environment construction run.

    Attributes:
        pipeline: pipeline name.
        dataset: dataset name.
        resolution: mapping resolution.
        total_seconds: end-to-end generation wall time (all stages).
        critical_seconds: time queries would have waited (critical path).
        stage_seconds: per-stage totals.
        octree_nodes: backend octree size after finalisation.
        octree_voxels_written: voxel updates the octree actually received.
        cache_hit_ratio: insert-path hit ratio (0.0 for cache-less
            pipelines).
        cache_resident_peak: cache cells resident after the last batch.
        timeline: analytic serial/parallel makespans from the measured
            per-batch stage times.
        batch_stage_times: the pipeline's per-batch records (the inputs
            the timeline was computed from; also consumed by the Fig-13
            timeline renderer).
    """

    pipeline: str
    dataset: str
    resolution: float
    total_seconds: float
    critical_seconds: float
    stage_seconds: Dict[str, float]
    octree_nodes: int
    octree_voxels_written: int
    cache_hit_ratio: float
    cache_resident_peak: int
    timeline: PipelineTimeline
    batch_stage_times: List = field(default_factory=list)


def run_construction(
    dataset: ScanDataset,
    resolution: float,
    pipeline_factory: PipelineFactory,
    depth: int = 16,
    max_batches: Optional[int] = None,
) -> ConstructionResult:
    """Build the full map of ``dataset`` at ``resolution`` with one pipeline."""
    mapping = pipeline_factory(resolution)
    batches = 0
    for cloud in dataset.scans():
        mapping.insert_point_cloud(cloud)
        batches += 1
        if max_batches is not None and batches >= max_batches:
            break
    resident_peak = 0
    hit_ratio = 0.0
    if isinstance(mapping, OctoCacheMap):
        resident_peak = mapping.cache.resident_voxels
        hit_ratio = mapping.cache.stats.hit_ratio
    mapping.finalize()

    if isinstance(mapping, OctoCacheMap):
        octree_voxels = sum(record.evicted for record in mapping.batches)
    else:  # cache-less pipelines update the octree once per observation
        octree_voxels = sum(record.observations for record in mapping.batches)

    return ConstructionResult(
        pipeline=mapping.name,
        dataset=dataset.name,
        resolution=resolution,
        total_seconds=mapping.total_seconds(),
        critical_seconds=mapping.critical_path_seconds(),
        stage_seconds=mapping.stage_seconds(),
        octree_nodes=mapping.octree.num_nodes,
        octree_voxels_written=octree_voxels,
        cache_hit_ratio=hit_ratio,
        cache_resident_peak=resident_peak,
        timeline=PipelineModel(mapping.batches).simulate(),
        batch_stage_times=mapping.batches,
    )


def sweep_resolutions(
    dataset: ScanDataset,
    resolutions: Sequence[float],
    pipeline_factory: PipelineFactory,
    depth: int = 16,
    max_batches: Optional[int] = None,
) -> List[ConstructionResult]:
    """Figure 20/21 sweep: one construction run per resolution."""
    return [
        run_construction(
            dataset, resolution, pipeline_factory, depth=depth, max_batches=max_batches
        )
        for resolution in resolutions
    ]


def suggest_cache_config(
    dataset: ScanDataset,
    resolution: float,
    depth: int = 16,
    bucket_threshold: int = 4,
    size_factor: float = 3.5,
    use_morton_indexing: bool = True,
) -> CacheConfig:
    """Size the cache as the paper does (§5.2): 3–4× non-dup voxels/batch."""
    stats = dataset_statistics(dataset, resolution, depth)
    per_batch = max(
        1, stats.distinct_voxels // max(1, stats.num_point_clouds)
    )
    # Per-batch distinct voxels are higher than dataset-distinct / batches
    # because batches overlap; correct with the measured duplication.
    if stats.per_batch_duplication:
        mean_dup = sum(stats.per_batch_duplication) / len(stats.per_batch_duplication)
        per_batch = max(
            per_batch,
            int(stats.total_observations / stats.num_point_clouds / mean_dup),
        )
    return CacheConfig.for_batch_size(
        per_batch,
        bucket_threshold=bucket_threshold,
        size_factor=size_factor,
        use_morton_indexing=use_morton_indexing,
    )


def cache_size_sweep(
    dataset: ScanDataset,
    resolution: float,
    num_buckets_list: Sequence[int],
    depth: int = 16,
    bucket_threshold: int = 4,
    max_batches: Optional[int] = None,
) -> List[ConstructionResult]:
    """Figure 23 sweep: hit ratio and runtime versus cache size."""
    results = []
    for num_buckets in num_buckets_list:
        config = CacheConfig(
            num_buckets=num_buckets, bucket_threshold=bucket_threshold
        )
        results.append(
            run_construction(
                dataset,
                resolution,
                lambda res, cfg=config: OctoCacheMap(
                    resolution=res,
                    depth=depth,
                    max_range=dataset.sensor.max_range,
                    cache_config=cfg,
                ),
                depth=depth,
                max_batches=max_batches,
            )
        )
    return results


def tau_sweep(
    dataset: ScanDataset,
    resolution: float,
    taus: Sequence[int],
    total_capacity: int,
    depth: int = 16,
    max_batches: Optional[int] = None,
) -> List[ConstructionResult]:
    """Figure 24 sweep: fixed cache bytes, shape varied via τ.

    For each τ the bucket count is ``total_capacity / τ`` rounded up to a
    power of two, matching the paper's fixed-size-M methodology.
    """
    results = []
    for tau in taus:
        buckets = 1
        while buckets * tau < total_capacity:
            buckets *= 2
        config = CacheConfig(num_buckets=buckets, bucket_threshold=tau)
        results.append(
            run_construction(
                dataset,
                resolution,
                lambda res, cfg=config: OctoCacheMap(
                    resolution=res,
                    depth=depth,
                    max_range=dataset.sensor.max_range,
                    cache_config=cfg,
                ),
                depth=depth,
                max_batches=max_batches,
            )
        )
    return results
