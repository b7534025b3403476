"""OctoCache core: voxel cache, Morton ordering, and mapping pipelines."""

from repro.core.adaptive import AdaptiveOctoCacheMap
from repro.core.cache import CacheStats, VoxelCache
from repro.core.config import CacheConfig, OccupancyConfig
from repro.core.locality import locality_cost, tree_distance
from repro.core.morton import morton_decode3, morton_encode3, morton_sort
from repro.core.octocache import OctoCacheMap
from repro.core.parallel import ParallelOctoCacheMap
from repro.core.pipeline_model import PipelineModel

__all__ = [
    "AdaptiveOctoCacheMap",
    "CacheConfig",
    "CacheStats",
    "OccupancyConfig",
    "OctoCacheMap",
    "ParallelOctoCacheMap",
    "PipelineModel",
    "VoxelCache",
    "locality_cost",
    "morton_decode3",
    "morton_encode3",
    "morton_sort",
    "tree_distance",
]
