"""OctoMap-style probabilistic occupancy octree substrate.

This package reimplements the parts of OctoMap (Hornung et al., 2013) that
OctoCache builds on: discrete voxel keys, log-odds occupancy updates with
clamping, an array-backed octree with max-of-children inner nodes and pruning,
leaf/bbox iteration, multi-resolution queries, map ray casting, binary
serialisation, and tree merging.  The tree exposes node-visit
instrumentation so the :mod:`repro.simcache` memory-hierarchy simulator
can replay its access trace.
"""

from repro.octree.key import VoxelKey, coord_to_key, key_to_coord, key_to_morton
from repro.octree.filters import connected_components, largest_component, remove_speckles
from repro.octree.merge import map_agreement, merge_tree
from repro.octree.pathcache import PathCachingInserter
from repro.octree.occupancy import OccupancyParams, logodds, probability
from repro.octree.rayquery import RayHit, cast_ray
from repro.octree.serialize import load_tree, save_tree, tree_from_bytes, tree_to_bytes
from repro.octree.tree import OccupancyOctree

__all__ = [
    "OccupancyOctree",
    "OccupancyParams",
    "PathCachingInserter",
    "RayHit",
    "VoxelKey",
    "cast_ray",
    "connected_components",
    "largest_component",
    "remove_speckles",
    "coord_to_key",
    "key_to_coord",
    "key_to_morton",
    "load_tree",
    "logodds",
    "map_agreement",
    "merge_tree",
    "probability",
    "save_tree",
    "tree_from_bytes",
    "tree_to_bytes",
]
