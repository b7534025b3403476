"""Seeded inputs: scans, query points and ray casts for one workload.

``--seed`` does three things and nothing else: it jitters every pose of
the ``repro.datasets`` trajectory, it seeds the sensor noise, and it
draws every query point and ray direction.  The program under test sees
only the generated ``PointCloud``s and coordinates.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from repro.datasets import Pose, make_dataset
from repro.sensor.pointcloud import PointCloud

POSITION_SIGMA_M = 0.1
YAW_SIGMA_RAD = float(np.deg2rad(3.0))
RAYCAST_RANGE_M = 8.0

Coord = Tuple[float, float, float]


@dataclasses.dataclass
class Probe:
    """One read burst: point queries plus planner-style ray casts."""

    points: List[Coord]
    rays: List[Tuple[Coord, Coord]]


@dataclasses.dataclass
class Inputs:
    """Everything one workload repetition consumes."""

    scans: List[PointCloud]
    max_range: float
    #: One probe per scan for interleaved workloads, else one post-build probe.
    probes: List[Probe]
    #: SHA-256 over the generated point-cloud bytes (origins included).
    digest: str


def _as_coords(array: np.ndarray) -> List[Coord]:
    return [tuple(row) for row in array.tolist()]


def _draw_probe(
    rng: np.random.Generator,
    scans: Sequence[PointCloud],
    ray_origins: Sequence[Coord],
    points: int,
    rays: int,
) -> Probe:
    """Half the points near a surface, half in free space along a sensed ray."""
    hits = np.concatenate([scan.points for scan in scans])
    origins = np.repeat(
        np.array([scan.origin for scan in scans]),
        [len(scan) for scan in scans],
        axis=0,
    )
    pick = rng.integers(0, len(hits), size=points)
    near_surface = points // 2
    along = rng.uniform(0.1, 0.9, size=(points, 1))
    along[:near_surface] = 1.0
    coords = origins[pick] + (hits[pick] - origins[pick]) * along
    coords[:near_surface] += rng.normal(0.0, 0.1, size=(near_surface, 3))
    directions = rng.normal(size=(rays, 3)) * (1.0, 1.0, 0.3)
    from_pose = rng.integers(0, len(ray_origins), size=rays)
    return Probe(
        points=_as_coords(coords),
        rays=[
            (ray_origins[pose], direction)
            for pose, direction in zip(from_pose.tolist(), _as_coords(directions))
        ],
    )


def build_inputs(spec, seed: int, max_scans: int = 0) -> Inputs:
    """Generate one workload's inputs from ``seed`` (same seed, same bytes)."""
    dataset = make_dataset(
        spec.dataset,
        seed=seed,
        ray_scale=spec.ray_scale,
        pose_scale=spec.pose_scale,
    )
    rng = np.random.default_rng([seed, 0x0C70CA])
    poses = [
        Pose(
            tuple(np.asarray(pose.position) + rng.normal(0.0, POSITION_SIGMA_M, 3)),
            pose.yaw + float(rng.normal(0.0, YAW_SIGMA_RAD)),
            pose.pitch,
        )
        for pose in dataset.poses
    ]
    dataset = dataclasses.replace(dataset, poses=poses)
    keep = min(n for n in (spec.scans, max_scans, len(poses)) if n)
    scans = [scan for scan, _ in zip(dataset.scans(), range(keep))]
    sha = hashlib.sha256()
    for scan in scans:
        sha.update(np.asarray(scan.origin).tobytes())
        sha.update(scan.points.tobytes())
    if spec.interleaved:
        probes = [
            _draw_probe(
                rng, scans[: index + 1], [scan.origin], spec.points, spec.rays
            )
            for index, scan in enumerate(scans)
        ]
    else:
        origins = [scan.origin for scan in scans]
        probes = [_draw_probe(rng, scans, origins, spec.points, spec.rays)]
    return Inputs(
        scans=scans,
        max_range=dataset.sensor.max_range,
        probes=probes,
        digest=sha.hexdigest(),
    )
