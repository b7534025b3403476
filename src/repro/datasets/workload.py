"""One shared workload loader for every bench command.

``serve-bench``, ``trace-bench``, ``chaos-bench``, and ``load-bench``
all drive a named procedural dataset's scan stream through some layer of
the system.  They used to each re-implement the same three lines
(construct the dataset, materialise the scans, truncate); this helper is
that setup, in one place, so the bench commands stay in lock-step about
what "the workload" means (pose scale, truncation semantics, sensor
range).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.datasets.generator import ScanDataset, make_dataset

__all__ = ["BenchWorkload", "load_bench_workload"]


class BenchWorkload:
    """A dataset plus its materialised (optionally truncated) scan list.

    Attributes:
        dataset: the constructed :class:`ScanDataset`.
        scans: the scan stream, materialised so multiple phases (service
            run, serial verification rebuild) see the identical clouds.
    """

    __slots__ = ("dataset", "scans")

    def __init__(self, dataset: ScanDataset, scans: List) -> None:
        self.dataset = dataset
        self.scans = scans

    @property
    def max_range(self) -> float:
        """The dataset sensor's range clamp (every pipeline needs it)."""
        return self.dataset.sensor.max_range

    @property
    def name(self) -> str:
        return self.dataset.name

    def __len__(self) -> int:
        return len(self.scans)

    def __iter__(self):
        return iter(self.scans)


def load_bench_workload(
    dataset_name: str,
    ray_scale: float = 0.5,
    max_batches: Optional[int] = None,
    pose_scale: float = 1.0,
) -> BenchWorkload:
    """Build the bench workload every ``*-bench`` command drives.

    Args:
        dataset_name: one of the paper's dataset generators
            (``fr079_corridor``, ``freiburg_campus``, ``new_college``).
        ray_scale: ray-count scale factor (cheaper smoke runs).
        max_batches: keep only the first N scans (``None`` = all).
        pose_scale: trajectory scale factor.
    """
    dataset = make_dataset(
        dataset_name, pose_scale=pose_scale, ray_scale=ray_scale
    )
    scans = list(dataset.scans())
    if max_batches is not None:
        scans = scans[:max_batches]
    return BenchWorkload(dataset, scans)
