"""Tests for map ray queries (cast_ray)."""

import numpy as np
import pytest

from repro.octree.rayquery import cast_ray
from repro.octree.tree import OccupancyOctree
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import trace_scan
from repro.service.sharded_map import ShardedMap

RES = 0.1
DEPTH = 10


def wall_tree():
    """A tree with a scanned wall at x = 2 m."""
    tree = OccupancyOctree(resolution=RES, depth=DEPTH)
    ys = np.linspace(-1.0, 1.0, 21)
    zs = np.linspace(-1.0, 1.0, 21)
    points = np.array([[2.0, y, z] for y in ys for z in zs])
    batch = trace_scan(PointCloud(points, origin=(0.0, 0.0, 0.0)), RES, DEPTH)
    tree.update_batch(batch.observations)
    return tree


class TestCastRay:
    def test_hits_wall(self):
        tree = wall_tree()
        result = cast_ray(tree, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_range=5.0)
        assert result.hit
        assert result.endpoint[0] == pytest.approx(2.0, abs=2 * RES)

    def test_miss_within_range(self):
        tree = wall_tree()
        result = cast_ray(tree, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_range=1.0)
        assert not result.hit
        assert result.endpoint[0] < 1.1

    def test_miss_into_unknown_ignored(self):
        tree = wall_tree()
        result = cast_ray(
            tree, (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), max_range=3.0
        )
        assert not result.hit
        assert not result.blocked_by_unknown

    def test_unknown_blocks_when_requested(self):
        tree = wall_tree()
        result = cast_ray(
            tree,
            (0.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0),
            max_range=3.0,
            ignore_unknown=False,
        )
        assert not result.hit
        assert result.blocked_by_unknown

    def test_direction_normalised(self):
        tree = wall_tree()
        short = cast_ray(tree, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_range=5.0)
        scaled = cast_ray(tree, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), max_range=5.0)
        assert short.key == scaled.key

    def test_validation(self):
        tree = wall_tree()
        with pytest.raises(ValueError):
            cast_ray(tree, (0, 0, 0), (1, 0, 0), max_range=0.0)
        with pytest.raises(ValueError):
            cast_ray(tree, (0, 0, 0), (0, 0, 0), max_range=1.0)

    def test_zero_length_in_voxel(self):
        tree = wall_tree()
        result = cast_ray(
            tree, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_range=RES / 10
        )
        assert not result.hit
        assert result.key == tree.coord_to_key((0.0, 0.0, 0.0))


class TestKeyConventions:
    """One walk, OctoMap's ``castRay`` convention: the serial ``cast_ray``
    and ``MapBackend.cast_ray`` both read the origin's voxel first and the
    endpoint's last."""

    ORIGIN, DIRECTION, RANGE = (0.05, 0.05, 0.05), (1.0, 0.0, 0.0), 1.0
    START, END = (512, 512, 512), (522, 512, 512)

    def casts(self, occupied):
        tree = OccupancyOctree(resolution=RES, depth=DEPTH)
        sharded = ShardedMap(resolution=RES, depth=DEPTH, num_shards=2)
        free = [(x, 512, 512) for x in range(512, 523) if (x, 512, 512) != occupied]
        observations = [(key, False) for key in free] + [(occupied, True)]
        tree.update_batch(observations)
        sharded.insert_observations(observations)
        return (
            cast_ray(tree, self.ORIGIN, self.DIRECTION, self.RANGE),
            sharded.cast_ray(self.ORIGIN, self.DIRECTION, self.RANGE),
        )

    def test_the_ends_are_where_the_test_says(self):
        tree = OccupancyOctree(resolution=RES, depth=DEPTH)
        assert tree.coord_to_key(self.ORIGIN) == self.START
        assert tree.coord_to_key((1.05, 0.05, 0.05)) == self.END

    @pytest.mark.parametrize("occupied", [START, END], ids=["origin", "endpoint"])
    def test_both_read_the_voxel_at_each_end(self, occupied):
        serial, sharded = self.casts(occupied)
        assert serial.hit and serial.key == occupied
        assert sharded == serial

    def test_between_the_ends_they_agree(self):
        serial, sharded = self.casts(occupied=(517, 512, 512))
        assert serial.hit and serial.key == (517, 512, 512)
        assert sharded == serial

    def test_a_range_that_is_not_positive_raises_in_both(self):
        tree = OccupancyOctree(resolution=RES, depth=DEPTH)
        sharded = ShardedMap(resolution=RES, depth=DEPTH, num_shards=2)
        for max_range in (0.0, -1.0):
            with pytest.raises(ValueError, match="max_range"):
                cast_ray(tree, self.ORIGIN, self.DIRECTION, max_range)
            with pytest.raises(ValueError, match="max_range"):
                sharded.cast_ray(self.ORIGIN, self.DIRECTION, max_range)
