"""One tree, one cache storage, and no per-voxel Python on the bulk path.

Structural guard for the columnar back end: the pointer-node module, the
list-backed array tree and the ``EvictedCell`` list type are gone; the
bulk cache and octree operations contain no loop over cells or keys
(their only loops step through tree levels); and the pipelines hand an
evicted batch to the octree as the arrays it arrived in.
"""

import ast
import importlib.util
import inspect
import pathlib
import textwrap

import pytest

import repro
from repro.core.cache import VoxelCache
from repro.core.octocache import OctoCacheMap
from repro.core.parallel import ParallelOctoCacheMap
from repro.octree.tree import OccupancyOctree
from repro.service.shard_slots import ShardSlots

SOURCE_ROOT = pathlib.Path(repro.__file__).parent


@pytest.mark.parametrize("module", ["repro.octree.node", "repro.octree.arraytree"])
def test_replaced_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None


def test_evicted_cell_lists_are_gone():
    holders = [
        path.relative_to(SOURCE_ROOT).as_posix()
        for path in SOURCE_ROOT.rglob("*.py")
        if "EvictedCell" in path.read_text()
    ]
    assert holders == []


def parsed(function):
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


#: The bulk operations and every helper they are made of.
BULK_PATH = [
    VoxelCache.update_batch_bulk, VoxelCache._append,
    VoxelCache.evict, VoxelCache.flush, VoxelCache.cells,
    VoxelCache._overflow, VoxelCache._bucket_order, VoxelCache._pop,
    OccupancyOctree.set_leaves_bulk, OccupancyOctree.search_batch,
    OccupancyOctree._alloc_many,
]


#: One pass per tree level, and the fixed walk over the cache's columns.
ALLOWED_ITERABLES = {"range(depth)", "reversed(range(depth))", "self._columns"}


def loops_per_item(function):
    """The loops and comprehensions in ``function`` that are not allowed."""
    offenders = []
    for node in ast.walk(parsed(function)):
        if isinstance(node, (ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            offenders.append(ast.unparse(node))
        elif isinstance(node, ast.For) and ast.unparse(node.iter) not in ALLOWED_ITERABLES:
            offenders.append(f"for … in {ast.unparse(node.iter)}")
    return offenders


@pytest.mark.parametrize("function", BULK_PATH, ids=lambda f: f.__qualname__)
def test_bulk_path_loops_over_levels_only(function):
    assert loops_per_item(function) == []


def test_the_guard_sees_a_per_key_loop():
    def per_key(self, keys):
        for key in keys.tolist():
            self.set_leaf(key, 0.0)
        return [key for key in keys]

    assert len(loops_per_item(per_key)) == 2


@pytest.mark.parametrize("owner", [OctoCacheMap, ParallelOctoCacheMap, ShardSlots])
def test_evicted_batches_pass_through_as_arrays(owner):
    """No list ↔ array conversion between the cache and the octree."""
    converters = {"array", "asarray", "fromiter", "tolist"}
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(parsed(owner))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] in converters
    ]
    assert calls == []
