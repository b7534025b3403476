"""Test-side reference: the bucket-list voxel cache the slot arrays replaced.

``w`` Python lists of ``[key, value]`` cells plus a Morton-code → cell
dict — the cache as it stood before its cells moved into numpy arrays.
Insert appends to the key's bucket, eviction drops each over-full
bucket's earliest cells in bucket order, flush empties every bucket in
bucket order.  The differential suite holds the production cache to the
same sequences, order included.
"""

from repro.core.morton import morton_encode3


class ReferenceCache:
    def __init__(self, config, params, backend=None):
        self.config = config
        self.params = params
        self.backend = backend
        self.mask = config.num_buckets - 1
        self.buckets = [[] for _ in range(config.num_buckets)]
        self.index = {}
        self.hits = self.misses = self.octree_fills = self.evicted = 0

    def bucket_index(self, key):
        if self.config.use_morton_indexing:
            return morton_encode3(*key) & self.mask
        return hash(key) & self.mask

    def insert(self, key, occupied):
        code = morton_encode3(*key)
        cell = self.index.get(code)
        if cell is not None:
            self.hits += 1
            cell[1] = self.params.update(cell[1], occupied)
            return cell[1]
        self.misses += 1
        base = self.backend.search(key) if self.backend is not None else None
        if base is None:
            base = self.params.threshold
        else:
            self.octree_fills += 1
        cell = [key, self.params.update(base, occupied)]
        self.buckets[self.bucket_index(key)].append(cell)
        self.index[code] = cell
        return cell[1]

    def lookup(self, key):
        cell = self.index.get(morton_encode3(*key))
        return None if cell is None else cell[1]

    def iter_evict(self):
        """One list of ``(key, value)`` per over-full bucket, bucket order."""
        tau = self.config.bucket_threshold
        for index, bucket in enumerate(self.buckets):
            overflow = len(bucket) - tau
            if overflow > 0:
                dropped = bucket[:overflow]
                self.buckets[index] = bucket[overflow:]
                for key, _value in dropped:
                    del self.index[morton_encode3(*key)]
                self.evicted += len(dropped)
                yield [(key, value) for key, value in dropped]

    def evict(self):
        return [cell for chunk in self.iter_evict() for cell in chunk]

    def flush(self):
        cells = self.iter_cells()
        self.buckets = [[] for _ in self.buckets]
        self.index.clear()
        self.evicted += len(cells)
        return cells

    def iter_cells(self):
        return [(key, value) for bucket in self.buckets for key, value in bucket]

    def bucket_sizes(self):
        return [len(bucket) for bucket in self.buckets]

    def resident(self):
        return sum(self.bucket_sizes())

    def rebucket(self, config):
        """Re-hash every resident cell into ``config``'s bucket array,
        oldest first (what ``AdaptiveOctoCacheMap`` does to grow)."""
        cells = list(self.index.values())
        self.config = config
        self.mask = config.num_buckets - 1
        self.buckets = [[] for _ in range(config.num_buckets)]
        for cell in cells:
            self.buckets[self.bucket_index(cell[0])].append(cell)
