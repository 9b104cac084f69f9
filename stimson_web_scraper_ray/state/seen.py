"""Distributed URL-seen set: hash-routed partitions of exact 64-bit keys.

Replaces the reference's per-domain memo text files (utils.py:134-181,
rewritten wholesale per batch and *dumped entirely* past 20k urls —
data loss by design, utils.py:172-175). URLs are canonicalized, hashed to
64 bits (urlnorm.canon_hash64) and routed to ``hash % n_shards``
partitions (``SeenShard``). Each partition holds its keys in one sorted,
duplicate-free ``np.uint64`` array (8 bytes/key): membership is a
``searchsorted`` probe, and a batch's new keys are merged in with one
``np.insert`` at their ``searchsorted`` positions. Nothing is approximate,
so the seen set is exact at any size (the crawl's invariant: the final
seen set equals the simulator's exactly).

The crawl hosts the partitions inside its round-worker processes
(``CrawlRoundWorker.seen_op``; partition ``sid`` lives in worker
``sid % pool_size``), so a crawl starts no process for its seen set.

Snapshots are parquet of the sorted keys (column ``url_hash``), so
checkpoint/resume is byte-exact (``snapshot``/``restore``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class SeenShard:
    """One partition of the seen set: a plain in-process object, held by
    a crawl round worker (``CrawlRoundWorker.seen_op``) or used directly."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.keys = np.empty(0, dtype=np.uint64)    # sorted, unique

    def _held(self, keys: np.ndarray) -> np.ndarray:
        if not self.keys.size:
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return self.keys[pos] == keys

    def _add(self, hashes) -> np.ndarray:
        """Merge the keys of ``hashes`` not yet held; returns the batch
        index of each merged key's first occurrence."""
        uniq, first = np.unique(np.asarray(hashes, dtype=np.uint64),
                                return_index=True)
        new = ~self._held(uniq)
        fresh = uniq[new]
        if fresh.size:
            self.keys = np.insert(self.keys,
                                  np.searchsorted(self.keys, fresh), fresh)
        return first[new]

    def check_and_insert(self, hashes: list[int] | np.ndarray) -> np.ndarray:
        """Returns boolean mask of NEW hashes (True = first sighting: not
        held before, and the first occurrence within the batch) and
        inserts them."""
        new_mask = np.zeros(len(hashes), dtype=bool)
        new_mask[self._add(hashes)] = True
        return new_mask

    def check(self, hashes) -> np.ndarray:
        """Membership only (True = already seen), no insertion."""
        return self._held(np.asarray(hashes, dtype=np.uint64))

    def insert(self, hashes) -> int:
        self._add(hashes)
        return self.size()

    def size(self) -> int:
        return int(self.keys.size)

    def snapshot(self, path: str) -> int:
        """Sorted keys → parquet."""
        pq.write_table(
            pa.table({"url_hash": pa.array(self.keys, type=pa.uint64())}),
            path)
        return self.size()

    def restore(self, path: str) -> int:
        keys = pq.read_table(path)["url_hash"].to_numpy()
        self.keys = np.unique(np.asarray(keys, dtype=np.uint64))
        return self.size()


def route(hashes: np.ndarray, n_shards: int) -> np.ndarray:
    """shard id per hash (hash % n_shards)."""
    return (np.asarray(hashes, dtype=np.uint64) % np.uint64(n_shards)).astype(np.int64)
