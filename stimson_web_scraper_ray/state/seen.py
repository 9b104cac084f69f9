"""Distributed URL-seen set: hash-routed cuckoo-filter partitions.

Replaces the reference's per-domain memo text files (utils.py:134-181,
rewritten wholesale per batch and *dumped entirely* past 20k urls —
data loss by design, utils.py:172-175) with the north-rule design: URLs are
canonicalized, hashed to 64 bits (urlnorm.canon_hash64) and routed to
``hash % n_shards`` partitions (``SeenShard``), each holding

- a **cuckoo filter** (numpy bucket array, 4 slots × 16-bit fingerprints,
  ~2.2 bytes/key at 95% load) — the approximate membership structure that
  makes 10^10 keys feasible (10^10 × 2.2 B ≈ 22 GB across shards), and
- an **exact uint64 key set** alongside it, used to confirm cuckoo hits so a
  false positive can never drop a URL (correctness gate: the final seen set
  must equal the reference's exactly).

The crawl hosts the partitions inside its round-worker processes
(``CrawlRoundWorker.seen_op``; partition ``sid`` lives in worker
``sid % pool_size``), so a crawl starts no process for its seen set.

At sandbox scale both structures are held fully; at 10^10 scale the exact
set is the part that pages to disk (sorted parquet runs) while the filter
answers the 99.99% of probes that are true negatives in memory. Shard count
and capacity are configurable for that arithmetic (SURVEY.md §7).

Snapshots are plain parquet of the exact keys → checkpoint/resume is
byte-exact (``snapshot``/``restore``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class CuckooFilter:
    """Minimal cuckoo filter over uint64 keys.

    Partial-key cuckoo hashing (Fan et al., CoNEXT'14, public algorithm):
    fingerprint = 16 low bits (never 0), bucket1 = hash >> 16 mod n,
    bucket2 = bucket1 xor H(fingerprint).
    """

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int = 1 << 16, seed: int = 0x9E3779B9):
        n_buckets = max(8, int(capacity / self.SLOTS / 0.95))
        # power of two for cheap masking and xor-partner validity
        self.n_buckets = 1 << (n_buckets - 1).bit_length()
        self.table = np.zeros((self.n_buckets, self.SLOTS), dtype=np.uint16)
        self.count = 0
        self._seed = np.uint64(seed)
        self._rng = np.random.default_rng(seed)

    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        fp = (keys & np.uint64(0xFFFF)).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)

    def _bucket1(self, keys: np.ndarray) -> np.ndarray:
        return ((keys >> np.uint64(16)) % np.uint64(self.n_buckets)).astype(np.int64)

    def _alt_bucket(self, bucket: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # H(fp) via a multiplicative mix
        h = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) & np.uint64(0xFFFFFFFF)
        return ((bucket.astype(np.uint64) ^ h) % np.uint64(self.n_buckets)).astype(np.int64)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fingerprint(keys)
        b1 = self._bucket1(keys)
        b2 = self._alt_bucket(b1, fp)
        hit1 = (self.table[b1] == fp[:, None]).any(axis=1)
        hit2 = (self.table[b2] == fp[:, None]).any(axis=1)
        return hit1 | hit2

    def _insert_one(self, fp: int, b1: int, b2: int) -> bool:
        for b in (b1, b2):
            row = self.table[b]
            empty = np.nonzero(row == 0)[0]
            if empty.size:
                row[empty[0]] = fp
                self.count += 1
                return True
        b = b1 if self._rng.integers(2) else b2
        cur = np.uint16(fp)
        for _ in range(self.MAX_KICKS):
            slot = int(self._rng.integers(self.SLOTS))
            cur, self.table[b, slot] = self.table[b, slot], cur
            b = int(self._alt_bucket(np.array([b]), np.array([cur]))[0])
            row = self.table[b]
            empty = np.nonzero(row == 0)[0]
            if empty.size:
                row[empty[0]] = cur
                self.count += 1
                return True
        return False  # table overfull — caller should grow/shard more

    def insert(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fingerprint(keys)
        b1 = self._bucket1(keys)
        b2 = self._alt_bucket(b1, fp)
        for i in range(len(keys)):
            self._insert_one(int(fp[i]), int(b1[i]), int(b2[i]))


class SeenShard:
    """One partition of the seen set: a plain in-process object, held by
    a crawl round worker (``CrawlRoundWorker.seen_op``) or used directly."""

    def __init__(self, shard_id: int, capacity: int = 1 << 16):
        self.shard_id = shard_id
        self.filter = CuckooFilter(capacity)
        self.exact: set[int] = set()

    def check_and_insert(self, hashes: list[int] | np.ndarray) -> np.ndarray:
        """Returns boolean mask of NEW hashes (True = first sighting) and
        inserts them. Cuckoo answers first; exact set confirms positives so
        false positives never drop a URL."""
        keys = np.asarray(hashes, dtype=np.uint64)
        maybe_seen = self.filter.contains(keys)
        new_mask = np.empty(len(keys), dtype=bool)
        batch_seen: set[int] = set()
        for i, k in enumerate(keys.tolist()):
            if k in batch_seen:
                new_mask[i] = False
                continue
            if maybe_seen[i] and k in self.exact:
                new_mask[i] = False
            else:
                new_mask[i] = True
                batch_seen.add(k)
        fresh = keys[new_mask]
        if fresh.size:
            self.filter.insert(fresh)
            self.exact.update(fresh.tolist())
        return new_mask

    def check(self, hashes) -> np.ndarray:
        """Membership only (True = already seen), no insertion."""
        keys = np.asarray(hashes, dtype=np.uint64)
        maybe = self.filter.contains(keys)
        out = np.zeros(len(keys), dtype=bool)
        for i in np.nonzero(maybe)[0]:
            out[i] = int(keys[i]) in self.exact
        return out

    def insert(self, hashes) -> int:
        keys = np.asarray(hashes, dtype=np.uint64)
        fresh = np.array([k for k in keys.tolist() if k not in self.exact],
                         dtype=np.uint64)
        if fresh.size:
            self.filter.insert(fresh)
            self.exact.update(fresh.tolist())
        return len(self.exact)

    def size(self) -> int:
        return len(self.exact)

    def snapshot(self, path: str) -> int:
        """Exact keys → parquet; the cuckoo filter is rebuilt on restore."""
        keys = np.fromiter(self.exact, dtype=np.uint64, count=len(self.exact))
        keys.sort()
        pq.write_table(
            pa.table({"url_hash": pa.array(keys, type=pa.uint64())}), path
        )
        return len(keys)

    def restore(self, path: str) -> int:
        keys = pq.read_table(path)["url_hash"].to_numpy()
        self.exact = set(keys.tolist())
        cap = max(1 << 16, 2 * len(keys))
        self.filter = CuckooFilter(cap)
        if len(keys):
            self.filter.insert(keys)
        return len(keys)


def route(hashes: np.ndarray, n_shards: int) -> np.ndarray:
    """shard id per hash (hash % n_shards)."""
    return (np.asarray(hashes, dtype=np.uint64) % np.uint64(n_shards)).astype(np.int64)
