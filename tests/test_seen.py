"""Seen-set shard unit tests: first-sighting masks, exactness at scale,
a differential check against a Python set, snapshot/restore round-trip
(SURVEY.md §7 step 4)."""

import numpy as np

from stimson_web_scraper_ray.state.seen import SeenShard, route


def test_shard_check_and_insert_first_wins():
    s = SeenShard(0)
    h = np.array([1, 2, 3, 2, 1], dtype=np.uint64)
    mask = s.check_and_insert(h)
    assert mask.tolist() == [True, True, True, False, False]
    mask2 = s.check_and_insert(np.array([3, 4], dtype=np.uint64))
    assert mask2.tolist() == [False, True]
    assert s.size() == 4


def test_shard_snapshot_restore(tmp_path):
    s = SeenShard(0)
    keys = np.arange(100, 600, dtype=np.uint64)
    s.insert(keys)
    p = str(tmp_path / "snap.parquet")
    s.snapshot(p)
    s2 = SeenShard(0)
    s2.restore(p)
    assert s2.size() == 500
    assert s2.check(np.array([100, 599, 9999], dtype=np.uint64)).tolist() == \
        [True, True, False]
    # restored keys still answer check_and_insert
    assert s2.check_and_insert(np.array([100, 777], dtype=np.uint64)).tolist() == \
        [False, True]


def test_route_deterministic():
    h = np.array([0, 1, 15, 16, 2**63], dtype=np.uint64)
    r = route(h, 8)
    assert r.tolist() == [(int(x) % 8) for x in h]


def test_shard_exact_past_old_filter_capacity():
    """150k distinct keys through one shard in 5,000-key batches (past the
    131,072 fingerprints the earlier fixed-size filter held), then every
    key again: none is reported new a second time."""
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, 2**64, size=150_500, dtype=np.uint64))
    keys = rng.permutation(keys)[:150_000]
    s = SeenShard(0)
    for off in range(0, len(keys), 5000):
        assert s.check_and_insert(keys[off:off + 5000]).all()
    assert s.size() == len(keys)
    again = sum(int(s.check_and_insert(keys[off:off + 5000]).sum())
                for off in range(0, len(keys), 5000))
    assert again == 0
    assert s.check(keys).all()


def test_shard_matches_python_set():
    """check_and_insert / check / insert against a Python-set reference on
    random batches drawn from a small key space (so batches repeat keys
    within themselves and across batches), including keys above 2**63."""
    rng = np.random.default_rng(5)
    space = np.concatenate([
        rng.integers(0, 2**64, size=300, dtype=np.uint64),
        np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)])
    s, ref = SeenShard(3), set()
    for step in range(200):
        batch = rng.choice(space, size=int(rng.integers(0, 60)))
        op = step % 3
        if op == 0:
            expect, batch_seen = [], set()
            for k in batch.tolist():
                expect.append(k not in ref and k not in batch_seen)
                batch_seen.add(k)
            assert s.check_and_insert(batch).tolist() == expect
            ref |= batch_seen
        elif op == 1:
            assert s.check(batch).tolist() == [k in ref for k in batch.tolist()]
        else:
            ref |= set(batch.tolist())
            assert s.insert(batch) == len(ref)
        assert s.size() == len(ref)
    assert s.keys.tolist() == sorted(ref)
