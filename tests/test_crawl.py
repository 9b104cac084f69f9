"""Crawl pipeline: engine (Ray Data) vs the sequential reference-semantics
simulator — seen set, per-round fetch sets, golden text, and kill+resume
(SURVEY.md §5 items 3-4)."""

import dataclasses
import glob
import os
import shutil

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from stimson_web_scraper_ray.config import EngineConfig
from stimson_web_scraper_ray.pipelines import crawl as crawl_mod
from stimson_web_scraper_ray.pipelines.crawl import (
    TAIL_HOLDBACK_FRAC, close_pool, crawl, final_seen_hashes)
from stimson_web_scraper_ray.pipelines.sim import simulate_crawl
from stimson_web_scraper_ray.sources.pages import pages_path_for, seed_urls

CFG = EngineConfig(per_host_budget=30, round_budget=500, seen_shards=4,
                   extract_concurrency=2)


@pytest.fixture(scope="module")
def pages_path():
    return pages_path_for("/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def seeds(pages_path):
    return seed_urls(pages_path)


@pytest.fixture(scope="module")
def sim_result(pages_path, seeds):
    return simulate_crawl(pages_path, seeds, CFG, max_rounds=3)


@pytest.fixture(scope="module")
def engine_result(ray_session, pages_path, seeds, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl"))
    res = crawl(pages_path, seeds, CFG, out_dir=out, max_rounds=3)
    return res, out


def _round_urls(articles_dir):
    rounds = {}
    for rdir in sorted(glob.glob(os.path.join(articles_dir, "round=*"))):
        rnd = int(rdir.split("=")[-1])
        t = pads.dataset(rdir).to_table(columns=["url"])
        rounds[rnd] = set(t["url"].to_pylist())
    return rounds


def test_crawl_matches_simulator_rounds(engine_result, sim_result):
    res, _ = engine_result
    engine_rounds = _round_urls(res.articles_path)
    sim_rounds = sim_result.groupby("round")["url"].apply(set).to_dict()
    assert set(engine_rounds) == set(sim_rounds)
    for rnd in sim_rounds:
        assert engine_rounds[rnd] == sim_rounds[rnd], f"round {rnd} differs"


def test_final_seen_set_matches_simulator(engine_result, sim_result, seeds):
    res, _ = engine_result
    last = max(int(d.split("=")[-1]) for d in
               glob.glob(os.path.join(res.checkpoint_dir, "round=*")))
    engine_seen = final_seen_hashes(res.checkpoint_dir, last, CFG.seen_shards)
    # sim seen = all attempted budget hashes; fetched ⊆ attempted.
    # engine_seen comes from shard snapshots → compare to sim attempted set
    sim_seen = np.sort(sim_result["url_hash"].to_numpy().astype(np.uint64))
    # attempted ⊇ fetched: every fetched hash must be in the engine seen set
    assert np.isin(sim_seen, engine_seen).all()
    assert res.seen_size == len(engine_seen)


def test_extracted_text_is_byte_identical_to_golden(engine_result, pages_path):
    res, _ = engine_result
    arts = pads.dataset(res.articles_path).to_table(
        columns=["url", "text", "status"])
    golden = pads.dataset(pages_path).to_table(columns=["url", "text"])
    gold = dict(zip(golden["url"].to_pylist(), golden["text"].to_pylist()))
    assert arts.num_rows > 50
    # most pages (incl. non-en) must extract real text, not just '' == ''
    nonempty = sum(1 for txt in arts["text"].to_pylist() if txt)
    assert nonempty / arts.num_rows > 0.8, f"only {nonempty} non-empty texts"
    mismatches = []
    for u, txt, st in zip(arts["url"].to_pylist(), arts["text"].to_pylist(),
                          arts["status"].to_pylist()):
        assert st == "ok"
        if txt != gold[u]:
            mismatches.append(u)
    assert not mismatches, f"{len(mismatches)} text mismatches: {mismatches[:3]}"


def test_metrics_lineage_written(engine_result):
    res, _ = engine_result
    mfiles = glob.glob(os.path.join(res.checkpoint_dir, "round=*/metrics.parquet"))
    assert mfiles
    t = pads.dataset(mfiles).to_table()
    assert {"round", "host", "planned"} <= set(t.column_names)
    assert t.num_rows > 0


def test_parallelism_invariance(ray_session, pages_path, seeds,
                                engine_result, tmp_path_factory):
    """Same crawl with different shard count / pool sizes / budget split
    must fetch identical per-round sets (ordering invariant, SURVEY §2.9)."""
    cfg2 = EngineConfig(per_host_budget=30, round_budget=500, seen_shards=7,
                        extract_concurrency=3, extract_batch_size=16)
    out = str(tmp_path_factory.mktemp("crawl_alt"))
    res2 = crawl(pages_path, seeds, cfg2, out_dir=out, max_rounds=3)
    res1, _ = engine_result
    assert _round_urls(res1.articles_path) == _round_urls(res2.articles_path)


def test_kill_and_resume_reproduces_full_run(ray_session, pages_path, seeds,
                                             engine_result, tmp_path_factory):
    out2 = str(tmp_path_factory.mktemp("crawl_resume"))
    # "kill" after round 0: run only 1 round...
    crawl(pages_path, seeds, CFG, out_dir=out2, max_rounds=1)
    # ...then resume to 3
    res2 = crawl(pages_path, seeds, CFG, out_dir=out2, max_rounds=3,
                 resume=True)
    res_full, _ = engine_result
    full_rounds = _round_urls(res_full.articles_path)
    resumed_rounds = _round_urls(res2.articles_path)
    assert full_rounds == resumed_rounds
    last = max(int(d.split("=")[-1]) for d in
               glob.glob(os.path.join(res2.checkpoint_dir, "round=*")))
    assert np.array_equal(
        final_seen_hashes(res2.checkpoint_dir, last, CFG.seen_shards),
        final_seen_hashes(res_full.checkpoint_dir, last, CFG.seen_shards))


@pytest.mark.parametrize("n_shards", [3, 1])
def test_seen_shard_placement_and_resume(ray_session, pages_path, seeds,
                                         sim_result, tmp_path_factory,
                                         n_shards):
    """Seen shards live in the round workers (shard sid in worker
    sid % pool_size). 3 shards on 2 workers puts two on one worker; 1 shard
    on 2 workers leaves one worker with none. Either way the crawl equals
    the simulator, seen_size counts the final snapshot, and a run killed
    after round 0 then resumed reproduces the full run's seen set."""
    cfg = dataclasses.replace(CFG, seen_shards=n_shards,
                              extract_concurrency=2)
    out = str(tmp_path_factory.mktemp(f"crawl_place{n_shards}"))
    res = crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
    sim_rounds = sim_result.groupby("round")["url"].apply(set).to_dict()
    assert _round_urls(res.articles_path) == sim_rounds
    last = max(sim_rounds)
    seen = final_seen_hashes(res.checkpoint_dir, last, n_shards)
    sim_seen = sim_result["url_hash"].to_numpy().astype(np.uint64)
    assert np.isin(sim_seen, seen).all()
    assert res.seen_size == len(seen)

    out2 = str(tmp_path_factory.mktemp(f"crawl_place{n_shards}_resume"))
    crawl(pages_path, seeds, cfg, out_dir=out2, max_rounds=1)
    res2 = crawl(pages_path, seeds, cfg, out_dir=out2, max_rounds=3,
                 resume=True)
    assert _round_urls(res2.articles_path) == sim_rounds
    seen2 = final_seen_hashes(res2.checkpoint_dir, last, n_shards)
    assert np.array_equal(seen2, seen)
    assert res2.seen_size == len(seen2)


def test_distributed_planning_parity(ray_session, pages_path, seeds,
                                     tmp_path_factory):
    """Frontiers over planning_table_limit route candidate dedup, seen
    filtering, frontier construction and budget selection through Ray Data
    (salted partitions + checkpoint-parquet frontier). A tiny round_budget
    forces real deferral through the distributed anti-join; the run must
    match the driver-pandas path (and hence the simulator) round for
    round."""
    # default limit: these small frontiers plan on the driver
    cfg_p = dataclasses.replace(CFG, round_budget=60)
    # planning_table_limit=0 forces the distributed machinery even at
    # sandbox scale
    cfg_d = dataclasses.replace(CFG, round_budget=60,
                                planning_table_limit=0)
    out_p = str(tmp_path_factory.mktemp("crawl_pandas_small"))
    out_d = str(tmp_path_factory.mktemp("crawl_dist_small"))
    res_p = crawl(pages_path, seeds, cfg_p, out_dir=out_p, max_rounds=3)
    res_d = crawl(pages_path, seeds, cfg_d, out_dir=out_d, max_rounds=3)

    assert res_p.pages_fetched == res_d.pages_fetched
    assert _round_urls(res_p.articles_path) == _round_urls(res_d.articles_path)
    seen_p = final_seen_hashes(res_p.checkpoint_dir, 2, cfg_p.seen_shards)
    seen_d = final_seen_hashes(res_d.checkpoint_dir, 2, cfg_d.seen_shards)
    assert np.array_equal(seen_p, seen_d)


def _assert_matches_simulator(res, pages_path, seeds, cfg):
    """A 3-round crawl's per-round fetch sets equal simulate_crawl's;
    returns the final seen set after checking it covers every simulated
    fetch and matches res.seen_size."""
    sim = simulate_crawl(pages_path, seeds, cfg, max_rounds=3)
    sim_rounds = sim.groupby("round")["url"].apply(set).to_dict()
    assert _round_urls(res.articles_path) == sim_rounds
    seen = final_seen_hashes(res.checkpoint_dir, max(sim_rounds),
                             cfg.seen_shards)
    sim_seen = sim["url_hash"].to_numpy().astype(np.uint64)
    assert np.isin(sim_seen, seen).all()
    assert res.seen_size == len(seen)
    return seen


def test_tail_holdback_parity(ray_session, pages_path, seeds,
                              tmp_path_factory):
    """One worker (no tail: the benchmark's shape) and four workers at
    politeness_delay_s == 0 (each actor holds back TAIL_HOLDBACK_FRAC of
    its rows as stealable units) both crawl exactly the simulator's rounds
    and end with equal seen sets. Placement is a pure execution
    decision."""
    seen = []
    for n in (1, 4):
        cfg = dataclasses.replace(CFG, round_budget=60,
                                  extract_concurrency=n)
        out = str(tmp_path_factory.mktemp(f"crawl_pool{n}"))
        res = crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
        seen.append(_assert_matches_simulator(res, pages_path, seeds, cfg))
    assert np.array_equal(seen[0], seen[1])


def test_politeness_pinned_pool_matches_simulator(ray_session, pages_path,
                                                  seeds, tmp_path_factory):
    """politeness_delay_s > 0 on a 2-worker pool: the dispatch holds
    nothing back and every host stays pinned to its worker. The politeness
    clock is simulated, so this costs no wall time; the crawl still equals
    the simulator round for round."""
    cfg = dataclasses.replace(CFG, politeness_delay_s=1.0,
                              extract_concurrency=2)
    out = str(tmp_path_factory.mktemp("crawl_polite"))
    res = crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
    _assert_matches_simulator(res, pages_path, seeds, cfg)


@pytest.mark.parametrize("frac", [0.0, TAIL_HOLDBACK_FRAC, 0.5])
def test_dispatch_sends_every_row_once(ray_session, frac):
    """_dispatch_sticky_tail on a fake pool of 4 plain Ray actors, over two
    rounds (idle actor 0 in the first, idle actors 0 and 1 in the second:
    the idle ones are offered work before the busy ones). Every budget
    row is sent exactly once, each part_key lands in exactly one call per
    round, and every row reaches the fold. With nothing held back each
    actor gets exactly one call holding exactly its assigned groups; with
    a hold-back the tail adds calls where an actor has groups to spare."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from stimson_web_scraper_ray.pipelines.crawl import (
        _dispatch_sticky_tail, _PlanFold)
    from stimson_web_scraper_ray.stages.round_worker import PLAN_SCHEMA

    class RecordingWorker:
        """Stand-in round worker: records each process() batch's (part_key,
        url) rows per round and returns one 'page' plan row per input row."""

        def __init__(self):
            self.calls: list[tuple[str, list]] = []

        def process(self, batch, round_dir, cand_dir=None):
            urls = batch["url_canon"].to_pylist()
            self.calls.append((round_dir, list(zip(
                batch["part_key"].to_pylist(), urls))))
            n = len(urls)
            cols = {name: [""] * n for name in PLAN_SCHEMA.names}
            cols.update(kind=["page"] * n, url=urls, status=["ok"] * n,
                        url_hash=[0] * n)
            return pa.table({name: pa.array(cols[name],
                                             PLAN_SCHEMA.field(name).type)
                             for name in PLAN_SCHEMA.names})

        def recorded(self):
            return self.calls

    pool = [ray.remote(RecordingWorker).options(num_cpus=0).remote()
            for _ in range(4)]
    rounds = {"r0": ([300, 5, 40, 7, 200, 1, 60, 600, 13, 90, 2, 150], 3),
              "r1": ([700, 30], 2)}
    try:
        for rnd, (sizes, n_busy) in rounds.items():
            per_actor: dict[int, list] = {}
            for pk, size in enumerate(sizes):
                grp = pd.DataFrame({
                    "part_key": [pk] * size,
                    "url_canon": [f"http://h{pk}.test/{i}"
                                  for i in range(size)]})
                per_actor.setdefault(3 - pk % n_busy, []).append(grp)
            fold = _PlanFold()
            busy = _dispatch_sticky_tail(pool, per_actor, frac, rnd, None,
                                         fold)

            calls = {aid: [rows for r, rows in ray.get(a.recorded.remote())
                           if r == rnd] for aid, a in enumerate(pool)}
            sent = [row for cs in calls.values() for rows in cs
                    for row in rows]
            budget = [(pk, f"http://h{pk}.test/{i}")
                      for pk, size in enumerate(sizes) for i in range(size)]
            assert sorted(sent) == sorted(budget)
            keys_per_call = [{pk for pk, _ in rows}
                             for cs in calls.values() for rows in cs]
            for pk in range(len(sizes)):
                assert sum(pk in ks for ks in keys_per_call) == 1
            assert len(fold.page_df()) == len(budget)
            assert sum(rows for rows, _ in busy.values()) == len(budget)
            if frac == 0:
                for aid, cs in calls.items():
                    expect = {pk for pk in range(len(sizes))
                              if 3 - pk % n_busy == aid}
                    assert len(cs) == (1 if expect else 0)
                    assert not cs or {pk for pk, _ in cs[0]} == expect
            elif rnd == "r0":           # r1's actors hold one group each
                assert len(keys_per_call) > n_busy
    finally:
        for a in pool:
            ray.kill(a)


def test_flagship_config_matches_simulator(ray_session, pages_path, seeds,
                                           tmp_path_factory):
    """entry()'s EXACT configuration (per_host_budget=40,
    round_budget=2000, planning_table_limit=0 forcing distributed
    planning, 3 rounds) against the simulator — the driver window's two
    rows-only flagships (crawl_flagship, web_train_set) are gated by
    crawl_parity's shared 2-round config; this pins the flagship's own
    config to the same per-round fetch-set + seen-superset invariant."""
    cfg = EngineConfig(per_host_budget=40, round_budget=2000,
                       seen_shards=4, extract_concurrency=4,
                       planning_table_limit=0)
    out = str(tmp_path_factory.mktemp("crawl_flagship_cfg"))
    res = crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
    sim = simulate_crawl(pages_path, seeds, cfg, max_rounds=3)

    engine_rounds = _round_urls(res.articles_path)
    sim_rounds = sim.groupby("round")["url"].apply(set).to_dict()
    assert set(engine_rounds) == set(sim_rounds)
    for rnd in sim_rounds:
        assert engine_rounds[rnd] == sim_rounds[rnd], f"round {rnd} differs"
    last = max(engine_rounds)
    eng_seen = final_seen_hashes(res.checkpoint_dir, last, cfg.seen_shards)
    sim_seen = np.sort(sim["url_hash"].to_numpy().astype(np.uint64))
    assert np.isin(sim_seen, eng_seen).all()


def test_indegree_priority_matches_simulator(ray_session, pages_path,
                                             tmp_path_factory):
    """Citation-count frontier priority (indegree_priority): the engine
    must match the simulator round for round on BOTH planning paths, and
    the signal must actually change the crawl vs the flag-off policy
    (non-vacuous: some candidates are cited more than once)."""
    seeds_l = seed_urls(pages_path)[:8]
    base_kw = dict(per_host_budget=8, round_budget=60, seen_shards=4,
                   extract_concurrency=2)
    cfg_on = EngineConfig(indegree_priority=True, **base_kw)
    cfg_off = EngineConfig(**base_kw)

    sim_on = simulate_crawl(pages_path, seeds_l, cfg_on, max_rounds=3)
    sim_off = simulate_crawl(pages_path, seeds_l, cfg_off, max_rounds=3)
    on_rounds = sim_on.groupby("round")["url"].apply(set).to_dict()
    off_rounds = sim_off.groupby("round")["url"].apply(set).to_dict()
    assert any(on_rounds[r] != off_rounds.get(r, set())
               for r in on_rounds), "indegree signal changed nothing"

    for dist in (False, True):
        # planning_table_limit=0 forces distributed planning; the default
        # limit plans these small rounds on the driver
        limit = {"planning_table_limit": 0} if dist else {}
        cfg = EngineConfig(indegree_priority=True, **limit, **base_kw)
        out = str(tmp_path_factory.mktemp(f"crawl_indeg_{dist}"))
        res = crawl(pages_path, seeds_l, cfg, out_dir=out, max_rounds=3)
        engine_rounds = _round_urls(res.articles_path)
        assert set(engine_rounds) == set(on_rounds)
        for rnd in on_rounds:
            assert engine_rounds[rnd] == on_rounds[rnd], \
                f"dist={dist} round {rnd} differs"


def test_indegree_priority_survives_resume(ray_session, pages_path,
                                           tmp_path_factory):
    """Count-based priorities ride the frontier checkpoint: killing after
    round 0 and resuming must reproduce the uninterrupted indegree run
    exactly (rounds and final seen set)."""
    seeds_l = seed_urls(pages_path)[:8]
    cfg = EngineConfig(indegree_priority=True, per_host_budget=8,
                       round_budget=60, seen_shards=4,
                       extract_concurrency=2)
    out_full = str(tmp_path_factory.mktemp("crawl_indeg_full"))
    res_full = crawl(pages_path, seeds_l, cfg, out_dir=out_full,
                     max_rounds=3)
    out2 = str(tmp_path_factory.mktemp("crawl_indeg_resume"))
    crawl(pages_path, seeds_l, cfg, out_dir=out2, max_rounds=1)
    res2 = crawl(pages_path, seeds_l, cfg, out_dir=out2, max_rounds=3,
                 resume=True)
    assert _round_urls(res_full.articles_path) == \
        _round_urls(res2.articles_path)
    last = max(int(d.split("=")[-1]) for d in
               glob.glob(os.path.join(res2.checkpoint_dir, "round=*")))
    assert np.array_equal(
        final_seen_hashes(res2.checkpoint_dir, last, cfg.seen_shards),
        final_seen_hashes(res_full.checkpoint_dir, last, cfg.seen_shards))


def test_empty_seed_list_is_graceful(ray_session, pages_path,
                                     tmp_path_factory):
    """Zero seeds (or seeds that all fail valid_url) must produce a
    clean empty crawl on both engine and simulator — no exception, no
    round dirs, zero pages."""
    out = str(tmp_path_factory.mktemp("crawl_empty"))
    res = crawl(pages_path, [], CFG, out_dir=out, max_rounds=3)
    assert res.pages_fetched == 0
    assert _round_urls(res.articles_path) == {}
    sim = simulate_crawl(pages_path, [], CFG, max_rounds=3)
    assert len(sim) == 0


def test_warm_pool_parity(ray_session, pages_path, seeds, tmp_path_factory):
    """warm_pool=True (steady-state benchmark mode: spawn barrier before
    round 0) is pure timing instrumentation — identical rounds, seen
    set, and a positive setup_sec report."""
    out = str(tmp_path_factory.mktemp("crawl_warm"))
    res_w = crawl(pages_path, seeds, CFG, out_dir=out, max_rounds=3,
                  warm_pool=True)
    out_c = str(tmp_path_factory.mktemp("crawl_cold"))
    res_c = crawl(pages_path, seeds, CFG, out_dir=out_c, max_rounds=3)
    assert res_w.pages_fetched == res_c.pages_fetched
    assert _round_urls(res_w.articles_path) == _round_urls(res_c.articles_path)
    assert res_w.setup_sec > 0


def _cached_pool():
    """Actor handles of the idle pool kept for the next crawl (or [])."""
    return crawl_mod._POOL[1] if crawl_mod._POOL is not None else []


def _actor_ids(pool):
    return [a._actor_id.hex() for a in pool]


def _assert_dead(pool, within_s=60.0):
    """Every actor's ping fails within ``within_s`` (ray.kill is
    asynchronous: a call made right after it may still run)."""
    import time

    import ray

    deadline = time.monotonic() + within_s
    for actor in pool:
        while True:
            try:
                ray.get(actor.ping.remote(), timeout=within_s)
            except ray.exceptions.RayActorError:
                break
            assert time.monotonic() < deadline, f"{actor} still alive"
            time.sleep(0.05)


def test_pool_reused_across_crawls(ray_session, pages_path, seeds,
                                   tmp_path_factory, monkeypatch):
    """Two crawls back to back on one pool size, with different seeds,
    politeness and seen-shard counts, run on the same actors, even when
    fewer CPUs are free at the second start; the second crawl's seen set
    equals that of the same crawl on a freshly spawned pool, so nothing
    of the first crawl's state survives the reset."""
    import ray

    cfg1 = dataclasses.replace(CFG, extract_concurrency=2, seen_shards=4,
                               politeness_delay_s=1.0)
    cfg2 = dataclasses.replace(CFG, extract_concurrency=2, seen_shards=3)
    seeds1, seeds2 = seeds[::2], seeds[1::2]

    close_pool()
    out = str(tmp_path_factory.mktemp("crawl_reuse_ref"))
    seen_ref = _assert_matches_simulator(
        crawl(pages_path, seeds2, cfg2, out_dir=out, max_rounds=3),
        pages_path, seeds2, cfg2)

    close_pool()
    out1 = str(tmp_path_factory.mktemp("crawl_reuse1"))
    res1 = crawl(pages_path, seeds1, cfg1, out_dir=out1, max_rounds=3)
    ids = _actor_ids(_cached_pool())
    assert len(ids) == 2
    seen1 = _assert_matches_simulator(res1, pages_path, seeds1, cfg1)

    out2 = str(tmp_path_factory.mktemp("crawl_reuse2"))
    monkeypatch.setattr(ray, "available_resources", lambda: {"CPU": 1.0})
    res2 = crawl(pages_path, seeds2, cfg2, out_dir=out2, max_rounds=3)
    assert _actor_ids(_cached_pool()) == ids
    assert res2.spawn_sec < 1.0
    seen2 = _assert_matches_simulator(res2, pages_path, seeds2, cfg2)
    assert np.array_equal(seen2, seen_ref)
    assert not np.array_equal(seen1, seen2)


def test_pool_size_change_replaces_pool(ray_session, pages_path, seeds,
                                        tmp_path_factory):
    """A crawl with another pool size kills the cached pool and spawns its
    own; both crawls equal the simulator."""
    cfg1 = dataclasses.replace(CFG, extract_concurrency=1)
    cfg2 = dataclasses.replace(CFG, extract_concurrency=2)
    out1 = str(tmp_path_factory.mktemp("crawl_size1"))
    _assert_matches_simulator(
        crawl(pages_path, seeds, cfg1, out_dir=out1, max_rounds=3),
        pages_path, seeds, cfg1)
    old = _cached_pool()
    assert len(old) == 1
    out2 = str(tmp_path_factory.mktemp("crawl_size2"))
    _assert_matches_simulator(
        crawl(pages_path, seeds, cfg2, out_dir=out2, max_rounds=3),
        pages_path, seeds, cfg2)
    new = _cached_pool()
    assert len(new) == 2
    assert not set(_actor_ids(old)) & set(_actor_ids(new))
    _assert_dead(old)


def test_failed_crawl_caches_no_pool(ray_session, pages_path, seeds,
                                     tmp_path_factory, monkeypatch):
    """A crawl that raises after round 0 kills the pool it took and caches
    none; the next crawl spawns a fresh pool and equals the simulator."""
    cfg = dataclasses.replace(CFG, extract_concurrency=2)
    out = str(tmp_path_factory.mktemp("crawl_fail_warm"))
    crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=1)
    taken = _cached_pool()
    assert len(taken) == 2

    plan = crawl_mod._plan_round
    calls = []

    def plan_then_fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("planning failed in round 1")
        return plan(*args, **kwargs)

    monkeypatch.setattr(crawl_mod, "_plan_round", plan_then_fail)
    out = str(tmp_path_factory.mktemp("crawl_fail"))
    with pytest.raises(RuntimeError, match="round 1"):
        crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
    monkeypatch.setattr(crawl_mod, "_plan_round", plan)
    assert crawl_mod._POOL is None
    _assert_dead(taken)

    out = str(tmp_path_factory.mktemp("crawl_after_fail"))
    res = crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
    assert not set(_actor_ids(_cached_pool())) & set(_actor_ids(taken))
    _assert_matches_simulator(res, pages_path, seeds, cfg)


def test_dead_idle_worker_respawns_pool(ray_session, pages_path, seeds,
                                        tmp_path_factory):
    """A cached worker that died while idle (its node lost, an OOM kill)
    fails the pool's reset: the next crawl kills the rest of that pool,
    spawns a new one and equals the simulator."""
    import ray

    cfg = dataclasses.replace(CFG, extract_concurrency=2)
    out = str(tmp_path_factory.mktemp("crawl_dead_warm"))
    crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=1)
    old = _cached_pool()
    assert len(old) == 2
    ray.kill(old[0])
    _assert_dead(old[:1])

    out = str(tmp_path_factory.mktemp("crawl_dead"))
    res = crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=3)
    assert not set(_actor_ids(_cached_pool())) & set(_actor_ids(old))
    _assert_dead(old)
    _assert_matches_simulator(res, pages_path, seeds, cfg)


RESTART_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ray
from stimson_web_scraper_ray.config import EngineConfig
from stimson_web_scraper_ray.pipelines import crawl as crawl_mod

def init():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)

cfg, pages, seeds = EngineConfig(
    per_host_budget=30, round_budget=500, seen_shards=2,
    extract_concurrency=1), sys.argv[2], json.loads(sys.argv[3])
init()
crawl_mod.crawl(pages, seeds, cfg, out_dir=sys.argv[4] + "/a", max_rounds=3)
stale = {a._actor_id for a in crawl_mod._POOL[1]}
ray.shutdown()
init()
killed, kill = [], ray.kill
def recording_kill(actor, *a, **k):
    killed.append(actor._actor_id)
    return kill(actor, *a, **k)
ray.kill = recording_kill
res = crawl_mod.crawl(pages, seeds, cfg, out_dir=sys.argv[4] + "/b",
                      max_rounds=3)
fresh = {a._actor_id for a in crawl_mod._POOL[1]}
crawl_mod.close_pool()
print(json.dumps({"stale_killed": len(stale & set(killed)),
                  "fresh_killed": len(fresh & set(killed)),
                  "shared": len(stale & fresh),
                  "articles": res.articles_path,
                  "checkpoints": res.checkpoint_dir,
                  "seen_size": res.seen_size}))
ray.shutdown()
"""


def test_pool_after_ray_restart(pages_path, seeds, tmp_path):
    """In a fresh process: crawl, ray.shutdown(), ray.init(), crawl again.
    The second crawl spawns its own pool, never calls a handle of the
    first session's pool, and equals the simulator."""
    import json
    import subprocess
    import sys
    import types

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", RESTART_SCRIPT, repo, pages_path,
         json.dumps(seeds), str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["stale_killed"] == 0
    assert out["fresh_killed"] == 1
    assert out["shared"] == 0

    res = types.SimpleNamespace(articles_path=out["articles"],
                                checkpoint_dir=out["checkpoints"],
                                seen_size=out["seen_size"])
    cfg = EngineConfig(per_host_budget=30, round_budget=500, seen_shards=2,
                       extract_concurrency=1)
    _assert_matches_simulator(res, pages_path, seeds, cfg)


def test_concurrent_crawls_never_share_a_pool(ray_session, pages_path, seeds,
                                              tmp_path_factory, monkeypatch):
    """Two crawl() calls on threads, both running their rounds at once,
    get disjoint pools (one takes the cached pool, the other spawns); the
    pool returned last stays cached and the other is killed."""
    import threading

    cfg = dataclasses.replace(CFG, extract_concurrency=2)
    out = str(tmp_path_factory.mktemp("crawl_conc_warm"))
    crawl(pages_path, seeds, cfg, out_dir=out, max_rounds=1)

    run_rounds = crawl_mod._run_rounds
    both_running = threading.Barrier(2, timeout=120)
    pools = {}

    def recording_run_rounds(pool, *args):
        pools[threading.get_ident()] = list(pool)
        both_running.wait()
        return run_rounds(pool, *args)

    monkeypatch.setattr(crawl_mod, "_run_rounds", recording_run_rounds)
    results, errors = {}, []

    def run(name):
        try:
            out = str(tmp_path_factory.mktemp(f"crawl_conc_{name}"))
            results[name] = crawl(pages_path, seeds, cfg, out_dir=out,
                                  max_rounds=3)
        except BaseException as e:      # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=run, args=(n,)) for n in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not errors, errors
    p1, p2 = (_actor_ids(p) for p in pools.values())
    assert len(p1) == len(p2) == 2
    assert not set(p1) & set(p2)
    cached = _actor_ids(_cached_pool())
    assert cached in (p1, p2)
    _assert_dead(next(p for p in pools.values()
                      if _actor_ids(p) != cached))
    for res in results.values():
        _assert_matches_simulator(res, pages_path, seeds, cfg)
