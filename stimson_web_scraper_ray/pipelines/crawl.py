"""The flagship pipeline: BFS crawl rounds over a Common-Crawl-style pages
table — frontier → politeness budget → fetch → extract → outlink harvest →
next frontier, with a sharded seen set and per-round checkpoints.

Ray-Data-first layout (north rule / SURVEY.md §7):

- heavy data (html, article fields) only ever flows through
  ``map_batches`` stages — the driver touches *planning tables* only
  (frontier rows: url/hash/host/priority, bounded by ``round_budget``);
- the only wide shuffles are ``groupby(url_hash)`` (in-round dedup) and
  ``groupby(host)`` (politeness top-k), with heavy hosts salted via
  ``part_key`` before fetch so one hot host spreads over the actor pool;
- the seen set is ``state.seen.SeenShard`` partitions sharded by
  ``url_hash % n_shards``, shard ``sid`` hosted by round worker ``sid %
  pool_size``; a URL is *seen* when fetched (the crawl-order oracle's
  invariant: seen set == fetched set);
- each round writes ``round=N/{frontier,seen_shard_*,articles,metrics}``
  plus ``_SUCCESS`` — a killed job resumes from the last complete round
  (per-partition lineage: every metrics row carries (round, host, counts));
- the round workers form one pool per driver process: a crawl takes the
  idle pool a previous ``crawl()`` left (same Ray session, same pool
  size), ``reset``s each worker to fresh per-crawl state and hands it back
  on return, so only the first crawl in a process pays the worker spawn
  (``close_pool`` kills it; ``ray.shutdown()`` ends it; a worker that
  died while idle makes the next crawl spawn a new pool);
- fetch runs on that persistent pool of round workers, fed by one dispatch,
  ``_dispatch_sticky_tail``: the round's (sub-)host groups are LPT-packed
  onto actors and each actor gets one head call. Only when
  ``politeness_delay_s == 0`` and the pool has more than one worker does
  each actor hold back its smallest groups (``TAIL_HOLDBACK_FRAC`` of its
  rows) as a late-binding tail that idle actors may steal; otherwise every
  host stays pinned to its actor for the whole crawl.

Determinism: within a round, fetch order is (priority desc, depth asc,
url_hash asc) — ties broken by the 64-bit canonical hash, so results are
invariant to parallelism level (SURVEY.md §2.9).
"""

from __future__ import annotations

import functools
import json
import os
import threading
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..functions.urlnorm import canon_hash64, get_domain, prepare_url
from ..stages.round_worker import CrawlRoundWorker
from ..stages.url_stage import salt_hosts
from ..state.seen import route

FRONTIER_SCHEMA = pa.schema([
    ("url_canon", pa.string()), ("url_hash", pa.uint64()),
    ("host", pa.string()), ("depth", pa.int32()),
    ("priority", pa.float32()),
])

# share of each actor's round rows held back as stealable tail units on
# the zero-politeness path (see _dispatch_sticky_tail)
TAIL_HOLDBACK_FRAC = 0.25


@dataclass
class CrawlResult:
    rounds: int
    pages_fetched: int
    articles_path: str
    checkpoint_dir: str
    seen_size: int
    # wall seconds from crawl() entry to the start of round execution
    # (output-dir reset, pool creation or reset, frontier build, seen-set
    # restore; plus the spawn barrier under warm_pool)
    setup_sec: float = 0.0
    # wall seconds of ONLY the worker-pool window: creation→ping for a
    # spawned pool (the one-time actor-process spawn barrier), the
    # workers' reset for a pool kept from the previous crawl, so ≈0 on
    # reuse. Steady-state measurements subtract THIS, not setup_sec: the
    # rest of setup (rmtree, frontier, seen-set restore) recurs on every
    # crawl.
    spawn_sec: float = 0.0


# the idle round-worker pool a finished crawl() leaves for the next one:
# ((Ray session, pool size), [actor handles]) or None. Only _swap_pool
# reads or writes it, under the lock, so two concurrent crawls never
# share a pool.
_POOL = None
_POOL_LOCK = threading.Lock()


def _ray_session():
    """(driver node id, job id): the node id changes when a local Ray
    restarts, the job id with every ray.init on a running cluster, and
    the actors a driver created die with its job."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _swap_pool(new):
    """Cache ``new`` (or None) in place of the cached pool; returns the
    pool it replaced."""
    global _POOL
    with _POOL_LOCK:
        old, _POOL = _POOL, new
    return old


def _kill(pool) -> None:
    import ray

    for actor in pool:
        ray.kill(actor)


def _release_pool(cached) -> None:
    """Kill a cached pool's actors. Handles from an earlier Ray session
    are only dropped: their actors ended with it."""
    import ray

    if cached is not None and ray.is_initialized() and \
            cached[0][0] == _ray_session():
        _kill(cached[1])


def _take_pool(key):
    """Pop the cached pool; returns its actors when it was built under
    ``key`` (Ray session, pool size), else releases it and returns None."""
    cached = _swap_pool(None)
    if cached is not None and cached[0] == key:
        return cached[1]
    _release_pool(cached)
    return None


def _put_pool(key, pool) -> None:
    """Cache ``pool`` for the next crawl, releasing any pool cached
    meanwhile (by a concurrent crawl)."""
    _release_pool(_swap_pool((key, pool)))


def _reset_pool(pool, pages_path, cfg, seen_ids):
    """Reset a taken pool's workers for a new crawl and return it; None
    when there was no pool or one of its workers died while idle (node
    lost, OOM kill), in which case the whole pool is killed."""
    import ray

    if pool is None:
        return None
    try:
        ray.get([a.reset.remote(pages_path, cfg, cfg.politeness_delay_s, ids)
                 for a, ids in zip(pool, seen_ids)])
        return pool
    except BaseException as e:
        _kill(pool)
        if isinstance(e, ray.exceptions.RayActorError):
            return None
        raise


def close_pool() -> None:
    """Kill the idle round-worker pool kept for the next crawl() and give
    its processes' memory back (the next crawl spawns a new pool)."""
    _release_pool(_swap_pool(None))


def _frontier_from_seeds(seeds: list[str]) -> pd.DataFrame:
    rows = []
    for rank, url in enumerate(seeds):
        rows.append({
            "url_canon": url,
            "url_hash": canon_hash64(url),
            "host": get_domain(url) or "",
            "depth": 0,
            # seed priority reflects file order (FIXTURES.md §2)
            "priority": float(1.0 + 1.0 / (rank + 1)),
        })
    df = pd.DataFrame(rows, columns=["url_canon", "url_hash", "host",
                                     "depth", "priority"])
    return df.astype({"url_hash": "uint64", "depth": "int32",
                      "priority": "float32"})


def _plan_round(frontier: pd.DataFrame, cfg: EngineConfig
                ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Politeness budget: per-host top-k then global round budget, in the
    deterministic order (priority desc, depth asc, url_hash asc).
    Returns (budget, deferred). Driver-side on a bounded planning table —
    at cluster scale this is the groupby(host)+sort shuffle; the pandas
    form here is the same algebra on ≤round_budget rows."""
    if frontier.empty:
        return frontier, frontier
    f = frontier.sort_values(
        ["priority", "depth", "url_hash"],
        ascending=[False, True, True], kind="mergesort").reset_index(drop=True)
    in_host_budget = f.groupby("host", sort=False).cumcount() < cfg.per_host_budget
    budget = f[in_host_budget].head(cfg.round_budget)
    taken = set(budget["url_hash"].tolist())
    deferred = f[~f["url_hash"].isin(taken)]
    return budget.reset_index(drop=True), deferred.reset_index(drop=True)


def _uh_sortable(t: pa.Table) -> pa.Table:
    """Add an int64 sort key with the SAME order as the uint64 url_hash
    (flip the top bit: uint64 ascending == int64(u ^ 2^63) ascending) —
    Ray's sort path round-trips through pandas/arrow paths that mishandle
    uint64 above 2^63."""
    u = t["url_hash"].to_numpy()
    return t.append_column("uh_s", pa.array((u ^ np.uint64(1 << 63))
                                            .view(np.int64)))


def _plan_round_distributed(frontier_ds, cfg: EngineConfig):
    """Distributed form of _plan_round — same algebra, same deterministic
    order (parity-tested against the pandas path via crawl==sim):

    - per-host top-k: salted-partition apply keyed on host hash; within a
      part, the global (priority desc, depth asc, url_hash asc) sort
      restricted to one host equals the global per-host order, so the
      cumcount cut selects identical rows;
    - global budget: Ray sort on the same keys + limit(round_budget) —
      ONLY the budget materializes on the driver;
    - deferred = frontier minus budget via a broadcast isin anti-join —
      stays a Dataset end to end.

    Returns (budget_df, deferred_ds)."""
    import ray

    from .shuffle import salted_partition_apply as _salted_partition_apply
    from .textstats import word_hash64

    def host_key(t: pa.Table) -> np.ndarray:
        hosts = t["host"].to_pylist()
        return np.fromiter((word_hash64(h or "") for h in hosts),
                           dtype=np.uint64,
                           count=len(hosts)).view(np.int64)

    def per_host_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["priority", "depth", "url_hash"],
                            ascending=[False, True, True], kind="mergesort")
        keep = df.groupby("host", sort=False).cumcount() < cfg.per_host_budget
        return df[keep][list(FRONTIER_SCHEMA.names)]

    kept = _salted_partition_apply(frontier_ds, per_host_topk, host_key)
    budget_df = kept.map_batches(_uh_sortable, batch_format="pyarrow") \
        .sort(["priority", "depth", "uh_s"],
              descending=[True, False, False]) \
        .limit(cfg.round_budget).drop_columns(["uh_s"]).to_pandas()
    budget_df["url_hash"] = budget_df["url_hash"].astype("uint64")

    taken_ref = ray.put(np.sort(budget_df["url_hash"].to_numpy()))

    def not_taken(t: pa.Table) -> pa.Table:
        mask = ~np.isin(t["url_hash"].to_numpy(), ray.get(taken_ref))
        return t.filter(pa.array(mask))

    deferred_ds = frontier_ds.map_batches(not_taken, batch_format="pyarrow")
    return budget_df, deferred_ds


def _build_frontier_distributed(cand_dir: str, deferred_ds, redirects_df,
                                fetched_hashes: np.ndarray, shards,
                                cfg: EngineConfig, depth: int):
    """Distributed next-frontier build: deferred ∪ redirects ∪ spilled
    candidates → drop fetched (broadcast isin) → seen anti-join (seen-
    shard RPCs from inside map_batches) → keep-best-per-hash dedup
    (salted partition, same sort-then-drop_duplicates tie-break as the
    pandas path) → depth cut. Candidate volume never touches the driver."""
    import glob as _glob

    import ray
    import ray.data as rd

    from .shuffle import salted_partition_apply as _salted_partition_apply

    parts = [deferred_ds]
    if redirects_df is not None and len(redirects_df):
        parts.append(rd.from_arrow(pa.Table.from_pandas(
            redirects_df, schema=FRONTIER_SCHEMA, preserve_index=False)))
    if _glob.glob(os.path.join(cand_dir, "*.parquet")):
        cand_ds = rd.read_parquet(cand_dir)
        base = 1.0 / (1.0 + depth)

        if cfg.indegree_priority:
            # distributed citation count: one salted exchange on
            # url_hash (rows of a hash are identical in canon/host, so
            # first+size is deterministic), then priority from the count
            def count_part(df: pd.DataFrame) -> pd.DataFrame:
                return df.groupby("url_hash", sort=False).agg(
                    url_canon=("url_canon", "first"),
                    host=("host", "first"),
                    n_disc=("url_canon", "size")).reset_index()

            from .shuffle import salted_partition_apply as _spa

            counted = _spa(cand_ds, count_part,
                           lambda t: t["url_hash"].to_numpy()
                           .view(np.int64))

            def mk_frontier(t: pa.Table) -> pa.Table:
                n_disc = t["n_disc"].to_numpy(zero_copy_only=False)
                prio = (base + cfg.indegree_weight
                        * np.log1p(n_disc)).astype(np.float32)
                return pa.table({
                    "url_canon": t["url_canon"].cast(pa.string()),
                    "url_hash": t["url_hash"].cast(pa.uint64()),
                    "host": t["host"].cast(pa.string()),
                    "depth": pa.array(np.full(len(t), depth, np.int32)),
                    "priority": pa.array(prio),
                }, schema=FRONTIER_SCHEMA)

            parts.append(counted.map_batches(mk_frontier,
                                             batch_format="pyarrow"))
        else:
            def mk_frontier(t: pa.Table) -> pa.Table:
                n = t.num_rows
                return pa.table({
                    "url_canon": t["url_canon"].cast(pa.string()),
                    "url_hash": t["url_hash"].cast(pa.uint64()),
                    "host": t["host"].cast(pa.string()),
                    "depth": pa.array(np.full(n, depth, np.int32)),
                    "priority": pa.array(np.full(n, base, np.float32)),
                }, schema=FRONTIER_SCHEMA)

            parts.append(cand_ds.map_batches(mk_frontier,
                                             batch_format="pyarrow"))

    fr = parts[0]
    for p in parts[1:]:
        fr = fr.union(p)

    fetched_ref = ray.put(np.sort(np.asarray(fetched_hashes,
                                             dtype=np.uint64)))

    def unseen_filter(t: pa.Table) -> pa.Table:
        h = t["url_hash"].to_numpy()
        t = t.filter(pa.array(~np.isin(h, ray.get(fetched_ref))))
        if t.num_rows == 0:
            return t
        mask = _seen_check(shards, t["url_hash"].to_numpy(), insert=False)
        return t.filter(pa.array(mask))

    fr = fr.map_batches(unseen_filter, batch_format="pyarrow")

    def dedup_best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["priority", "depth", "url_hash"],
                            ascending=[False, True, True], kind="mergesort")
        df = df.drop_duplicates("url_hash")
        return df[df["depth"] <= cfg.max_depth][list(FRONTIER_SCHEMA.names)]

    def hash_key(t: pa.Table) -> np.ndarray:
        return t["url_hash"].to_numpy().view(np.int64)

    return _salted_partition_apply(fr, dedup_best, hash_key)


def _seen_check(shards, hashes: np.ndarray, insert: bool) -> np.ndarray:
    """Distributed semi-join against the seen shards: partition by
    ``hash % n_shards``, one RPC per shard per call (J1 in SURVEY.md §2.4).
    Returns mask of NEW hashes."""
    import ray

    hashes = np.asarray(hashes, dtype=np.uint64)
    if hashes.size == 0:
        return np.zeros(0, dtype=bool)
    shard_ids = route(hashes, len(shards))
    refs, order = [], []
    for sid in range(len(shards)):
        idx = np.nonzero(shard_ids == sid)[0]
        if idx.size == 0:
            continue
        refs.append(shards[sid]("check_and_insert" if insert else "check",
                                hashes[idx]))
        order.append(idx)
    out = np.zeros(len(hashes), dtype=bool)
    for idx, res in zip(order, ray.get(refs)):
        out[idx] = res if insert else ~res
    return out


def _checkpoint_round(ckpt_dir: str, rnd: int, frontier_ds, shards,
                      metrics: pd.DataFrame) -> str:
    """Write a distributed-planning round's checkpoint: the frontier
    Dataset streams straight to the checkpoint parquet, which then becomes
    the NEXT round's input (the checkpoint is the frontier's only
    materialization). Returns the frontier parquet path. Driver-planned
    rounds checkpoint through _checkpoint_round_async."""
    import glob as _glob
    import shutil

    import ray

    rdir = os.path.join(ckpt_dir, f"round={rnd}")
    os.makedirs(rdir, exist_ok=True)
    fpath = os.path.join(rdir, "frontier.parquet")
    shutil.rmtree(fpath, ignore_errors=True)
    frontier_ds.write_parquet(fpath)
    files = _glob.glob(os.path.join(fpath, "*.parquet"))
    if not files:
        # empty frontier → write_parquet emits nothing; keep the
        # checkpoint readable with an empty typed table
        os.makedirs(fpath, exist_ok=True)
        pq.write_table(FRONTIER_SCHEMA.empty_table(),
                       os.path.join(fpath, "part-empty.parquet"))
    n_rows = sum(pq.read_metadata(f).num_rows for f in files)
    ray.get([s("snapshot", os.path.join(rdir, f"seen_shard_{i}.parquet"))
             for i, s in enumerate(shards)])
    pq.write_table(pa.Table.from_pandas(metrics, preserve_index=False),
                   os.path.join(rdir, "metrics.parquet"))
    with open(os.path.join(rdir, "_SUCCESS"), "w") as f:
        f.write(json.dumps({"round": rnd, "frontier_rows": n_rows}))
    return fpath


def _checkpoint_round_async(ckpt_dir: str, rnd: int,
                            frontier: pd.DataFrame, shards,
                            metrics: pd.DataFrame):
    """Driver-planning checkpoint off the critical path: nothing in-run
    reads a driver-path checkpoint (the frontier stays in memory), so the
    durability writes overlap the next round's planning+fetch. The shard
    ``snapshot`` calls are invoked HERE, on the caller thread — actor
    queues are FIFO per caller, so each snapshot captures the seen set at
    this round boundary, before any next-round insert reaches the shard.
    The worker thread only waits on those refs and writes files; _SUCCESS
    still lands only after every part is durable (resume semantics
    unchanged). Returns a handle with .join() that re-raises any write
    error."""
    import threading

    import ray

    rdir = os.path.join(ckpt_dir, f"round={rnd}")
    os.makedirs(rdir, exist_ok=True)
    snap_refs = [
        s("snapshot", os.path.join(rdir, f"seen_shard_{i}.parquet"))
        for i, s in enumerate(shards)]
    err: list[BaseException] = []

    # snapshot the frames as Arrow ON THE CALLER THREAD: the next round
    # may mutate / rebind the pandas objects while the writer runs
    frontier_tbl = pa.Table.from_pandas(frontier, schema=FRONTIER_SCHEMA,
                                        preserve_index=False)
    metrics_tbl = pa.Table.from_pandas(metrics, preserve_index=False)
    n_rows = len(frontier)

    def run() -> None:
        try:
            pq.write_table(frontier_tbl,
                           os.path.join(rdir, "frontier.parquet"))
            ray.get(snap_refs)
            pq.write_table(metrics_tbl,
                           os.path.join(rdir, "metrics.parquet"))
            with open(os.path.join(rdir, "_SUCCESS"), "w") as f:
                f.write(json.dumps({"round": rnd,
                                    "frontier_rows": n_rows}))
        except BaseException as e:          # surfaced on join()
            err.append(e)

    t = threading.Thread(target=run, daemon=True)
    t.start()

    class _Handle:
        def join(self) -> None:
            t.join()
            if err:
                raise err[0]

    return _Handle()


def _find_resume_round(ckpt_dir: str) -> int | None:
    if not os.path.isdir(ckpt_dir):
        return None
    done = []
    for name in os.listdir(ckpt_dir):
        if name.startswith("round=") and \
                os.path.exists(os.path.join(ckpt_dir, name, "_SUCCESS")):
            done.append(int(name.split("=")[1]))
    return max(done) if done else None


def crawl(pages_path: str, seeds: list[str], cfg: EngineConfig | None = None,
          out_dir: str = "/tmp/swsr_crawl", max_rounds: int = 3,
          resume: bool = False, warm_pool: bool = False) -> CrawlResult:
    """Run the crawl. Requires an initialised Ray session (caller owns it).

    The round-worker pool outlives the call: the next crawl() in this
    process, in the same Ray session and with the same pool size, reuses
    it (see ``close_pool``). ``warm_pool=True`` blocks until every pool
    actor's process is up before round 0, so it matters only for the
    first crawl in a process (or after a pool-size change): per-actor
    process spawn — ~1.2 s × pool size, paid inside round 0's first
    seen-set call otherwise — is then moved out of the rounds."""
    import ray

    import shutil
    import time as _time

    _t_entry = _time.perf_counter()
    cfg = cfg or EngineConfig()
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    articles_dir = os.path.join(out_dir, "articles")
    if not resume:
        # fresh run: never mix with a previous run's outputs
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        shutil.rmtree(articles_dir, ignore_errors=True)
    os.makedirs(articles_dir, exist_ok=True)

    # ONE persistent pool of fused round workers for the whole crawl
    # (stages/round_worker.py: fetch → extract → write → harvest; html
    # never leaves the actor), kept for the next crawl too (_take_pool /
    # _put_pool). Raw Ray actors instead of a per-round
    # map_batches pool — the Dataset API tears actor state down at the end
    # of every execution, but politeness clocks, robots caches, parquet
    # handles, warm extraction state and the seen shards must SURVIVE
    # across rounds; this is exactly the "shared mutable state the Dataset
    # API can't express" escape hatch, and it removes ~1s/round of pool
    # spin-up. Under politeness, host→actor pinning is sticky for the
    # whole crawl (_run_rounds remembers each part_key's actor across
    # rounds; LPT packs only NEW keys), so a host's politeness clock
    # follows it from round to round — stronger politeness than per-round
    # pools could give.
    # Distributed planning runs a Dataset execution BETWEEN dispatches
    # while the pool actors idle — if they RESERVED every CPU the planning
    # exchange would wait forever for a slot (observed: a 4-actor
    # num_cpus=1 pool on a 4-CPU session wedged `_plan_round_distributed`
    # at the first Sort). So the pool declares num_cpus=0: planning
    # Datasets see the whole session, and real fetch concurrency is
    # bounded by pool_size (one process() call per actor), capped at the
    # session's CPUs. SPREAD placement keeps the declared-zero actors even
    # across nodes, where the default policy would pack them onto one.
    # The cap reads the session's total CPUs, not the ones free right now:
    # a free count dips while a finished Dataset releases its tasks, and a
    # pool size that moves with it would replace the kept pool for nothing.
    session_cpus = int(ray.cluster_resources().get("CPU", 1))
    pool_size = max(1, min(cfg.extract_concurrency, session_cpus))
    key = (_ray_session(), pool_size)
    seen_ids = [range(i, cfg.seen_shards, pool_size) for i in range(pool_size)]
    _t_spawn = _time.perf_counter()
    pool = _reset_pool(_take_pool(key), pages_path, cfg, seen_ids)
    if pool is None:
        worker_cls = ray.remote(CrawlRoundWorker).options(
            num_cpus=0, scheduling_strategy="SPREAD")
        pool = [worker_cls.remote(
                    pages_path=pages_path, round_dir="", config=cfg,
                    politeness_delay_s=cfg.politeness_delay_s,
                    seen_ids=ids)
                for ids in seen_ids]
    # shards[sid](op, *args): ref of seen-set op on shard sid, which lives
    # in worker sid % pool_size (CrawlRoundWorker.seen_op)
    shards = [functools.partial(pool[sid % pool_size].seen_op.remote, sid)
              for sid in range(cfg.seen_shards)]
    try:
        if warm_pool:
            ray.get([a.ping.remote() for a in pool])
        spawn_sec = _time.perf_counter() - _t_spawn

        start_round = 0
        frontier = _frontier_from_seeds(seeds)
        if resume:
            last = _find_resume_round(ckpt_dir)
            if last is not None:
                rdir = os.path.join(ckpt_dir, f"round={last}")
                frontier = pq.read_table(
                    os.path.join(rdir, "frontier.parquet")).to_pandas()
                ray.get([s("restore", os.path.join(
                    rdir, f"seen_shard_{i}.parquet"))
                    for i, s in enumerate(shards)])
                start_round = last + 1
        setup_sec = _time.perf_counter() - _t_entry

        total_fetched = _run_rounds(
            pool, pool_size, shards, frontier, start_round, max_rounds,
            cfg, articles_dir, ckpt_dir)
        seen_size = sum(ray.get([s("size") for s in shards]))
    except BaseException:
        # a pool left mid-round is in an unknown state: never reuse it
        _kill(pool)
        raise
    _put_pool(key, pool)

    return CrawlResult(
        rounds=max_rounds, pages_fetched=total_fetched,
        articles_path=articles_dir, checkpoint_dir=ckpt_dir,
        seen_size=seen_size, setup_sec=round(setup_sec, 3),
        spawn_sec=round(spawn_sec, 3))


def _run_rounds(pool, pool_size, shards, frontier, start_round, max_rounds,
                cfg, articles_dir, ckpt_dir) -> int:
    import shutil

    total_fetched = 0
    # sticky host→actor map: a part_key keeps its actor across rounds so
    # the per-actor politeness clock follows the host; LPT below packs
    # only keys not yet pinned (advisor finding: per-round LPT let hosts
    # migrate between actors, resetting their politeness accounting)
    sticky: dict[int, int] = {}
    # per-actor throughput EWMA (rows/sec, measured from each round's
    # dispatch completions): actor PROCESSES have persistent ~40% speed
    # differences (host scheduling — BASELINE.md round-3 forensics), so
    # equal-size heads finish ~1 s apart at 13 actors and the slowest
    # sets the round barrier. Used only with the tail on, where placement
    # never changes outputs (parity-tested).
    speed: dict[int, float] = {}
    # the late-binding tail may move a host group to another actor: only
    # when politeness clocks are no-ops and there is another actor to
    # take it. Otherwise the same dispatch runs with nothing held back.
    holdback = (TAIL_HOLDBACK_FRAC
                if cfg.politeness_delay_s == 0 and pool_size > 1 else 0.0)
    # ≤1 outstanding async checkpoint (driver path): joined before the
    # next round's checkpoint and on every exit, so failures surface and
    # checkpoints stay ordered
    ckpt_pending = None
    for rnd in range(start_round, max_rounds):
        # per-round path choice: the distributed machinery only earns its
        # fixed cost (spill + read-back + extra exchanges, ~1 s/round)
        # once the frontier outgrows the bounded driver planning table.
        # Both paths compute the identical budget/frontier (parity-tested
        # crawl==sim on each), so the switch is purely an execution-plan
        # decision — the adaptive_join pattern applied to planning.
        use_dist = _frontier_rows(frontier) > cfg.planning_table_limit
        if use_dist:
            budget, deferred = _plan_round_distributed(
                _as_frontier_ds(frontier), cfg)
        else:
            frontier = _as_frontier_df(frontier)
            if frontier.empty:
                break
            budget, deferred = _plan_round(frontier, cfg)
        if budget.empty:
            break

        # drop anything already fetched; mark the rest seen (fetch intent)
        new_mask = _seen_check(shards, budget["url_hash"].to_numpy(), insert=True)
        budget = budget[new_mask].reset_index(drop=True)
        if budget.empty:
            # dist-path deferred is a LAZY Dataset chain; materialize it
            # before it becomes the frontier, or next round's row-count
            # probe and the planning pass would each re-execute the
            # whole filter pipeline
            frontier = (deferred.materialize()
                        if hasattr(deferred, "materialize") else deferred)
            continue

        # skew detection for the fetch partitioning (north rule salting).
        # The threshold is RELATIVE to the round: any host holding more
        # than a ~1/pool share of the budget is a straggler for its pinned
        # actor, so salt it over salt_buckets sub-keys (deterministic:
        # url_hash % buckets). An absolute threshold alone leaves a 30%
        # host unsalted in small rounds and one actor does 30% of the
        # round serially.
        counts = budget["host"].value_counts()
        salt_at = min(cfg.heavy_host_threshold,
                      max(32, len(budget) // pool_size))
        heavy = {h: int(c) for h, c in counts.items() if c > salt_at}

        # partition plan: salted host key, then (part_key, url) sort so each
        # fetch block covers a contiguous url range of one (sub-)host —
        # politeness locality AND row-group pruning in the fetch probe
        salted = salt_hosts(pa.Table.from_pandas(budget, preserve_index=False),
                            heavy, cfg.salt_buckets).to_pandas()
        salted = salted.sort_values(["part_key", "url_canon"],
                                    kind="mergesort").reset_index(drop=True)

        round_dir = os.path.join(articles_dir, f"round={rnd}")
        # wipe a partially-written (no _SUCCESS yet) round before rerun
        shutil.rmtree(round_dir, ignore_errors=True)
        os.makedirs(round_dir, exist_ok=True)
        cand_dir = None
        if use_dist:
            # candidate spill target (distributed planning): under the
            # checkpoint tree, NOT the articles tree, so article readers
            # never see planning rows
            cand_dir = os.path.join(ckpt_dir, f"round={rnd}", "cand")
            shutil.rmtree(cand_dir, ignore_errors=True)
            os.makedirs(cand_dir, exist_ok=True)

        # Route each (sub-)host group to one actor (politeness: a host's
        # token bucket never spans actors within a round) by LPT on group
        # rows. Without the tail, pins are sticky for the whole crawl, so
        # a host's politeness clock follows it across rounds. With the
        # tail on (politeness clocks are no-ops), rounds after the first
        # re-pack ALL groups by speed-weighted LPT instead.
        groups = salted.groupby("part_key", sort=True)
        sizes = groups.size().sort_values(ascending=False, kind="mergesort")
        assign: dict[int, int] = {}
        if holdback and speed:
            # minimize each actor's projected finish time rows/speed; with
            # equal weights this IS plain LPT
            med = float(np.median(list(speed.values())))
            w = [max(speed.get(a, med), 1e-6) for a in range(pool_size)]
            fin = [0.0] * pool_size
            for pk, sz in sizes.items():
                aid = min(range(pool_size),
                          key=lambda a: (fin[a] + int(sz)) / w[a])
                assign[pk] = aid
                fin[aid] += int(sz)
        else:
            loads = [0] * pool_size
            # first honor sticky pins (and account their load) ...
            for pk, sz in sizes.items():
                aid = sticky.get(pk)
                if aid is not None:
                    assign[pk] = aid
                    loads[aid] += int(sz)
            # ... then LPT-pack only new keys onto least-loaded actors
            for pk, sz in sizes.items():
                if pk in assign:
                    continue
                aid = loads.index(min(loads))
                assign[pk] = aid
                loads[aid] += int(sz)
            sticky.update(assign)
        per_actor: dict[int, list] = {}
        for pk, grp in groups:
            per_actor.setdefault(assign[pk], []).append(grp)
        # the fold runs the post-fetch split/redirect scan during the
        # dispatcher's ray.wait idle — see _PlanFold
        fold = _PlanFold()
        busy = _dispatch_sticky_tail(pool, per_actor, holdback, round_dir,
                                     cand_dir, fold)
        for aid, (rows, span) in busy.items():
            if rows > 0 and span > 0.05:
                v = rows / span
                speed[aid] = 0.5 * speed[aid] + 0.5 * v if aid in speed else v

        cand_df = fold.cand_df()
        if not cand_df.empty:
            if cfg.indegree_priority:
                # citation count per candidate (workers preserve per-page
                # multiplicity under this flag), then keep one row
                cand_df = cand_df.assign(
                    n_disc=cand_df.groupby("url_hash")["url_hash"]
                    .transform("size"))
            cand_df = cand_df.drop_duplicates("url_hash")

        # redirect-shaped candidates: canonical-link rebuild (article.py:
        # 421-424, one extra round instead of recursion) and meta-refresh
        # follow (utils.py:111-131, ≤1 hop). Bypass valid_url — redirects
        # are not subject to the article-url predicate — but not the seen
        # set. Scanned per unit inside the fold (overlapped with the
        # round tail on the dispatch path); bounded by the round budget.
        round_df = fold.page_df()
        redirects = fold.redirects
        n_fetched = len(round_df)
        fetched_hashes = budget["url_hash"].to_numpy()
        total_fetched += n_fetched

        # per-round metrics: lineage rows (round, host, planned, fetched,
        # ok) — the per-partition accounting the checkpoint carries
        planned_hosts = budget["host"].value_counts()
        art_stat = round_df[["url", "status"]].merge(
            budget[["url_canon", "host"]], left_on="url",
            right_on="url_canon", how="left")
        # fetched urls are budget rows, so the merge resolves every host
        # without re-parsing 70k urls on the driver (was ~1.5 s/run);
        # fill any miss (shouldn't happen) via the parser fallback
        miss = art_stat["host"].isna()
        if miss.any():
            art_stat.loc[miss, "host"] = art_stat.loc[miss, "url"].map(
                lambda u: get_domain(u) or "")
        fetched_by_host = art_stat.groupby("host")["url"].count()
        ok_by_host = art_stat[art_stat["status"] == "ok"] \
            .groupby("host")["url"].count()
        metrics = pd.DataFrame({
            "round": rnd,
            "host": planned_hosts.index,
            "planned": planned_hosts.values,
        })
        metrics["fetched"] = metrics["host"].map(fetched_by_host).fillna(0) \
            .astype("int64")
        metrics["ok"] = metrics["host"].map(ok_by_host).fillna(0) \
            .astype("int64")

        # next frontier: deferred ∪ redirects ∪ new candidates, minus seen,
        # dedup by hash (priority: redirects 1.5 > depth-based candidates)
        depth = rnd + 1
        redirects_df = None
        if redirects:
            rseen = sorted(set(redirects))
            redirects_df = pd.DataFrame({
                "url_canon": rseen,
                "url_hash": pd.array([canon_hash64(u) for u in rseen],
                                     dtype="uint64"),
                "host": [get_domain(u) or "" for u in rseen],
                "depth": np.int32(depth),
                "priority": np.float32(1.5),
            })

        if use_dist:
            frontier_ds = _build_frontier_distributed(
                cand_dir, deferred, redirects_df, fetched_hashes, shards,
                cfg, depth)
            if ckpt_pending is not None:    # keep checkpoints ordered
                ckpt_pending.join()
                ckpt_pending = None
            # checkpoint IS the materialization; next round reads it back
            frontier = _checkpoint_round(ckpt_dir, rnd, frontier_ds,
                                         shards, metrics)
            continue

        parts = [deferred]
        if redirects_df is not None:
            parts.append(redirects_df)
        if not cand_df.empty:
            base = 1.0 / (1.0 + depth)
            if cfg.indegree_priority:
                prio = (base + cfg.indegree_weight
                        * np.log1p(cand_df["n_disc"].to_numpy())) \
                    .astype(np.float32)
            else:
                prio = np.full(len(cand_df), base, np.float32)
            parts.append(pd.DataFrame({
                "url_canon": cand_df["url_canon"],
                "url_hash": cand_df["url_hash"].astype("uint64"),
                "host": cand_df["host"],
                "depth": np.int32(depth),
                "priority": prio,
            }))
        frontier = pd.concat(parts, ignore_index=True)
        if not frontier.empty:
            frontier = frontier[
                ~frontier["url_hash"].isin(set(fetched_hashes.tolist()))]
            unseen = _seen_check(shards, frontier["url_hash"].to_numpy(),
                                 insert=False)
            frontier = frontier[unseen]
            frontier = frontier.sort_values(
                ["priority", "depth", "url_hash"],
                ascending=[False, True, True], kind="mergesort")
            frontier = frontier.drop_duplicates("url_hash").reset_index(drop=True)
            frontier = frontier[frontier["depth"] <= cfg.max_depth]

        if ckpt_pending is not None:
            ckpt_pending.join()
        ckpt_pending = _checkpoint_round_async(ckpt_dir, rnd, frontier,
                                               shards, metrics)

    if ckpt_pending is not None:
        ckpt_pending.join()
    return total_fetched


class _PlanFold:
    """Incremental fold of per-unit plan tables. The driver's post-fetch
    work on each unit's result — the kind split, the arrow→pandas
    conversion, and the per-page redirect/meta-refresh scan (the bulk of
    the serial 'post' phase, ~0.2 s/round at 16 cpus) — runs while the
    dispatcher is idle in ``ray.wait`` on the round's remaining units,
    instead of serially after the round barrier. Parity-safe by
    construction: the fold outputs are insensitive to unit completion
    order in exactly the way the batch form already was — candidate
    rows are later deduped by url_hash with identical payloads across
    duplicates, redirect targets get ``sorted(set(...))`` downstream,
    and counts are sums."""

    def __init__(self) -> None:
        self.cand: list[pa.Table] = []
        self.page: list[pa.Table] = []
        self.redirects: list[str] = []

    def add(self, t: pa.Table) -> None:
        import pyarrow.compute as pc

        tc = t.filter(pc.equal(t["kind"], "cand"))
        if tc.num_rows:
            self.cand.append(tc.select(["url_canon", "url_hash", "host"]))
        tp = t.filter(pc.equal(t["kind"], "page"))
        if tp.num_rows:
            tp = tp.select(["url", "status", "canonical_link",
                            "meta_refresh_url"])
            self.page.append(tp)
            for url_v, canonical, refresh in zip(
                    tp["url"].to_pylist(),
                    tp["canonical_link"].to_pylist(),
                    tp["meta_refresh_url"].to_pylist()):
                for target in (canonical, refresh):
                    if target and target != url_v:
                        prepared = prepare_url(target, url_v)
                        if prepared:
                            self.redirects.append(prepared)

    def cand_df(self) -> pd.DataFrame:
        if self.cand:
            return pa.concat_tables(self.cand).to_pandas()
        return pd.DataFrame({"url_canon": pd.array([], dtype="object"),
                             "url_hash": pd.array([], dtype="uint64"),
                             "host": pd.array([], dtype="object")})

    def page_df(self) -> pd.DataFrame:
        if self.page:
            return pa.concat_tables(self.page).to_pandas()
        return pd.DataFrame({c: [] for c in (
            "url", "status", "canonical_link", "meta_refresh_url")})


def _dispatch_sticky_tail(pool, per_actor, frac: float, round_dir: str,
                          cand_dir, fold: _PlanFold) -> dict:
    """The crawl's one dispatch: a static sticky head call per actor plus,
    when ``frac > 0``, a late-binding tail. Per actor, the smallest WHOLE
    host-groups totalling ~frac of its rows are held back and coalesced
    (in part_key order, for probe locality) into ~512-row units; the rest
    ships as one head call. When a call completes, the freed actor takes
    its own next unit first — identical placement to pure sticky LPT when
    nothing straggles — and steals from the origin with the most backlog
    only when its own queue is dry. Tail cost drops from one static bucket
    (10-14% of fetch wall, per-page cost variance) to one unit, while
    ~(1-frac) of the round still pays only one probe span per actor.

    With ``frac == 0`` nothing is held back and nothing is stolen: one
    call per actor holding exactly its assigned groups (pure sticky LPT,
    safe under politeness). Whole groups only → a host never spans two
    actors within a round; callers turn the tail on only at
    politeness_delay_s == 0, where cross-round clock migration is a no-op.

    Each result is folded into ``fold`` while the driver waits on the rest.
    Returns per-actor (rows, busy-span seconds) for the caller's speed
    EWMA."""
    import time as _time
    from collections import deque

    import ray

    def concat(dfs: list[pd.DataFrame]) -> pd.DataFrame:
        return pd.concat(dfs, ignore_index=True) if len(dfs) > 1 else dfs[0]

    own: dict[int, deque] = {}
    for aid, grps in per_actor.items():
        target = int(sum(len(g) for g in grps) * frac)
        held: set[int] = set()
        held_rows = 0
        for i in sorted(range(len(grps)), key=lambda i: len(grps[i])):
            # always keep at least one (the largest) group in the head
            if held_rows >= target or len(held) >= len(grps) - 1:
                break
            held.add(i)
            held_rows += len(grps[i])
        q = own[aid] = deque(
            [concat([g for i, g in enumerate(grps) if i not in held])])
        # adaptive tail unit size: ~3 tail units per actor, clamped to
        # [128, 512]. At small pools the per-actor tail is large and
        # 512-row units already give ≥4 drain steps; at 13+ actors a
        # fixed 512 left ONE unit per actor and the last unit (~1 s of
        # work) set the round barrier — measured ~8% of the hi-leg
        # fetch wall. Floor 128: each unit pays a parquet range probe
        # per 512-row chunk remainder, so thinner units trade balance
        # for probe overhead (pure late-binding at 16-32 cpus measured
        # 10-30% slower on exactly that cost). Tail units sit at the
        # BACK of the queue, so back-steals lift the cheap units first.
        unit_rows = min(512, max(128, held_rows // 3))
        cur: list[pd.DataFrame] = []
        cur_rows = 0
        for i in sorted(held):              # part_key order → url locality
            cur.append(grps[i])
            cur_rows += len(grps[i])
            if cur_rows >= unit_rows:
                q.append(concat(cur))
                cur, cur_rows = [], 0
        if cur:
            q.append(concat(cur))

    def take_unit(aid: int) -> pd.DataFrame | None:
        q = own.get(aid)
        if q:
            return q.popleft()
        if not frac:                        # pinned: never move a group
            return None
        best, best_rows = None, 0
        for oid, oq in own.items():
            rows = sum(len(d) for d in oq)
            if rows > best_rows:
                best, best_rows = oid, rows
        if best is None:
            return None
        # steal from the BACK: the origin keeps eating its queue in order
        return own[best].pop()

    def submit(aid: int, df: pd.DataFrame):
        tbl = pa.Table.from_pandas(df, preserve_index=False)
        pending[pool[aid].process.remote(tbl, round_dir, cand_dir)] = \
            (aid, len(df))

    # one call in flight per actor: a unit submitted behind a running
    # head could never be stolen, re-creating the straggler barrier the
    # tail exists to remove
    pending: dict = {}
    for aid in range(len(pool)):
        df = take_unit(aid)
        if df is not None:
            submit(aid, df)

    rows_done: dict[int, int] = {}
    last_done: dict[int, float] = {}
    t_d = _time.perf_counter()
    while pending:
        done, _ = ray.wait(list(pending), num_returns=1)
        ref = done[0]
        aid, rows = pending.pop(ref)
        nxt = take_unit(aid)
        if nxt is not None:                 # refill BEFORE pulling result
            submit(aid, nxt)
        rows_done[aid] = rows_done.get(aid, 0) + rows
        last_done[aid] = _time.perf_counter() - t_d
        t = ray.get(ref)
        if t.num_rows:                      # overlap post-fold with wait
            fold.add(t)
    # every actor's first call is submitted at t≈0, so its last completion
    # offset approximates its busy span (small driver dispatch gaps
    # inflate all actors uniformly)
    return {aid: (rows_done[aid], last_done[aid]) for aid in rows_done}


def _as_frontier_ds(frontier):
    """Frontier as a Ray Dataset: a checkpoint parquet path (the steady
    state of distributed planning), a DataFrame (seeds / resume), or an
    already-built Dataset (post-seen-filter deferred)."""
    import ray.data as rd

    if isinstance(frontier, str):
        return rd.read_parquet(frontier)
    if isinstance(frontier, pd.DataFrame):
        return rd.from_arrow(pa.Table.from_pandas(
            frontier, schema=FRONTIER_SCHEMA, preserve_index=False))
    return frontier


def _as_frontier_df(frontier) -> pd.DataFrame:
    """Frontier as a driver DataFrame (the small-round fast path; callers
    only take it when _frontier_rows is under planning_table_limit)."""
    if isinstance(frontier, pd.DataFrame):
        return frontier
    if isinstance(frontier, str):
        df = pq.read_table(frontier).to_pandas() if frontier.endswith(
            ".parquet") and os.path.isfile(frontier) else None
        if df is None:
            import pyarrow.dataset as pads

            df = pads.dataset(frontier, format="parquet").to_table() \
                .to_pandas()
    else:
        df = frontier.to_pandas()
    if not df.empty:
        df = df.astype({"url_hash": "uint64", "depth": "int32",
                        "priority": "float32"})
    return df[list(FRONTIER_SCHEMA.names)] if len(df.columns) else df


def _frontier_rows(frontier) -> int:
    """Row count without materializing: len() for DataFrames, parquet
    footer metadata for checkpoint paths, count() for Datasets (cheap on
    the materialized deferred)."""
    import glob as _glob

    if isinstance(frontier, pd.DataFrame):
        return len(frontier)
    if isinstance(frontier, str):
        if os.path.isfile(frontier):
            return pq.read_metadata(frontier).num_rows
        return sum(pq.read_metadata(f).num_rows for f in
                   _glob.glob(os.path.join(frontier, "*.parquet")))
    return frontier.count()


def final_seen_hashes(ckpt_dir: str, rnd: int, n_shards: int) -> np.ndarray:
    """Union of the shard snapshots of round ``rnd`` (test oracle hook)."""
    parts = []
    rdir = os.path.join(ckpt_dir, f"round={rnd}")
    for i in range(n_shards):
        p = os.path.join(rdir, f"seen_shard_{i}.parquet")
        if os.path.exists(p):
            parts.append(pq.read_table(p)["url_hash"].to_numpy())
    if not parts:
        return np.array([], dtype=np.uint64)
    return np.sort(np.concatenate(parts))
