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
  (per-partition lineage: every metrics row carries (round, host, counts)).

Determinism: within a round, fetch order is (priority desc, depth asc,
url_hash asc) — ties broken by the 64-bit canonical hash, so results are
invariant to parallelism level (SURVEY.md §2.9).
"""

from __future__ import annotations

import functools
import json
import os
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


@dataclass
class CrawlResult:
    rounds: int
    pages_fetched: int
    articles_path: str
    checkpoint_dir: str
    seen_size: int
    # wall seconds from crawl() entry to the start of round execution
    # (output-dir reset, pool creation, frontier build, seen-set restore;
    # plus the spawn barrier under warm_pool)
    setup_sec: float = 0.0
    # wall seconds of ONLY the worker-pool creation→ping window — the
    # one-time actor-process spawn barrier a long-lived cluster pool
    # would not re-pay per crawl. Steady-state measurements subtract
    # THIS, not setup_sec: the rest of setup (rmtree, frontier, seen-set
    # restore) recurs on every crawl even with a warm cluster.
    spawn_sec: float = 0.0


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


def _checkpoint_round(ckpt_dir: str, rnd: int, frontier, shards,
                      metrics: pd.DataFrame) -> str:
    """Write the round checkpoint; ``frontier`` is a DataFrame (driver
    planning) or a Ray Dataset (distributed planning — streamed straight
    to the checkpoint parquet, which then becomes the NEXT round's input:
    the checkpoint is the frontier's only materialization). Returns the
    frontier parquet path."""
    import glob as _glob

    import ray

    rdir = os.path.join(ckpt_dir, f"round={rnd}")
    os.makedirs(rdir, exist_ok=True)
    fpath = os.path.join(rdir, "frontier.parquet")
    if isinstance(frontier, pd.DataFrame):
        pq.write_table(pa.Table.from_pandas(frontier, schema=FRONTIER_SCHEMA,
                                            preserve_index=False), fpath)
        n_rows = len(frontier)
    else:
        import shutil

        shutil.rmtree(fpath, ignore_errors=True)
        frontier.write_parquet(fpath)
        files = _glob.glob(os.path.join(fpath, "*.parquet"))
        if not files:
            # empty frontier → write_parquet emits nothing; keep the
            # checkpoint readable with an empty typed table
            os.makedirs(fpath, exist_ok=True)
            pq.write_table(FRONTIER_SCHEMA.empty_table(),
                           os.path.join(fpath, "part-empty.parquet"))
            files = []
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

    ``warm_pool=True`` blocks until every pool actor's process is up
    before round 0 (steady-state mode: on a long-lived cluster the pool
    outlives many crawls, so per-actor process spawn — ~1.2 s × pool
    size, paid inside round 0's fetch otherwise — is a one-time cost,
    not a per-crawl one)."""
    import ray

    import shutil
    import time as _time

    _t_entry = _time.perf_counter()
    cfg = cfg or EngineConfig()
    if cfg.dynamic_dispatch and cfg.politeness_delay_s != 0:
        # fail fast instead of silently falling back to sticky pinning:
        # late-binding dispatch migrates host groups between actors,
        # which would reset their politeness clocks mid-crawl
        raise ValueError(
            "dynamic_dispatch requires politeness_delay_s == 0 "
            f"(got {cfg.politeness_delay_s})")
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    articles_dir = os.path.join(out_dir, "articles")
    if not resume:
        # fresh run: never mix with a previous run's outputs
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        shutil.rmtree(articles_dir, ignore_errors=True)
    os.makedirs(articles_dir, exist_ok=True)

    # ONE persistent pool of fused round workers for the whole crawl
    # (stages/round_worker.py: fetch → extract → write → harvest; html
    # never leaves the actor). Raw Ray actors instead of a per-round
    # map_batches pool — the Dataset API tears actor state down at the end
    # of every execution, but politeness clocks, robots caches, parquet
    # handles, warm extraction state and the seen shards must SURVIVE
    # across rounds; this is exactly the "shared mutable state the Dataset
    # API can't express" escape hatch, and it removes ~1s/round of pool
    # spin-up. Host→actor pinning is sticky for the whole crawl
    # (_run_rounds remembers each part_key's actor across rounds; LPT
    # packs only NEW keys), so a host's politeness clock follows it from
    # round to round — stronger politeness than per-round pools could give.
    # cap by free CPUs: raw actors at num_cpus=1 would otherwise deadlock
    # on sessions smaller than extract_concurrency (the map_batches
    # autoscaler used to absorb this). With distributed planning enabled
    # a Dataset execution runs BETWEEN dispatches while the pool actors
    # idle — if they RESERVED every CPU the planning exchange would wait
    # forever for a slot (observed: a 4-actor num_cpus=1 pool on a 4-CPU
    # session wedged `_plan_round_distributed` at the first Sort). So
    # under distributed planning the pool declares num_cpus=0: planning
    # Datasets see the whole session, the pool keeps full fetch
    # parallelism (real concurrency is bounded by pool_size — one
    # process() call per actor — not by the declaration), and the two
    # phases never overlap within a round. SPREAD placement keeps the
    # declared-zero actors even across nodes, where the default policy
    # would pack them onto one.
    avail_cpus = int(ray.available_resources().get("CPU", 1))
    pool_size = max(1, min(cfg.extract_concurrency, avail_cpus))
    worker_cls = ray.remote(CrawlRoundWorker)
    opts = ({"num_cpus": 0, "scheduling_strategy": "SPREAD"}
            if cfg.distributed_planning else {"num_cpus": 1})
    _t_spawn = _time.perf_counter()
    pool = [worker_cls.options(**opts).remote(
                pages_path=pages_path, round_dir="", config=cfg,
                politeness_delay_s=cfg.politeness_delay_s,
                seen_ids=range(i, cfg.seen_shards, pool_size))
            for i in range(pool_size)]
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
        # read before the finally kills the workers that hold the shards
        seen_size = sum(ray.get([s("size") for s in shards]))
    finally:
        for actor in pool:
            ray.kill(actor)

    return CrawlResult(
        rounds=max_rounds, pages_fetched=total_fetched,
        articles_path=articles_dir, checkpoint_dir=ckpt_dir,
        seen_size=seen_size, setup_sec=round(setup_sec, 3),
        spawn_sec=round(spawn_sec, 3))


def _run_rounds(pool, pool_size, shards, frontier, start_round, max_rounds,
                cfg, articles_dir, ckpt_dir) -> int:
    import ray

    import shutil

    total_fetched = 0
    # SWSR_PHASE_LOG=1: per-round phase wall times on stderr — the
    # profiling hook behind the round-barrier scaling work (the serial
    # driver fraction is the Amdahl term that caps crawl efficiency)
    import sys as _sys
    import time as _time
    phase_log = os.environ.get("SWSR_PHASE_LOG") == "1"
    # sticky host→actor map: a part_key keeps its actor across rounds so
    # the per-actor politeness clock follows the host; LPT below packs
    # only keys not yet pinned (advisor finding: per-round LPT let hosts
    # migrate between actors, resetting their politeness accounting)
    sticky: dict[int, int] = {}
    # per-actor throughput EWMA (rows/sec, measured from each round's
    # dispatch completions): actor PROCESSES have persistent ~40% speed
    # differences (host scheduling — BASELINE.md round-3 forensics), so
    # equal-size heads finish ~1 s apart at 13 actors and the slowest
    # sets the round barrier. Used only on the zero-politeness tail
    # path, where placement never changes outputs (parity-tested).
    speed: dict[int, float] = {}
    # ≤1 outstanding async checkpoint (driver path): joined before the
    # next round's checkpoint and on every exit, so failures surface and
    # checkpoints stay ordered
    ckpt_pending = None
    for rnd in range(start_round, max_rounds):
        _ph: dict[str, float] = {}
        _t0 = _time.perf_counter()

        def _stamp(name: str) -> None:
            nonlocal _t0
            now = _time.perf_counter()
            _ph[name] = round(_ph.get(name, 0.0) + now - _t0, 3)
            _t0 = now
        # per-round path choice: the distributed machinery only earns its
        # fixed cost (spill + read-back + extra exchanges, ~1 s/round)
        # once the frontier outgrows the bounded driver planning table.
        # Both paths compute the identical budget/frontier (parity-tested
        # crawl==sim on each), so the switch is purely an execution-plan
        # decision — the adaptive_join pattern applied to planning.
        use_dist = cfg.distributed_planning and \
            _frontier_rows(frontier) > cfg.planning_table_limit
        if use_dist:
            budget, deferred = _plan_round_distributed(
                _as_frontier_ds(frontier), cfg)
        else:
            frontier = _as_frontier_df(frontier)
            if frontier.empty:
                break
            budget, deferred = _plan_round(frontier, cfg)
        _stamp("plan")
        if budget.empty:
            break

        # drop anything already fetched; mark the rest seen (fetch intent)
        new_mask = _seen_check(shards, budget["url_hash"].to_numpy(), insert=True)
        budget = budget[new_mask].reset_index(drop=True)
        _stamp("seen")
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
        # token bucket never spans actors within a round). Two dispatch
        # modes:
        #
        # - dynamic_dispatch (requires politeness_delay_s == 0, where the
        #   per-host clock is a no-op so host→actor pinning buys
        #   nothing): LATE-BINDING dispatch — whole part_key groups
        #   coalesced into ~total/(3·pool) work units, fed to whichever
        #   actor frees up. Shrinks the round-barrier straggler tail from
        #   one static-LPT bucket to one unit. Measured: ~10% faster at
        #   4-cpu pools (tail dominates), ~10-30% slower at 16-32 cpus
        #   (per-unit probe/dispatch fixed cost dominates) — hence
        #   opt-in, for small pools or skewed page-size rounds. Results
        #   are identical: units are whole host groups, every budget row
        #   processed once, candidate sets/counts chunking-invariant
        #   (per-page-unique harvest); parity-tested vs the simulator.
        #
        # - default: deterministic LPT with STICKY host pinning so a
        #   host's politeness clock follows it across rounds (advisor
        #   finding from round 1: per-round LPT let hosts migrate and
        #   reset their accounting).
        groups = salted.groupby("part_key", sort=True)
        sizes = groups.size().sort_values(ascending=False, kind="mergesort")
        _stamp("pack")
        fold = None                         # set by the tail path only
        plan_parts: list = []
        if cfg.dynamic_dispatch and cfg.politeness_delay_s == 0:
            grp_by_key = dict(list(groups))
            # unit size: ~1/3 of a static per-actor bucket (tail shrinks
            # 3x), rounded up to the worker's 512-row probe chunk when
            # above it (ragged units pay a full parquet range-probe for
            # the remainder). NO absolute floor: a floor of 1024 made a
            # 1024-row seed round ONE unit — one busy actor, fifteen
            # idle (measured 3.2 s vs sub-second).
            unit_target = -(-len(salted) // max(1, pool_size * 3))
            if unit_target > 512:
                unit_target = -(-unit_target // 512) * 512
            units: list[list[pd.DataFrame]] = []
            cur: list[pd.DataFrame] = []
            cur_rows = 0
            for pk in sizes.index:          # biggest groups first
                grp = grp_by_key[pk]
                if cur and cur_rows + len(grp) > unit_target:
                    units.append(cur)
                    cur, cur_rows = [], 0
                cur.append(grp)
                cur_rows += len(grp)
            if cur:
                units.append(cur)
            plan_parts = _dispatch_units(pool, units, round_dir, cand_dir)
        else:
            use_tail = (cfg.tail_holdback_frac > 0
                        and cfg.politeness_delay_s == 0 and pool_size > 1)
            assign: dict[int, int] = {}
            if use_tail and speed:
                # speed-weighted LPT over ALL groups: minimize each
                # actor's projected finish time rows/speed. Only on the
                # zero-politeness tail path — host→actor pinning buys
                # nothing there (clocks are no-ops) and placement never
                # changes outputs (whole groups, per-page-unique
                # harvest; parity-tested vs the simulator and vs
                # frac=0). With equal weights this IS plain LPT.
                med = float(np.median(list(speed.values())))
                w = [max(speed.get(a, med), 1e-6)
                     for a in range(pool_size)]
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
                # ... then LPT-pack only new keys onto least-loaded
                # actors
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
            if use_tail:
                # hybrid: static sticky head + late-binding tail pool
                # (whole groups; see _dispatch_sticky_tail). The fold
                # runs the post-fetch split/redirect scan during the
                # dispatcher's ray.wait idle — see _PlanFold.
                fold = _PlanFold()
                plan_parts, disp_stats = _dispatch_sticky_tail(
                    pool, per_actor, cfg.tail_holdback_frac, round_dir,
                    cand_dir, phase_log=phase_log, rnd=rnd, fold=fold)
                for aid, (rows, busy) in disp_stats.items():
                    if rows > 0 and busy > 0.05:
                        v = rows / busy
                        speed[aid] = (0.5 * speed[aid] + 0.5 * v
                                      if aid in speed else v)
            else:
                refs = []
                ref_load = {}
                for aid in sorted(per_actor):
                    df = pd.concat(per_actor[aid], ignore_index=True)
                    tbl = pa.Table.from_pandas(df, preserve_index=False)
                    ref = pool[aid].process.remote(tbl, round_dir, cand_dir)
                    refs.append(ref)
                    ref_load[ref] = (aid, len(df))
                if phase_log:
                    # straggler forensics: per-actor completion offsets
                    t_d = _time.perf_counter()
                    remaining, comp = list(refs), []
                    while remaining:
                        done, remaining = ray.wait(remaining, num_returns=1)
                        aid, rows = ref_load[done[0]]
                        comp.append((aid, rows,
                                     round(_time.perf_counter() - t_d, 2)))
                    print(f"# round={rnd} actor_done={comp}",
                          file=_sys.stderr)
                plan_parts = [t for t in ray.get(refs) if t.num_rows]
        _stamp("fetch")
        if fold is None:                    # non-tail paths: batch fold
            fold = _PlanFold()
            for t in plan_parts:
                fold.add(t)

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
        _stamp("post")

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
            _stamp("frontier")
            if phase_log:
                print(f"# round={rnd} phases={_ph}", file=_sys.stderr)
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
        _stamp("frontier")
        if phase_log:
            print(f"# round={rnd} phases={_ph}", file=_sys.stderr)

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
                          cand_dir, phase_log: bool = False,
                          rnd: int = -1, fold: "_PlanFold | None" = None
                          ) -> list:
    """Hybrid dispatch: one static sticky head call per actor plus a
    late-binding tail pool (config.tail_holdback_frac). Per actor, the
    smallest WHOLE host-groups totalling ~frac of its rows are held back
    and coalesced (in part_key order, for probe locality) into ~512-row
    units tagged with their origin actor; the rest ships as the usual
    single head call. When any call completes, the freed actor takes its
    own next unit first — identical placement to pure sticky LPT when
    nothing straggles — and steals from the origin with the most backlog
    only when its own queue is dry. Tail cost drops from one static
    bucket (10-14% of fetch wall, per-page cost variance) to one unit,
    while ~(1-frac) of the round still pays only one probe span per
    actor. Whole groups only → a host never spans two actors within a
    round (politeness invariant); callers gate on politeness_delay_s == 0
    so cross-round clock migration is a no-op."""
    import sys as _sys
    import time as _time
    from collections import deque

    import ray

    own: dict[int, deque] = {}
    for aid, grps in per_actor.items():
        total = sum(len(g) for g in grps)
        target = int(total * frac)
        by_size = sorted(range(len(grps)), key=lambda i: len(grps[i]))
        held: set[int] = set()
        held_rows = 0
        for i in by_size:
            # always keep at least one (the largest) group in the head
            if held_rows >= target or len(held) >= len(grps) - 1:
                break
            held.add(i)
            held_rows += len(grps[i])
        q = own.setdefault(aid, deque())

        def pack(idxs, unit_rows: int):
            cur: list[pd.DataFrame] = []
            cur_rows = 0
            for i in idxs:                  # part_key order → url locality
                cur.append(grps[i])
                cur_rows += len(grps[i])
                if cur_rows >= unit_rows:
                    q.append(pd.concat(cur, ignore_index=True)
                             if len(cur) > 1 else cur[0])
                    cur, cur_rows = [], 0
            if cur:
                q.append(pd.concat(cur, ignore_index=True)
                         if len(cur) > 1 else cur[0])

        # GRAFT_HEAD_UNIT chunks the head into stealable sub-units
        # (experimental knob): with a single head call a host-scheduling
        # straggler strands (1-frac) of its round behind one actor
        # (measured: round-2 heads finishing 2.8-4.8 s apart at 16
        # cpus), and chunks queued on the OWNING actor in order would be
        # back-stealable once any actor runs dry. MEASURED A/B at 16
        # cpus though: 3-chunk heads are ~5-10% SLOWER (per-unit probe
        # remainders + queue gaps cost more than the straggler win —
        # same lesson as pure late-binding), 2048-row chunks a wash — so
        # the DEFAULT stays one monolithic head call per actor.
        head_unit = int(os.environ.get("GRAFT_HEAD_UNIT", "0")) or (1 << 30)
        pack([i for i in range(len(grps)) if i not in held], head_unit)
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
        unit_rows = int(os.environ.get("GRAFT_TAIL_UNIT", "0")) or \
            min(512, max(128, held_rows // 3))
        pack(sorted(held), unit_rows)

    def take_unit(aid: int) -> pd.DataFrame | None:
        q = own.get(aid)
        if q:
            return q.popleft()
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

    pending: dict = {}
    # depth-2 initial fill (the _dispatch_units pattern): one unit
    # executing + one queued per actor, so an actor starts its next
    # chunk while the driver pulls the finished result — without it,
    # chunked heads would pay a driver round-trip of idle per chunk.
    # Depth 2 ONLY when heads are chunked: with a monolithic head the
    # second fill pass would bind one TAIL unit behind every head at
    # t=0, where a submitted unit can never be stolen — re-creating
    # the straggler round barrier the late-binding tail exists to
    # remove (review finding)
    fill_depth = 2 if int(os.environ.get("GRAFT_HEAD_UNIT", "0")) else 1
    for _ in range(fill_depth):
        for aid in range(len(pool)):
            df = take_unit(aid)
            if df is not None:
                submit(aid, df)

    plan_parts: list = []
    comp: list = []
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
        off = _time.perf_counter() - t_d
        rows_done[aid] = rows_done.get(aid, 0) + rows
        last_done[aid] = off
        if phase_log:
            comp.append((aid, rows, round(off, 2)))
        t = ray.get(ref)
        if t.num_rows:
            if fold is not None:            # overlap post-fold with wait
                fold.add(t)
            else:
                plan_parts.append(t)
    if phase_log:
        print(f"# round={rnd} tail_done={comp}", file=_sys.stderr)
    # per-actor (rows, busy-span) for the caller's speed EWMA: every
    # actor's first call is submitted at t≈0, so its last completion
    # offset approximates its busy span (small driver dispatch gaps
    # inflate all actors uniformly)
    stats = {aid: (rows_done[aid], last_done[aid]) for aid in rows_done}
    return plan_parts, stats


def _dispatch_units(pool, units, round_dir: str, cand_dir) -> list:
    """Late-binding work-unit dispatch (zero-politeness mode): keep a
    depth-2 call queue per actor (one executing + one queued, so the
    actor starts its next unit while the driver pulls the finished
    result), hand the next unit to whichever actor completes one. Tail
    cost = one unit, not one static bucket; binding one unit ahead costs
    little tail (units ≈ 3× pool) and removes the per-unit idle gap the
    depth-1 form paid on every result transfer."""
    import ray

    queue = list(units)
    pending: dict = {}
    plan_parts: list = []

    def submit(aid: int) -> None:
        if not queue:
            return
        df = pd.concat(queue.pop(0), ignore_index=True)
        tbl = pa.Table.from_pandas(df, preserve_index=False)
        pending[pool[aid].process.remote(tbl, round_dir, cand_dir)] = aid

    for aid in range(len(pool)):
        submit(aid)
        submit(aid)
    while pending:
        done, _ = ray.wait(list(pending), num_returns=1)
        for ref in done:
            aid = pending.pop(ref)
            submit(aid)              # refill BEFORE pulling the result
            t = ray.get(ref)
            if t.num_rows:
                plan_parts.append(t)
    return plan_parts


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
