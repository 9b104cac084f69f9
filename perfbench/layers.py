"""The traced run: per-layer metrics for every layer, whichever workload
is named.

Every workload runs one traced pass at the named workload's seed, so
every traced run reports every per-layer metric. Wrappers reach only the
benchmark's own process, so the layers that run inside Ray actors
(extraction kernel, Fetcher, CrawlRoundWorker, SeenShard) are replayed
in-process on the same inputs. The kernel replay is where span wrappers
fire many times per page; it also runs its work unwrapped, interleaved
with the wrapped run, and the wrapped-minus-unwrapped time is
``trace.overhead_s``.

A wrapped name that no longer exists is listed under ``missing`` and its
metrics are left out; nothing else fails.
"""

from __future__ import annotations

import collections
import glob
import inspect
import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import workloads
from .trace import Tracer

KERNEL_LAYERS = [
    "functions.extract.extract_article", "functions.dom.decode_html",
    "functions.dom.fromstring", "functions.metadata", "functions.cleaner.clean",
    "functions.scoring.calculate_best_node", "functions.scoring.post_cleanup",
    "functions.formatter.get_formatted",
    "functions.extract.harvest_outlinks_from_doc",
]
CRAWL_PHASES = ["pipelines.crawl.plan_s", "state.seen.check_s",
                "pipelines.crawl.dispatch_s", "pipelines.crawl.checkpoint_s"]


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    specs = {
        "ray_data.read_parquet.busy_s": ("s", "lower"),
        "stages.extract_stage.busy_s": ("s", "lower"),
        "ray_data.write_parquet.busy_s": ("s", "lower"),
    }
    for layer in KERNEL_LAYERS:
        specs[f"{layer}.ms_per_page"] = ("ms", "lower")
        specs[f"{layer}.self_ms_per_page"] = ("ms", "lower")
    specs["functions.dom.get_elements_by_tag.calls_per_page"] = ("count", "lower")
    specs["functions.dom.fromstring.calls_per_page"] = ("count", "lower")
    specs["pipelines.crawl.setup_s"] = ("s", "lower")
    specs["pipelines.crawl.spawn_s"] = ("s", "lower")
    for name in CRAWL_PHASES:
        specs[name] = ("s", "lower")
    specs["stages.fetch.Fetcher.ms_per_page"] = ("ms", "lower")
    specs["stages.fetch.read_amplification"] = ("ratio", "lower")
    specs["stages.round_worker.process.ms_per_page"] = ("ms", "lower")
    specs["state.seen.SeenShard.check_and_insert.us_per_key"] = ("us", "lower")
    specs["pipelines.crawl.fetched_over_planned"] = ("ratio", "higher")
    for q in workloads.MIX_QUERIES:
        specs[f"query.{q}.wall_s"] = ("s", "lower")
        specs[f"query.{q}.salted_partition_apply.calls"] = ("count", "lower")
        specs[f"query.{q}.hash_join.calls"] = ("count", "lower")
        specs[f"query.{q}.ray_data.executions"] = ("count", "lower")
    specs["pipelines.shuffle.salted_partition_apply.fixed_s.n8"] = ("s", "lower")
    specs["pipelines.shuffle.salted_partition_apply.fixed_s.n64"] = ("s", "lower")
    specs["pipelines.join.hash_join.fixed_s"] = ("s", "lower")
    specs["trace.overhead_s"] = ("s", "lower")
    return specs


# -- bulk pipeline operators ---------------------------------------------

def bulk_operators(wl) -> dict[str, float]:
    """Busy seconds (summed remote wall time) of each operator of one
    bulk pass, from the Dataset's own stats."""
    ds = wl._pipeline(wl.pages_dir)
    want = {"ReadParquet": "ray_data.read_parquet.busy_s",
            "MapBatches(ExtractArticles)": "stages.extract_stage.busy_s",
            "Write": "ray_data.write_parquet.busy_s"}
    out = {}
    write_ds = getattr(ds, "_write_ds", None)
    summaries = [write_ds._get_stats_summary()] if write_ds is not None else []
    while summaries:
        summary = summaries.pop()
        summaries += summary.parents
        for op in summary.operators_stats:
            for part in op.operator_name.split("->"):
                for prefix, metric in want.items():
                    if part.startswith(prefix):
                        out[metric] = out.get(metric, 0.0) + op.wall_time["sum"]
    return out


# -- replay overhead ---------------------------------------------------

def interleaved_overhead(steps, install, tr: Tracer) -> float:
    """Wrapped minus unwrapped seconds over ``steps`` (callables). Each
    step runs twice back to back, once with ``install()``'s wrappers in
    place, wrapped second on even steps and first on odd ones, so host
    drift and cache warmth cancel instead of landing on one side."""
    diff = 0.0
    for i, step in enumerate(steps):
        for wrapped in ((False, True) if i % 2 == 0 else (True, False)):
            if wrapped:
                install()
            t0 = time.perf_counter()
            try:
                step()
            finally:
                if wrapped:
                    tr.restore()
            dt = time.perf_counter() - t0
            diff += dt if wrapped else -dt
    return diff


# -- extraction kernel ---------------------------------------------------

KERNEL_CHUNK = 100                # pages per interleaved replay step


def _own_functions(module) -> list[str]:
    return [n for n, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__
            and not n.startswith("_")]


def kernel_replay(table: pa.Table, cfg, tr: Tracer) -> dict[str, float]:
    """Single-process replay of the extraction kernel over ``table``'s
    pages, each ``KERNEL_CHUNK`` pages once unwrapped and once with every
    kernel layer wrapped (see ``interleaved_overhead``)."""
    from stimson_web_scraper_ray.functions import (
        cleaner,
        dom,
        extract,
        formatter,
        metadata,
        scoring,
    )
    from stimson_web_scraper_ray.stages.extract_stage import ExtractArticles

    def install():
        tr.patch_everywhere(extract, "extract_article",
                            "functions.extract.extract_article")
        tr.patch_everywhere(extract, "harvest_outlinks_from_doc",
                            "functions.extract.harvest_outlinks_from_doc")
        tr.patch_everywhere(dom, "decode_html", "functions.dom.decode_html")
        tr.patch_everywhere(dom, "fromstring", "functions.dom.fromstring")
        tr.patch_everywhere(dom, "get_elements_by_tag",
                            "functions.dom.get_elements_by_tag", span=False)
        for fn in _own_functions(metadata):
            tr.patch_everywhere(metadata, fn, f"functions.metadata.{fn}")
        tr.patch(getattr(cleaner, "DocumentCleaner", None), "clean",
                 "functions.cleaner.clean")
        scorer = getattr(scoring, "BestNodeScorer", None)
        tr.patch(scorer, "calculate_best_node",
                 "functions.scoring.calculate_best_node")
        tr.patch(scorer, "post_cleanup", "functions.scoring.post_cleanup")
        tr.patch(getattr(formatter, "OutputFormatter", None), "get_formatted",
                 "functions.formatter.get_formatted")

    extract_all = ExtractArticles(cfg)
    extract_all(table.slice(0, 32))               # first-call costs
    chunks = [table.slice(i, KERNEL_CHUNK)
              for i in range(0, table.num_rows, KERNEL_CHUNK)]
    steps = [lambda c=c: extract_all(c) for c in chunks]
    n = table.num_rows
    out = {"trace.overhead_s": interleaved_overhead(steps, install, tr)}
    for layer in KERNEL_LAYERS:
        if not any(c == layer or c.startswith(layer + ".") for c in tr.counts):
            continue                  # renamed away or never called
        incl, self_t = tr.totals(layer)
        out[f"{layer}.ms_per_page"] = 1e3 * incl / n
        out[f"{layer}.self_ms_per_page"] = 1e3 * self_t / n
    for name in ("functions.dom.get_elements_by_tag", "functions.dom.fromstring"):
        if name not in tr.missing:
            out[f"{name}.calls_per_page"] = tr.counts[name] / n
    return out


# -- crawl ---------------------------------------------------------------

# the module-level functions ``_run_rounds`` looks up, by crawl phase
CRAWL_WRAPPED = {"_plan_round": "plan", "_plan_round_distributed": "plan",
                 "_seen_check": "seen", "_dispatch_sticky_tail": "dispatch",
                 "_dispatch_units": "dispatch", "_checkpoint_round": "checkpoint",
                 "_checkpoint_round_async": "checkpoint"}


def crawl_traced(wl, tr: Tracer) -> tuple[dict, object, list]:
    """One crawl pass with ``CRAWL_WRAPPED`` wrapped; returns (metrics,
    CrawlResult, per-round phase seconds). The async checkpoint's later
    ``join()`` is timed as checkpoint work too."""
    from stimson_web_scraper_ray.pipelines import crawl as crawl_mod

    for fn in CRAWL_WRAPPED:
        tr.patch(crawl_mod, fn, f"pipelines.crawl.{fn}")
    ckpt_async = getattr(crawl_mod, "_checkpoint_round_async", None)
    if ckpt_async is not None:
        def timed_joins(*args, **kwargs):
            handle = ckpt_async(*args, **kwargs)
            join = handle.join

            def timed_join():
                with tr.span("pipelines.crawl._checkpoint_round_async"):
                    join()
            handle.join = timed_join
            return handle
        tr.substitute(crawl_mod, "_checkpoint_round_async", timed_joins)
    try:
        res = wl.crawl()
    finally:
        tr.restore()
    rounds = crawl_rounds(sorted(tr.spans, key=lambda s: s[2]))
    metrics = {"pipelines.crawl.setup_s": res.setup_sec,
               "pipelines.crawl.spawn_s": res.spawn_sec}
    for phase, name in zip(("plan", "seen", "dispatch", "checkpoint"),
                           CRAWL_PHASES):
        if any(phase in r for r in rounds):
            metrics[name] = sum(r.get(phase, 0.0) for r in rounds)
    planned = fetched = 0
    for path in glob.glob(os.path.join(res.checkpoint_dir, "round=*",
                                       "metrics.parquet")):
        t = pq.read_table(path, columns=["planned", "fetched"])
        planned += sum(t["planned"].to_pylist())
        fetched += sum(t["fetched"].to_pylist())
    if planned:
        metrics["pipelines.crawl.fetched_over_planned"] = fetched / planned
    return metrics, res, rounds


def crawl_rounds(spans) -> list[dict]:
    """Per-round phase seconds from start-ordered crawl spans. A round
    starts at a plan span. Dispatch is the main process's wait between the
    seen-set insert and the round's next wrapped call (pack, fetch and
    post-processing), unless a dispatch function was itself wrapped."""
    rounds: list[dict] = []
    cur = None
    insert_end = None
    for _sid, name, start, end, _parent in spans:
        phase = CRAWL_WRAPPED.get(name.rsplit(".", 1)[-1])
        if phase == "plan":
            cur = collections.defaultdict(float)
            rounds.append(cur)
            insert_end = None
        if cur is None or phase is None:
            continue
        if phase == "seen" and insert_end is None:
            insert_end = end
        elif insert_end is not None and "dispatch" not in cur:
            cur["dispatch"] = start - insert_end
            if phase == "dispatch":
                cur["dispatch"] = end - start
                continue
        cur[phase] += end - start
    return [dict(r) for r in rounds]


def crawl_replay(wl, res, tr: Tracer) -> dict[str, float]:
    """The crawl's fetched rounds replayed in order, in-process, through
    one CrawlRoundWorker (with its Fetcher) and one SeenShard."""
    from stimson_web_scraper_ray.functions.urlnorm import canon_hash64, get_domain
    from stimson_web_scraper_ray.stages import fetch, round_worker
    from stimson_web_scraper_ray.state.seen import SeenShard

    positions, _ = workloads.crawl_outputs(res, wl.seeds, wl.cfg.seen_shards)
    by_round: dict[int, list[str]] = collections.defaultdict(list)
    for rnd, _rank, url in positions:
        by_round[rnd].append(url)

    tr.patch(fetch.Fetcher, "__call__", "stages.fetch.Fetcher")
    tr.patch(round_worker.CrawlRoundWorker, "process",
             "stages.round_worker.process")
    tr.patch(SeenShard, "check_and_insert",
             "state.seen.SeenShard.check_and_insert")
    read_bytes = [0]
    orig_read = pq.ParquetFile.read_row_groups

    def counted_read(self, *args, **kwargs):
        t = orig_read(self, *args, **kwargs)
        read_bytes[0] += t.nbytes
        return t
    tr.substitute(pq.ParquetFile, "read_row_groups", counted_read)

    out_dir = os.path.join(wl.work, "replay")
    os.makedirs(out_dir, exist_ok=True)
    n_keys = 0
    try:
        worker = round_worker.CrawlRoundWorker(wl.pages_dir, out_dir, wl.cfg)
        shard = SeenShard(0)
        for rnd in sorted(by_round):
            urls = sorted(by_round[rnd])
            budget = pa.table({
                "url_canon": pa.array(urls, pa.string()),
                "host": pa.array([get_domain(u) or "" for u in urls]),
                "depth": pa.array([rnd] * len(urls), pa.int32())})
            hashes = np.array([canon_hash64(u) for u in urls], np.uint64)
            shard.check_and_insert(hashes)
            n_keys += len(hashes)
            worker.process(budget, out_dir)
        fetched_bytes = worker.fetcher.bytes_fetched
    finally:
        tr.restore()
    pages = len(positions)
    out = {}
    if pages and "stages.fetch.Fetcher" not in tr.missing:
        out["stages.fetch.Fetcher.ms_per_page"] = \
            1e3 * tr.totals("stages.fetch.Fetcher")[0] / pages
    if pages and "stages.round_worker.process" not in tr.missing:
        out["stages.round_worker.process.ms_per_page"] = \
            1e3 * tr.totals("stages.round_worker.process")[0] / pages
    if n_keys and "state.seen.SeenShard.check_and_insert" not in tr.missing:
        out["state.seen.SeenShard.check_and_insert.us_per_key"] = \
            1e6 * tr.totals("state.seen.SeenShard.check_and_insert")[0] / n_keys
    if fetched_bytes:
        out["stages.fetch.read_amplification"] = read_bytes[0] / fetched_bytes
    return out


# -- operator tier -------------------------------------------------------

def mix_traced(wl, tr: Tracer) -> tuple[dict, dict]:
    """One mix pass with exchange / join / execution counters per query."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from stimson_web_scraper_ray.pipelines import join, shuffle

    tr.patch_everywhere(shuffle, "salted_partition_apply",
                        "salted_partition_apply", span=False)
    tr.patch_everywhere(join, "hash_join", "hash_join", span=False)
    tr.patch(StreamingExecutor, "execute", "ray_data.executions", span=False)
    metrics = {}
    results = {}
    try:
        for name, fn in wl.queries.items():
            before = dict(tr.counts)
            with tr.span(name):
                results[name] = wl._run(fn, wl.sf_dir)
            metrics[f"query.{name}.wall_s"] = tr.durations(name)[-1]
            for counter, metric in (
                    ("salted_partition_apply", "salted_partition_apply.calls"),
                    ("hash_join", "hash_join.calls"),
                    ("ray_data.executions", "ray_data.executions")):
                if counter not in tr.missing:
                    metrics[f"query.{name}.{metric}"] = \
                        tr.counts[counter] - before.get(counter, 0)
    finally:
        tr.restore()
    return metrics, results


def fixed_cost_probes(repeats: int = 3) -> dict[str, float]:
    """Wall seconds of one exchange / join on tiny inputs (median of
    ``repeats``): the per-call fixed cost the operator tier pays."""
    import ray.data as rd

    from stimson_web_scraper_ray.pipelines.join import hash_join
    from stimson_web_scraper_ray.pipelines.shuffle import salted_partition_apply

    rows = pa.table({"k": pa.array(np.arange(10_000) % 997, pa.int64()),
                     "v": pa.array(np.arange(10_000), pa.int64())})

    def spa(n_parts):
        ds = rd.from_arrow(rows)
        return salted_partition_apply(ds, lambda df: df,
                                      lambda t: t["k"].to_numpy(),
                                      n_parts=n_parts).materialize()

    def hj():
        left = rd.from_arrow(rows.slice(0, 100))
        right = rd.from_arrow(pa.table({
            "k": pa.array(np.arange(50), pa.int64()),
            "w": pa.array(np.arange(50), pa.int64())}))
        return hash_join(left, right, "k").materialize()

    def timed(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return {"pipelines.shuffle.salted_partition_apply.fixed_s.n8": timed(lambda: spa(8)),
            "pipelines.shuffle.salted_partition_apply.fixed_s.n64": timed(lambda: spa(64)),
            "pipelines.join.hash_join.fixed_s": timed(hj)}


# -- the traced run --------------------------------------------------------

def traced(wl, session, args, watchdog) -> dict:
    """The whole traced run (see the module docstring); ``wl`` is the
    named, already prepared workload."""
    session.start()
    parent = os.path.dirname(wl.work)
    wls = {wl.name: wl}
    for name, cls in workloads.WORKLOADS.items():
        if name not in wls:
            watchdog.arm(f"input generation for {name}")
            other = cls(os.path.join(parent, name), wl.seed, session)
            other.prepare()
            wls[name] = other
    for other in wls.values():
        watchdog.arm(f"warm-up of {other.name}")
        other.warm()

    run_id = f"{wl.name}-seed{wl.seed}-{os.getpid()}"
    tracers = {part: Tracer(f"{run_id}/{part}")
               for part in ("kernel", "crawl", "crawl-replay", "mix")}
    metrics: dict[str, float] = {}
    attempted = failed = 0
    problems: list[str] = []

    def check(w, out):
        nonlocal attempted, failed
        a, f, p = w.verify(out)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)

    traced_s = {}
    bulk, crawl, mix = (wls["bulk_extract"], wls["frontier_crawl"],
                        wls["operator_mix"])

    watchdog.arm("traced bulk_extract pass")
    session.settle()
    t0 = time.perf_counter()
    metrics.update(bulk_operators(bulk))
    traced_s[bulk.name] = time.perf_counter() - t0
    check(bulk, None)
    watchdog.arm("kernel replay")
    metrics.update(kernel_replay(bulk.table, bulk.cfg, tracers["kernel"]))

    watchdog.arm("traced frontier_crawl pass")
    session.settle()
    t0 = time.perf_counter()
    crawl_metrics, res, rounds = crawl_traced(crawl, tracers["crawl"])
    traced_s[crawl.name] = time.perf_counter() - t0
    metrics.update(crawl_metrics)
    check(crawl, res)
    watchdog.arm("crawl replay")
    metrics.update(crawl_replay(crawl, res, tracers["crawl-replay"]))

    watchdog.arm("traced operator_mix pass")
    session.settle()
    t0 = time.perf_counter()
    mix_metrics, results = mix_traced(mix, tracers["mix"])
    traced_s[mix.name] = time.perf_counter() - t0
    metrics.update(mix_metrics)
    check(mix, results)
    watchdog.arm("fixed-cost probes")
    metrics.update(fixed_cost_probes())
    watchdog.disarm()

    values, missing = report(metrics, [name for tr in tracers.values()
                                       for name in tr.missing])
    spans = os.path.join(os.path.dirname(os.path.abspath(args.work)),
                         f"spans-{wl.name}-seed{wl.seed}.jsonl")
    with open(spans, "w") as f:
        for tr in tracers.values():
            tr.write(f)
    return {"metrics": values, "attempted": attempted, "failed": failed,
            "problems": problems,
            "info": {"missing": missing, "spans": spans,
                     "traced_pass_s": traced_s,
                     "crawl_rounds": rounds}}


def report(metrics: dict, missing: list) -> tuple[dict, list]:
    """(name -> (value, unit) for every measured per-layer metric, the
    sorted missing names: wrapped names that no longer exist plus every
    per-layer metric that was not measured)."""
    specs = metric_specs()
    values = {k: (v, specs[k][0]) for k, v in metrics.items() if k in specs}
    return values, sorted(set(missing) | (set(specs) - set(values)))
