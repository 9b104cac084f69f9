#!/usr/bin/env python
"""Order-of-magnitude stress point (round-5, verdict item 8): run the
flagship crawl+extract and the most expensive relational/dedup/graph
bench entries ONCE at ~10x the per-round bench scale, recording
wall-clock, rows, and peak RSS across the whole Ray process tree.

Inputs are synthesized deterministically from the driver's sf0.1
testdata — no external data:
- pages: the standard cached builder at copies=160 (~800k pages, ~10x
  the 16-copy bench table), same html/golden generator as every round;
- relational: /tmp/swsr_sf10 tiles lineitem/orders/events/documents 10x
  with key offsets (order keys offset consistently on both sides so
  joins stay referentially intact; document texts perturbed per copy the
  same way the pages builder does, so dedup work is near-dup-realistic
  rather than degenerate-identical); dimension tables copy unchanged.

Prints one JSON object; BASELINE.md records the table.
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
OUT_DIR = "/tmp/swsr_sf10"
COPIES = int(os.environ.get("GRAFT_STRESS_COPIES", "160"))
TILE = int(os.environ.get("GRAFT_STRESS_TILE", "10"))


class RssSampler(threading.Thread):
    """Peak summed VmRSS of this process + every ray worker, sampled at
    2 Hz from /proc (no psutil in the env)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self._stop = threading.Event()

    @staticmethod
    def _total_rss() -> int:
        total = 0
        for status in glob.glob("/proc/[0-9]*/status"):
            try:
                with open(status) as f:
                    name, rss = "", 0
                    for line in f:
                        if line.startswith("Name:"):
                            name = line.split()[1]
                        elif line.startswith("VmRSS:"):
                            rss = int(line.split()[1])  # kB
                            break
                if name.startswith(("ray", "python", "raylet",
                                    "plasma")):
                    total += rss
            except OSError:
                continue
        return total

    def run(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, self._total_rss())
            time.sleep(0.5)

    def stop(self) -> int:
        self._stop.set()
        return self.peak


def build_tiled_dir() -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    if os.path.exists(os.path.join(OUT_DIR, "_DONE")):
        return OUT_DIR
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    # dimensions copy unchanged
    for name in ("region", "nation", "customer", "supplier", "part",
                 "embeddings"):
        shutil.copy(os.path.join(SF_DIR, f"{name}.parquet"),
                    os.path.join(OUT_DIR, f"{name}.parquet"))

    def tile(name: str, offset_cols: dict, text_col: str | None = None):
        t = pq.read_table(os.path.join(SF_DIR, f"{name}.parquet"))
        offs = {c: (max(t[c].to_pylist()) + 1) for c in offset_cols}
        parts = []
        for c in range(TILE):
            cols = {}
            for col in t.column_names:
                if col in offset_cols:
                    import pyarrow.compute as pc
                    cols[col] = pc.add(t[col], c * offs[col])
                elif col == text_col and c > 0:
                    cols[col] = pa.array(
                        [(x + f" variation copy {c} edition")
                         if isinstance(x, str) else x
                         for x in t[col].to_pylist()], t[col].type)
                else:
                    cols[col] = t[col]
            parts.append(pa.table(cols))
        pq.write_table(pa.concat_tables(parts),
                       os.path.join(OUT_DIR, f"{name}.parquet"))

    # FK consistency requires ONE shared offset base for both sides of
    # the order key; per-table maxima can silently diverge (e.g. a tail
    # order with no lineitems) and would mis-join every copy with no
    # error (review finding) — check, don't assume
    omax = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                         columns=["o_orderkey"])["o_orderkey"]
    lmax = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                         columns=["l_orderkey"])["l_orderkey"]
    mo = max(omax.to_pylist())
    ml = max(lmax.to_pylist())
    assert mo == ml, f"orderkey maxima diverge (o={mo}, l={ml}): " \
        "tile with an explicit shared base instead"
    tile("orders", {"o_orderkey": True})
    tile("lineitem", {"l_orderkey": True})
    tile("events", {"event_id": True})
    tile("documents", {"doc_id": True}, text_col="text")
    open(os.path.join(OUT_DIR, "_DONE"), "w").write("ok")
    return OUT_DIR


def main():
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import bench
    from stimson_web_scraper_ray.config import EngineConfig
    from stimson_web_scraper_ray.pipelines.crawl import crawl
    from stimson_web_scraper_ray.sources.pages import (
        pages_path_for,
        seed_urls,
    )

    results: dict = {"sf": SF_DIR, "copies": COPIES, "tile": TILE}

    t0 = time.time()
    pages_path = pages_path_for(SF_DIR, copies=COPIES)
    results["pages_build_sec"] = round(time.time() - t0, 1)

    sampler = RssSampler()
    sampler.start()

    # 1. bulk crawl+extract (the headline) on the 10x table
    os.environ["GRAFT_BENCH_REPS"] = "1"
    h = bench._headline_bulk_extract(pages_path, 32)
    results["bulk_extract"] = {
        "sec": round(h["sec"], 2), "pages": h["pages"],
        "pages_per_sec": round(h["pages_per_sec"], 0)}

    # 2. frontier crawl, budgets scaled 10x
    out_dir = "/tmp/swsr_bench/crawl10x"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = EngineConfig(per_host_budget=40000, round_budget=400000,
                       seen_shards=8, extract_concurrency=16)
    seeds = seed_urls(pages_path, n_seeds=4096)
    t0 = time.time()
    res = crawl(pages_path, seeds, cfg, out_dir=out_dir, max_rounds=3)
    dt = time.time() - t0
    results["crawl_rounds"] = {
        "sec": round(dt, 2), "pages_fetched": res.pages_fetched,
        "pages_per_sec": round(res.pages_fetched / dt, 0)}

    # 3. heavy registry entries over the 10x-tiled tables
    sf10 = build_tiled_dir()
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries_all()
    for name in ("pricing_summary", "shipping_priority",
                 "prefix_jaccard_pairs", "trade_scc",
                 "minhash_dedup_groups"):
        t0 = time.time()
        r = qs[name](sf10)
        n = r.count() if hasattr(r, "count") and not hasattr(
            r, "__len__") else len(r)
        results[name] = {"sec": round(time.time() - t0, 2),
                         "rows": int(n)}

    results["peak_rss_gib"] = round(sampler.stop() / (1 << 20), 2)
    print(json.dumps(results))
    ray.shutdown()


if __name__ == "__main__":
    main()
