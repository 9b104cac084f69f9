"""Fused crawl-round stage: fetch → extract → write → harvest in ONE
``map_batches`` actor pool.

The unfused form ran three Dataset executions per crawl round (extract +
write_parquet, then two read-backs of the round output for outlink harvest
and status collection) — ~0.8 s of plan/pool overhead each at any scale,
and at cluster scale the html payload crossed the object store twice.
Fusing keeps the html inside the actor for its whole life: the full
article table is written to the round's parquet directory directly by the
stage (unique part file per batch), and only a small union *planning*
table returns to the driver:

    kind='page'  → url, status, canonical_link, meta_refresh_url
    kind='cand'  → url_canon, url_hash, host  (normalized, valid_url-
                   filtered, batch-deduped outlink candidates)

Politeness/robots state still lives in the embedded Fetcher; the budget
dataset is (part_key, url)-sorted and repartitioned upstream exactly as
before, so each batch remains one (sub-)host's contiguous url range.

The worker also hosts seen-set shards (``seen_op``): no process of their own.

A worker outlives one crawl: ``pipelines.crawl`` keeps its pool for the
next ``crawl()`` in the same process and calls ``reset`` on each worker,
which rebuilds every per-crawl object (seen shards, Fetcher) and keeps
only what is costly to make and holds no crawl state: the process, its
imports, the warmed parquet writer and, under an unchanged config, the
extraction stage.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..state.seen import SeenShard
from .extract_stage import ExtractArticles
from .fetch import Fetcher
from .url_stage import normalize_candidates

PLAN_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("url", pa.string()), ("status", pa.string()),
    ("canonical_link", pa.string()), ("meta_refresh_url", pa.string()),
    ("url_canon", pa.string()), ("url_hash", pa.uint64()),
    ("host", pa.string()),
])


class CrawlRoundWorker:
    """map_batches actor: budget rows in, planning rows out, article
    parquet written as a side effect (resume-safe: the driver wipes a
    round directory without ``_SUCCESS`` before re-running the round)."""

    def __init__(self, pages_path: str, round_dir: str,
                 config: EngineConfig | None = None,
                 politeness_delay_s: float = 0.0, seen_ids=()):
        self.round_dir = round_dir
        self.cfg = self.extract = None
        # warm pyarrow's lazy parquet-writer machinery at spawn (an
        # in-memory write; first real write otherwise pays ~0.34 s of
        # one-time module init on round 0's critical path — measured)
        import io
        pq.write_table(PLAN_SCHEMA.empty_table(), io.BytesIO())
        self.reset(pages_path, config, politeness_delay_s, seen_ids)

    def reset(self, pages_path: str, config: EngineConfig | None = None,
              politeness_delay_s: float = 0.0, seen_ids=()) -> int:
        """Start a new crawl in this process: fresh seen-set shards for
        ``seen_ids`` and a fresh Fetcher (politeness clocks, robots cache,
        open parquet files) over ``pages_path``; the extraction stage is
        rebuilt only when the config changed. The previous crawl's objects
        are dropped before the new ones are built, so a reset worker holds
        exactly what a freshly spawned one does."""
        cfg = config or EngineConfig()
        self.seen = self.fetcher = None
        # the seen-set shards this worker hosts, by shard id
        self.seen = {sid: SeenShard(sid) for sid in seen_ids}
        self.fetcher = Fetcher(pages_path, politeness_delay_s)
        if cfg != self.cfg:
            self.extract = None
            self.extract = ExtractArticles(cfg)
        self.cfg = cfg
        return 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.process(batch, self.round_dir)

    def ping(self) -> int:
        """Warm-up barrier: returns once the actor process is spawned and
        __init__ has run (worker spawn is ~1.2 s/actor of pure fixed cost
        — the steady-state benchmark mode waits it out before timing)."""
        return 0

    def seen_op(self, sid: int, op: str, *args):
        """Hosted shard ``sid``'s ``SeenShard.<op>(*args)``: check_and_insert,
        check, snapshot, restore or size."""
        return getattr(self.seen[sid], op)(*args)

    def process(self, batch: pa.Table, round_dir: str,
                cand_dir: str | None = None) -> pa.Table:
        """Explicit-round entry point for the persistent-pool path (the
        crawl loop keeps ONE pool of these actors alive across rounds —
        politeness clocks, robots caches and parquet handles persist, and
        host→actor pinning is stable for the whole crawl). Internally
        chunks to ``extract_batch_size`` so a large per-actor bucket never
        holds more than one chunk of html + DOMs in memory.

        With ``cand_dir`` set (a distributed-planning round: the frontier
        outgrew ``planning_table_limit``), outlink candidates are SPILLED
        to parquet there instead of returned — the driver never sees
        candidate rows; planning reads them back as a Dataset."""
        n = batch.num_rows
        # chunk well above extract_batch_size: each chunk pays one parquet
        # range-probe ("network fetch") and writes one output part file, so
        # 64-row chunks mean ~10x more probes and a spray of tiny files;
        # html for 512 rows is only ~1.5-50 MB and the DOM is per-row
        # transient inside extract_article
        step = max(512, self.cfg.extract_batch_size)
        if n > step:
            parts = [self._process_chunk(batch.slice(off, step), round_dir,
                                         cand_dir)
                     for off in range(0, n, step)]
            return pa.concat_tables(parts)
        return self._process_chunk(batch, round_dir, cand_dir)

    def _process_chunk(self, batch: pa.Table, round_dir: str,
                       cand_dir: str | None = None) -> pa.Table:
        pages = self.fetcher(batch)
        arts = self.extract(pages)
        if arts.num_rows:
            pq.write_table(arts, os.path.join(
                round_dir, f"part-{uuid.uuid4().hex}.parquet"))

        n_page = arts.num_rows
        # outlink candidates: explode → canonicalize/validate → batch dedup
        flat: list[str] = []
        for links in arts["outlinks"].to_pylist() if n_page else []:
            if links:
                flat.extend(links)
        if flat:
            cand = normalize_candidates(
                pa.table({"url": pa.array(flat, pa.string())}))
            cand = cand.filter(cand["is_valid"])
            if not self.cfg.indegree_priority:
                seen_h, keep = set(), []
                for i, h in enumerate(cand["url_hash"].to_pylist()):
                    if h not in seen_h:
                        seen_h.add(h)
                        keep.append(i)
                cand = cand.take(pa.array(keep, pa.int64()))
            # else: keep per-page multiplicity (harvest_outlinks is
            # already unique per page) — the citation count IS the
            # priority signal, batch-dedup would destroy it and make
            # counts parallelism-dependent
        else:
            cand = None

        if cand_dir is not None:
            if cand is not None and cand.num_rows:
                pq.write_table(
                    cand.select(["url_canon", "url_hash", "host"]),
                    os.path.join(cand_dir, f"part-{uuid.uuid4().hex}.parquet"))
            cand = None  # spilled — nothing returns to the driver

        n_cand = cand.num_rows if cand is not None else 0

        empty_s = [""] * n_cand
        cols = {
            "kind": (["page"] * n_page) + (["cand"] * n_cand),
            "url": arts["url"].to_pylist() + empty_s if n_page or n_cand
                   else [],
            "status": arts["status"].to_pylist() + empty_s,
            "canonical_link": arts["canonical_link"].to_pylist() + empty_s,
            "meta_refresh_url": arts["meta_refresh_url"].to_pylist() + empty_s,
            "url_canon": [""] * n_page + (
                cand["url_canon"].to_pylist() if n_cand else []),
            "url_hash": [0] * n_page + (
                cand["url_hash"].to_pylist() if n_cand else []),
            "host": [""] * n_page + (
                cand["host"].to_pylist() if n_cand else []),
        }
        return pa.table(
            {name: pa.array(cols[name], PLAN_SCHEMA.field(name).type)
             for name in PLAN_SCHEMA.names})
