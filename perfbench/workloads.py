"""The three workloads. Each one generates its inputs from the seed
(``prepare``, untimed), runs timed passes (``run_pass``) and checks every
pass's output (``verify``, untimed).

Pass sizes fit a one-core host: a bulk pass is ~1,200 pages (~4 s), a
crawl pass ~1,100 fetched pages (~5 s), a mix pass the 10 queries at
sf0.01 (~15-19 s).
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from . import checks, gen

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
PAGES_SF = 0.1                    # pages are drawn from the sf0.1 documents
MIX_SF = 0.01
MIX_QUERIES = [
    # join / aggregate
    "pricing_summary", "shipping_priority", "brand_volume_skewjoin",
    # salted exchange
    "dedup_exact", "keywords_top10", "minhash_dedup_groups",
    # graph iteration
    "trade_pagerank_undirected", "trade_scc",
    # index
    "inverted_index", "index_bm25_prox",
]


def _pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


class BulkExtract:
    """read_parquet → map_batches(ExtractArticles) → write_parquet."""

    name = "bulk_extract"
    pages = 1_200
    pin_pages = 200
    pass_limit_s = 60.0

    def __init__(self, work: str, seed: int, session):
        self.work, self.seed, self.session = work, seed, session
        self.pages_dir = os.path.join(work, "pages")
        self.warm_dir = os.path.join(work, "pages_warm")
        self.out_dir = os.path.join(work, "articles")

    def prepare(self) -> dict:
        from stimson_web_scraper_ray.config import EngineConfig

        self.cfg = EngineConfig()
        docs = gen.documents(PAGES_SF)
        self.table = gen.pages_table(gen.pick_docs(docs, self.pages, self.seed),
                                     self.seed)
        gen.write_pages(self.table, self.pages_dir)
        gen.write_pages(self.table.slice(0, 64), self.warm_dir)
        self.golden = list(zip(self.table["url"].to_pylist(),
                               self.table["text"].to_pylist()))
        # fixed pin set: the default seed's sample, whatever the run seed,
        # so the committed digest is checked on every run
        self.pin_table = gen.pages_table(gen.pick_docs(docs, self.pin_pages,
                                                       DEFAULT_SEED),
                                         DEFAULT_SEED)
        return gen.html_stats(self.table)

    def _pipeline(self, pages_dir: str):
        import ray.data as rd

        from stimson_web_scraper_ray.stages.extract_stage import ExtractArticles

        shutil.rmtree(self.out_dir, ignore_errors=True)
        actors = self.session.plan["extract_actors"]
        ds = rd.read_parquet(pages_dir, columns=["url", "html", "lang"],
                             override_num_blocks=max(8, 4 * actors))
        ds = ds.map_batches(ExtractArticles, batch_format="pyarrow",
                            batch_size=128, concurrency=actors,
                            fn_constructor_kwargs={"config": self.cfg,
                                                   "with_outlinks": True})
        ds.write_parquet(self.out_dir)
        return ds

    def warm(self) -> None:
        self._pipeline(self.warm_dir)

    def run_pass(self) -> tuple[int, object]:
        # drop the Dataset at once: while it is referenced its actor may
        # keep a logical CPU and delay the next pass's actor
        self._pipeline(self.pages_dir)
        return self.table.num_rows, None

    def verify(self, _out) -> tuple[int, int, list[str]]:
        t = pads.dataset(self.out_dir).to_table(columns=["url", "text",
                                                         "status"])
        rows = list(zip(t["url"].to_pylist(), t["text"].to_pylist(),
                        t["status"].to_pylist()))
        return checks.check_extract(rows, self.golden)

    def verify_pin(self) -> tuple[int, int, list[str]]:
        """In-process extraction of the fixed pin set against the
        committed (url, text) digest."""
        from stimson_web_scraper_ray.stages.extract_stage import ExtractArticles

        out = ExtractArticles(self.cfg)(self.pin_table)
        got = checks.text_digest(zip(out["url"].to_pylist(),
                                     out["text"].to_pylist()))
        want = _pins()["bulk_extract_text_sha256"]
        if got != want:
            return 1, 1, [f"pin-set (url, text) digest {got[:12]} != "
                          f"committed {want[:12]}"]
        return 1, 0, []


class FrontierCrawl:
    """pipelines.crawl.crawl() over a pages table: 4 BFS rounds from a
    seed list, with the session plan's seen shards and round workers."""

    name = "frontier_crawl"
    table_pages = 1_200
    n_seeds = 40
    rounds = 4
    pass_limit_s = 60.0

    def __init__(self, work: str, seed: int, session):
        self.work, self.seed, self.session = work, seed, session
        self.pages_dir = os.path.join(work, "pages")
        self.out_dir = os.path.join(work, "crawl")

    def prepare(self) -> dict:
        from stimson_web_scraper_ray.config import EngineConfig
        from stimson_web_scraper_ray.sources.pages import seed_urls

        plan = self.session.plan
        self.cfg = EngineConfig(per_host_budget=4000, round_budget=40000,
                                seen_shards=plan["seen_shards"],
                                extract_concurrency=plan["crawl_workers"])
        docs = gen.documents(PAGES_SF)
        self.table = gen.pages_table(
            gen.pick_docs(docs, self.table_pages, self.seed), self.seed)
        gen.write_pages(self.table, self.pages_dir)
        self.seeds = seed_urls(self.pages_dir, n_seeds=self.n_seeds)
        props = gen.html_stats(self.table)
        props["seeds"] = len(self.seeds)
        return props

    def crawl(self, seeds=None, rounds=None):
        from stimson_web_scraper_ray.pipelines.crawl import crawl

        return crawl(self.pages_dir, seeds or self.seeds, self.cfg,
                     out_dir=self.out_dir, max_rounds=rounds or self.rounds)

    def warm(self) -> None:
        self.crawl(self.seeds[:4], 1)

    def run_pass(self) -> tuple[int, object]:
        res = self.crawl()
        return res.pages_fetched, res

    def simulate(self):
        from stimson_web_scraper_ray.pipelines.sim import simulate_crawl

        if not hasattr(self, "_sim"):
            df = simulate_crawl(self.pages_dir, self.seeds, self.cfg,
                                max_rounds=self.rounds)
            self._sim = list(zip(df["round"], df["rank_in_round"], df["url"],
                                 df["url_hash"]))
        return self._sim

    def verify(self, res) -> tuple[int, int, list[str]]:
        positions, seen = crawl_outputs(res, self.seeds, self.cfg.seen_shards)
        self.rounds_reached = 1 + max((r for r, _, _ in positions), default=-1)
        return checks.check_crawl(positions, seen, self.simulate())


def crawl_outputs(res, seeds, n_shards: int):
    """The engine's fetched ``(round, rank, url)`` positions and final
    seen set. A round's rank order is the planning order (priority desc,
    depth asc, url_hash asc) of the frontier that round planned from:
    the seed frontier for round 0, else the previous round's checkpoint."""
    from stimson_web_scraper_ray.pipelines.crawl import (
        _frontier_from_seeds,
        final_seen_hashes,
    )

    positions = []
    last = -1
    for rdir in sorted(glob.glob(os.path.join(res.articles_path, "round=*")),
                       key=lambda d: int(d.rsplit("=", 1)[1])):
        rnd = int(rdir.rsplit("=", 1)[1])
        urls = pads.dataset(rdir).to_table(columns=["url"])["url"].to_pylist()
        if not urls:
            continue
        frontier = (_frontier_from_seeds(seeds) if rnd == 0 else pq.read_table(
            os.path.join(res.checkpoint_dir, f"round={rnd - 1}",
                         "frontier.parquet")).to_pandas())
        order = frontier.sort_values(["priority", "depth", "url_hash"],
                                     ascending=[False, True, True],
                                     kind="mergesort")["url_canon"].tolist()
        rank_of = {u: i for i, u in reversed(list(enumerate(order)))}
        ranked = sorted(urls, key=lambda u: rank_of.get(u, len(order)))
        positions += [(rnd, k, u) for k, u in enumerate(ranked)]
        last = rnd
    ckpts = glob.glob(os.path.join(res.checkpoint_dir, "round=*"))
    last_ckpt = max((int(d.rsplit("=", 1)[1]) for d in ckpts), default=last)
    seen = final_seen_hashes(res.checkpoint_dir, last_ckpt, n_shards)
    return positions, seen


class OperatorMix:
    """The 10-query operator list at sf0.01, each table's rows permuted
    by the seed; results checked against the DuckDB oracle."""

    name = "operator_mix"
    pass_limit_s = 120.0

    def __init__(self, work: str, seed: int, session):
        self.work, self.seed, self.session = work, seed, session
        self.sf_dir = os.path.join(work, "sf")
        self.warm_dir = os.path.join(work, "sf_warm")

    def prepare(self) -> dict:
        import __ray_entry__ as entry

        tables = gen.sf_tables(MIX_SF)
        gen.write_sf_dir(tables, self.sf_dir, self.seed)
        gen.write_sf_dir(gen.sf_tables(0.001), self.warm_dir, self.seed)
        registry = entry.queries_all()
        self.queries = {n: registry[n] for n in MIX_QUERIES}
        sql = entry.oracle_sql_all()
        self.sql = {n: sql[n] for n in MIX_QUERIES}
        return {f"rows.{t}": tbl.num_rows for t, tbl in sorted(tables.items())}

    @staticmethod
    def _run(fn, sf_dir: str):
        out = fn(sf_dir)
        return out.to_pandas() if hasattr(out, "to_pandas") else out

    def warm(self) -> None:
        for name in ("pricing_summary", "minhash_dedup_groups"):
            self._run(self.queries[name], self.warm_dir)

    def run_pass(self) -> tuple[int, object]:
        results = {name: self._run(fn, self.sf_dir)
                   for name, fn in self.queries.items()}
        return len(results), results

    def verify(self, results) -> tuple[int, int, list[str]]:
        if not hasattr(self, "_oracle"):
            self._oracle = checks.duck_oracle(self.sf_dir, self.sql)
        return checks.check_queries(results, self._oracle)


WORKLOADS = {w.name: w for w in (BulkExtract, FrontierCrawl, OperatorMix)}
