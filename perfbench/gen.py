"""Seeded input generation (the load generator's work; never timed).

Every table is a pure function of its arguments, so the same ``--seed``
always yields byte-identical inputs:

- ``sf_tables(sf)``: the engine's registered test tables (TPC-H-shaped
  ``region`` … ``lineitem`` plus ``events``, ``documents`` and
  ``embeddings``). They are drawn from one ``default_rng(42)`` stream in
  the registered generator's order, so every table equals the registered
  sf0.001 / sf0.01 / sf0.1 one value for value. The
  table *contents* are fixed; a run seed only permutes row order
  (``write_sf_dir``), so every operator query sees the same relation.
- ``pages_table(rows, seed)`` + ``write_pages``: the pages layout
  ``sources.pages`` uses (``synthesize_pages``, global url sort, 512-row
  row groups).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BASE_SEED = 42
# documents: words drawn uniformly from this 30-word vocabulary
VOCAB = ("the a spark query table join group filter window data order "
         "customer part line fast slow big small hash sort merge scan agg "
         "stream batch vector key value row column").split()
DOC_WORDS = (10, 100)             # words per document, uniform [lo, hi)
NEAR_DUP_SHARE = 20               # 1 in 20 documents: another one's text + " dup"
LANGS = ("en", "en", "en", "de", "fr", "es", "zh")
SEGMENTS = ("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
PART_ADJECTIVES = ("red", "blue", "small", "large", "hot", "cold", "old", "new")
PART_NOUNS = ("anvil", "widget", "gizmo", "bolt", "gear", "plate", "rod", "ring")
PART_TYPES = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
EVENT_TYPES = ("click", "view", "purchase", "signup", "error")
_EPOCH = np.datetime64("1995-01-01", "us")
_EVENT_EPOCH = np.datetime64("2024-01-01", "us")
_DAY_US = 86_400_000_000


def _days(rng, n: int, lo: int, hi: int) -> np.ndarray:
    return _EPOCH + rng.integers(lo, hi, n) * np.timedelta64(_DAY_US, "us")


def _documents(rng, n: int) -> pa.Table:
    """``n`` documents over VOCAB. One in ``NEAR_DUP_SHARE`` is replaced,
    in turn, by another document's current text plus the word "dup", so
    the dedup queries have near-duplicate groups to find (and two
    replacements from one source make an exact duplicate pair)."""
    texts = [" ".join(VOCAB[j] for j in
                      rng.integers(0, len(VOCAB), int(rng.integers(*DOC_WORDS))))
             for _ in range(n)]
    for i in rng.choice(n, n // NEAR_DUP_SHARE, replace=False):
        texts[i] = texts[rng.integers(0, n)] + " dup"
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([LANGS[j] for j in rng.integers(0, len(LANGS), n)]),
        "source": pa.array([f"src{i % 20}" for i in range(n)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def sf_tables(sf: float, seed: int = BASE_SEED) -> dict[str, pa.Table]:
    """Every registered table at scale factor ``sf`` (customer 150k·sf,
    orders 1.5M·sf, lineitem 4 per order, documents 50k·sf, at least
    500). Every foreign key is uniform over its parent table, so lines per
    order are ~Poisson(4) and l_linenumber is uniform over 1-7, not a
    per-order sequence."""
    rng = np.random.default_rng(seed)
    n_cust, n_supp = int(150_000 * sf), max(10, int(10_000 * sf))
    n_part, n_ord = int(200_000 * sf), int(1_500_000 * sf)
    n_li = 4 * n_ord
    tables = {
        "region": pa.table({
            "r_regionkey": pa.array(range(5), pa.int32()),
            "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]}),
        "nation": pa.table({
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32())}),
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
            "c_mktsegment": [SEGMENTS[j] for j in
                             rng.integers(0, len(SEGMENTS), n_cust)]}),
        "supplier": pa.table({
            "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
            "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
            "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
            "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_supp), 2)}),
        "part": pa.table({
            "p_partkey": pa.array(np.arange(n_part), pa.int64()),
            "p_name": [f"{PART_ADJECTIVES[a]} {PART_NOUNS[b]}" for a, b in
                       zip(rng.integers(0, 8, n_part), rng.integers(0, 8, n_part))],
            "p_brand": [f"Brand#{j}" for j in rng.integers(1, 26, n_part)],
            "p_type": [PART_TYPES[j] for j in
                       rng.integers(0, len(PART_TYPES), n_part)],
            "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
            "p_retailprice": np.round(900 + (np.arange(n_part) % 1000) * 0.1, 2)}),
    }
    tables["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": [("O", "F", "P")[j] for j in rng.integers(0, 3, n_ord)],
        "o_totalprice": np.round(rng.uniform(1000, 500_000, n_ord), 2),
        "o_orderdate": pa.array(_days(rng, n_ord, 0, 2405), pa.timestamp("us")),
        "o_orderpriority": [PRIORITIES[j] for j in rng.integers(0, 5, n_ord)],
    })
    tables["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_ord, n_li), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, n_part, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_li), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900, 105_000, n_li), 2),
        "l_discount": np.round(rng.uniform(0, 0.1, n_li), 2),
        "l_tax": np.round(rng.uniform(0, 0.08, n_li), 2),
        "l_returnflag": [("R", "A", "N")[j] for j in rng.integers(0, 3, n_li)],
        "l_linestatus": [("O", "F")[j] for j in rng.integers(0, 2, n_li)],
        "l_shipdate": pa.array(_days(rng, n_li, 1, 2500), pa.timestamp("us")),
    })
    # events and embeddings are not read by the mix; they are drawn so
    # that documents come from the same point of the stream as registered
    n_ev = int(1_000_000 * sf)
    ts_s = np.sort(rng.uniform(0, 30 * 86_400, n_ev))
    tables["events"] = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "ts": pa.array(_EVENT_EPOCH + ((ts_s * 1e9).astype(np.int64) // 1000)
                       .astype("timedelta64[us]"), pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, int(15_000 * sf), n_ev), pa.int64()),
        "event_type": [EVENT_TYPES[j] for j in rng.integers(0, 5, n_ev)],
        "value": np.round(rng.exponential(50.0, n_ev), 2),
        "props": [f'{{"k": {j}}}' for j in rng.integers(0, 100, n_ev)]})
    tables["documents"] = _documents(rng, max(500, int(50_000 * sf)))
    n_emb = max(500, int(20_000 * sf))
    vecs = rng.standard_normal((n_emb, 64)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    tables["embeddings"] = pa.table({
        "vec_id": pa.array(np.arange(n_emb), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_emb), pa.int32())})
    return tables


@functools.lru_cache(maxsize=2)
def documents(sf: float = 0.1) -> pa.Table:
    """The registered ``documents`` table at ``sf`` (the pages workloads
    read the sf0.1 one, as the engine's own bench does)."""
    return sf_tables(sf)["documents"]


def write_sf_dir(tables: dict[str, pa.Table], out_dir: str, seed: int) -> None:
    """One parquet file per table, each table's rows permuted by ``seed``."""
    os.makedirs(out_dir, exist_ok=True)
    for i, (name, t) in enumerate(sorted(tables.items())):
        perm = np.random.default_rng([seed, i]).permutation(t.num_rows)
        pq.write_table(t.take(pa.array(perm)),
                       os.path.join(out_dir, f"{name}.parquet"))


def pick_docs(docs: pa.Table, n: int, seed: int) -> list[tuple]:
    """A seeded sample of ``n`` documents as synthesize_pages rows."""
    idx = np.sort(np.random.default_rng(seed).choice(docs.num_rows, n,
                                                     replace=False))
    sub = docs.take(pa.array(idx))
    return list(zip(sub["doc_id"].to_pylist(), sub["text"].to_pylist(),
                    sub["lang"].to_pylist()))


def pages_table(rows: list[tuple], seed: int) -> pa.Table:
    """synthesize_pages output in the url-sorted order pages_path_for
    writes (synthesis order breaks ties between duplicate urls)."""
    from stimson_web_scraper_ray.sources.pages import synthesize_pages

    t = synthesize_pages(rows, seed=seed)
    t = t.append_column("_order", pa.array(np.arange(t.num_rows), pa.int64()))
    return t.sort_by([("url", "ascending"), ("_order", "ascending")]) \
        .drop_columns(["_order"])


def write_pages(table: pa.Table, out_dir: str) -> str:
    """The ``pages_path_for`` file layout: ~4096 rows per file, 512-row
    row groups (the fetch probe's read-amplification unit)."""
    os.makedirs(out_dir, exist_ok=True)
    n_files = max(1, min(64, table.num_rows // 4096))
    per = -(-table.num_rows // n_files)
    for fi in range(n_files):
        chunk = table.slice(fi * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(out_dir, f"part-{fi:04d}.parquet"),
                           row_group_size=512)
    return out_dir


def html_stats(table: pa.Table) -> dict:
    """Input properties recorded beside the metrics."""
    from stimson_web_scraper_ray.sources.pages import HOSTS

    sizes = np.array([len(h) for h in table["html"].to_pylist()])
    hosts = [u.split("/")[2] for u in table["url"].to_pylist()]
    heavy = max(set(HOSTS), key=HOSTS.count)
    return {"pages": int(table.num_rows),
            "html_bytes_mean": round(float(sizes.mean()), 1),
            "html_bytes_max": int(sizes.max()),
            "heavy_host_share": round(hosts.count(heavy) / len(hosts), 4)}
