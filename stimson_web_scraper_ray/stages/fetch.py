"""Fetch stage: actor pool with per-host politeness + robots state.

The reference has no scheduler at all (it fires blocking requests;
``number_threads=10`` is vestigial — configuration.py:73, network.py:110-134),
and no robots/politeness handling; these are north-rule requirements built
fresh here (SURVEY.md §2.3 T7).

In this sandbox there is no network: "fetching" a URL means reading its row
from the Common-Crawl-style pages parquet (the driver's ``input_hint``
contract — the html column *is* the web). The Fetcher actor still does
everything a networked fetcher would except the socket:

- robots.txt cache per host (fetched once per actor; deterministic
  simulated rules: path prefixes under ``/private`` are disallowed),
- a token-bucket per host (``politeness_delay_s`` per request; with the
  simulated clock the wait is *accounted* — reported in metrics — rather
  than slept, so benchmarks measure compute),
- per-host metrics (pages, bytes, robots-denied) returned per batch,
- error rows (``status`` column) instead of exceptions (network.py:52-89
  semantics: non-2XX → error status when http_success_only).

Hosts are routed to actors by ``hash(host) % pool`` upstream (repartition
on host) so a host's token bucket never spans actors.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc


def parquet_files(path: str) -> list[str]:
    """``pyarrow.dataset.dataset(path, format="parquet").files``: ``[path]``
    for a file, else the directory's files, recursively and sorted, minus
    names starting with ``_`` or ``.`` (importing pyarrow.dataset would
    pull pandas into every round-worker process)."""
    if os.path.isfile(path):
        return [path]
    out = []
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith(("_", "."))]
        out += [os.path.join(root, f) for f in files
                if not f.startswith(("_", "."))]
    return sorted(out)


class RobotsPolicy:
    """Per-host robots cache backed by the REAL stdlib parser: every
    host serves a deterministic robots.txt body (the sandbox stand-in
    for one network GET per host) and ``allowed()`` is
    ``urllib.robotparser.RobotFileParser.can_fetch`` — identical rule
    semantics to a live crawl, including wildcard agents, first-match
    Allow/Disallow ordering, and '#' comments. The default body
    disallows ``/private/`` and ``/admin/``, matching the simulator's
    policy; a crawl against real hosts swaps only the body source."""

    BODY = ("# synthetic robots.txt — one per host\n"
            "User-agent: *\n"
            "Disallow: /private/\n"
            "Disallow: /admin/\n")

    def __init__(self):
        self.cache: dict[str, "object"] = {}
        self.fetches = 0

    @staticmethod
    def parse_body(body: str):
        import urllib.robotparser

        rp = urllib.robotparser.RobotFileParser()
        rp.parse(body.splitlines())
        return rp

    def _parser_for(self, host: str):
        rp = self.cache.get(host)
        if rp is None:
            self.fetches += 1  # one robots.txt GET per host
            rp = self.cache[host] = self.parse_body(self.BODY)
        return rp

    def allowed(self, host: str, path: str) -> bool:
        return self._parser_for(host).can_fetch("*", path)

    def crawl_delay(self, host: str) -> float | None:
        """The host's robots Crawl-delay for '*' (None when the body
        sets none — the default body doesn't, so engine behavior only
        changes for hosts that actually publish one)."""
        d = self._parser_for(host).crawl_delay("*")
        return float(d) if d is not None else None


class Fetcher:
    """map_batches actor: batch of frontier rows (url_canon, host, ...) →
    page rows (url, html, lang, warc_ts, fetch_status) + politeness
    accounting."""

    def __init__(self, pages_path: str, politeness_delay_s: float = 0.0):
        self.pages_path = pages_path
        self.robots = RobotsPolicy()
        self.delay = politeness_delay_s
        self.host_clock: dict[str, float] = {}   # token-bucket next-free time
        self.total_wait = 0.0
        self.pages_fetched = 0
        self.bytes_fetched = 0
        # CDX-style probe index (lazy): the pages table is globally
        # url-sorted, so parquet row-group [min,max] url stats form a
        # disjoint ordered partition of url space. Level 1 (built on
        # first probe): per-FILE url bounds from footer metadata only.
        # Level 2 (expanded per file on first touch): per-row-group
        # bounds. A probe then reads EXACTLY the row groups containing
        # wanted urls — cost ∝ wanted rows, not host span (a scattered
        # seed round against a [lo,hi] range scan read whole host
        # regions; measured 3x fetch-phase cost when the table doubled).
        # At 100-TB scale the lazy level-2 expansion bounds index memory
        # to the files this actor's PINNED hosts touch.
        self._file_index: list | None = None     # [(min, max, path)]
        self._rg_index: dict[str, list] = {}     # path → [(min, max, i)]
        self._pf_cache: dict[str, object] = {}   # path → ParquetFile

    def _politeness_wait(self, host: str) -> float:
        clock = self.host_clock.get(host, 0.0)
        # a robots Crawl-delay overrides the engine default for its host
        delay = self.robots.crawl_delay(host)
        self.host_clock[host] = clock + (self.delay if delay is None
                                         else delay)
        self.total_wait += clock
        return clock

    def _url_col_index(self, md) -> int:
        for i in range(md.num_columns):
            if md.schema.column(i).name == "url":
                return i
        raise KeyError("pages table has no url column")

    def _ensure_file_index(self) -> None:
        import pyarrow.parquet as pq

        if self._file_index is not None:
            return
        entries = []
        for path in parquet_files(self.pages_path):
            pf = pq.ParquetFile(path)
            self._pf_cache[path] = pf
            md = pf.metadata
            if md.num_row_groups == 0:
                continue
            ui = self._url_col_index(md)
            entries.append((md.row_group(0).column(ui).statistics.min,
                            md.row_group(md.num_row_groups - 1)
                            .column(ui).statistics.max, path))
        entries.sort()
        self._file_index = entries

    def _rgs_for(self, path: str) -> list:
        rgs = self._rg_index.get(path)
        if rgs is None:
            md = self._pf_cache[path].metadata
            ui = self._url_col_index(md)
            rgs = [(md.row_group(i).column(ui).statistics.min,
                    md.row_group(i).column(ui).statistics.max, i)
                   for i in range(md.num_row_groups)]
            self._rg_index[path] = rgs
        return rgs

    def _probe(self, wanted: list[str]) -> pa.Table:
        """Read exactly the row groups whose [min,max] url bounds contain
        a wanted url, then filter to the wanted set. Relies on pyarrow's
        untruncated string statistics (the pages writer is ours —
        sources/pages.py — and never truncates at these url lengths);
        global url sort makes the (file, row-group) bounds a disjoint
        ordered partition, so each url maps to at most one row group."""
        import bisect

        self._ensure_file_index()
        ws = sorted(set(wanted))
        fmins = [e[0] for e in self._file_index]
        by_path: dict[str, set] = {}
        fj = -2
        rgs = rmins = None
        cur_path = None
        rj_hint = 0
        for u in ws:
            j = bisect.bisect_right(fmins, u) - 1
            if j < 0 or u > self._file_index[j][1]:
                continue                      # 404: outside every file
            if j != fj:
                fj = j
                cur_path = self._file_index[j][2]
                rgs = self._rgs_for(cur_path)
                rmins = [r[0] for r in rgs]
                rj_hint = 0
            k = bisect.bisect_right(rmins, u, lo=rj_hint) - 1
            if k >= 0 and u <= rgs[k][1]:
                by_path.setdefault(cur_path, set()).add(rgs[k][2])
                rj_hint = k                   # urls ascend within a file
        if not by_path:
            return pa.table({"url": pa.array([], pa.string()),
                             "warc_ts": pa.array([], pa.timestamp("us")),
                             "html": pa.array([], pa.binary()),
                             "lang": pa.array([], pa.string())})
        cols = ["url", "warc_ts", "html", "lang"]
        parts = [self._pf_cache[p].read_row_groups(sorted(idxs),
                                                   columns=cols)
                 for p, idxs in sorted(by_path.items())]
        got = pa.concat_tables(parts)
        return got.filter(pc.is_in(got["url"],
                                   value_set=pa.array(ws, pa.string())))

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url_canon"].to_pylist()
        hosts = batch["host"].to_pylist()
        depths = (batch["depth"].to_pylist()
                  if "depth" in batch.column_names else [0] * len(urls))

        wanted, denied = [], set()
        for u, h in zip(urls, hosts):
            path = "/" + u.split("/", 3)[3] if u.count("/") >= 3 else "/"
            if self.robots.allowed(h, path):
                self._politeness_wait(h)
                wanted.append(u)
            else:
                denied.add(u)

        # "network": indexed parquet probe for exactly these urls (the
        # sandbox analogue of an indexed fetch) — see the index comment
        # in __init__.
        if wanted:
            got = self._probe(wanted)
        else:
            got = pa.table({"url": pa.array([], pa.string()),
                            "warc_ts": pa.array([], pa.timestamp("us")),
                            "html": pa.array([], pa.binary()),
                            "lang": pa.array([], pa.string())})

        found = dict.fromkeys(got["url"].to_pylist())
        for i, u in enumerate(got["url"].to_pylist()):
            found[u] = i

        order, status, depth_out = [], [], []
        for u, d in zip(urls, depths):
            if u in denied:
                continue
            idx = found.get(u)
            if idx is None:
                # 404 — url not in the web table
                continue
            order.append(idx)
            status.append("200")
            depth_out.append(d)

        self.pages_fetched += len(order)
        result = got.take(pa.array(order, pa.int64()))
        self.bytes_fetched += result.nbytes
        result = result.append_column("fetch_status",
                                      pa.array(status, pa.string()))
        result = result.append_column("depth",
                                      pa.array(depth_out, pa.int32()))
        return result
