"""Fetcher stage unit tests: robots denial, 404s, politeness accounting,
url-range-pruned probes — driven directly (plain class, no Ray needed)."""

import pyarrow as pa
import pytest

from stimson_web_scraper_ray.sources.pages import pages_path_for
from stimson_web_scraper_ray.stages.fetch import Fetcher


@pytest.fixture(scope="module")
def pages_path():
    return pages_path_for("/root/testdata/sf0.001")


def _frontier_batch(urls, hosts=None, depths=None):
    hosts = hosts or [u.split("/")[2] for u in urls]
    depths = depths or [0] * len(urls)
    return pa.table({
        "url_canon": pa.array(urls, pa.string()),
        "host": pa.array(hosts, pa.string()),
        "depth": pa.array(depths, pa.int32()),
    })


def test_fetch_ok_denied_and_404(pages_path):
    import pyarrow.dataset as pads

    real_urls = pads.dataset(pages_path).to_table(
        columns=["url"])["url"].to_pylist()[:3]
    f = Fetcher(pages_path)
    batch = _frontier_batch(
        real_urls
        + ["http://news.bignews.com/private/secret.html"]   # robots-denied
        + ["http://news.bignews.com/2014/01/01/nope.html"]  # 404
    )
    out = f(batch)
    assert set(out["url"].to_pylist()) == set(real_urls)
    assert all(s == "200" for s in out["fetch_status"].to_pylist())
    assert f.pages_fetched == 3
    assert f.bytes_fetched > 0


def test_politeness_accounting(pages_path):
    import pyarrow.dataset as pads

    urls = pads.dataset(pages_path).to_table(
        columns=["url"])["url"].to_pylist()
    same_host = [u for u in urls if "bignews" in u][:5]
    f = Fetcher(pages_path, politeness_delay_s=1.0)
    f(_frontier_batch(same_host))
    # token bucket: 5 sequential requests to one host accrue 0+1+2+3+4
    assert f.total_wait == pytest.approx(10.0)
    host = same_host[0].split("/")[2]
    assert f.host_clock[host] == pytest.approx(5.0)


def test_depth_passthrough(pages_path):
    import pyarrow.dataset as pads

    real = pads.dataset(pages_path).to_table(
        columns=["url"])["url"].to_pylist()[:2]
    f = Fetcher(pages_path)
    out = f(_frontier_batch(real, depths=[3, 3]))
    assert out["depth"].to_pylist() == [3, 3]


def test_salt_hosts_spreads_heavy_host_uniformly():
    """Regression: `np.uint64 % python_int` promotes to float64 and zeroes
    the low hash bits — every salt came out 0 and a heavy host collapsed
    onto one part_key (one actor ran ~30% of a round serially)."""
    import pyarrow as pa

    from stimson_web_scraper_ray.functions.urlnorm import canon_hash64
    from stimson_web_scraper_ray.stages.url_stage import salt_hosts

    urls = [f"http://heavy.example.com/2014/01/01/s{i}.html"
            for i in range(1000)]
    t = pa.table({
        "url_canon": pa.array(urls),
        "url_hash": pa.array([canon_hash64(u) for u in urls], pa.uint64()),
        "host": pa.array(["heavy.example.com"] * 1000),
    })
    out = salt_hosts(t, {"heavy.example.com": 1000}, 16).to_pandas()
    sizes = out.groupby("part_key").size()
    assert len(sizes) == 16, f"expected 16 salt buckets, got {len(sizes)}"
    assert sizes.max() < 200, f"salting is lumpy: {sizes.tolist()}"


def test_robots_crawl_delay_overrides_default():
    """A robots Crawl-delay drives the per-host token bucket: hosts that
    publish one accumulate clock at that rate; hosts without keep the
    engine default."""
    from stimson_web_scraper_ray.stages.fetch import Fetcher, RobotsPolicy

    f = Fetcher.__new__(Fetcher)          # no parquet needed for the clock
    f.robots = RobotsPolicy()
    f.robots.cache["slow.com"] = RobotsPolicy.parse_body(
        "User-agent: *\nCrawl-delay: 2\n")
    f.delay = 0.5
    f.host_clock = {}
    f.total_wait = 0.0
    for _ in range(3):
        f._politeness_wait("slow.com")
        f._politeness_wait("fast.com")
    assert f.host_clock["slow.com"] == 6.0      # 3 × robots delay 2s
    assert f.host_clock["fast.com"] == 1.5      # 3 × default 0.5s
    assert f.total_wait == (0 + 2 + 4) + (0 + 0.5 + 1.0)


def test_parquet_files_matches_pyarrow_dataset(tmp_path):
    """The Fetcher's own file listing equals pyarrow.dataset's `.files`:
    flat and nested directories, a single file, and marker files."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from stimson_web_scraper_ray.stages.fetch import parquet_files

    tbl = pa.table({"url": ["u"]})
    layout = {
        "flat": ["b.parquet", "a.parquet", "c.parquet"],
        "nested": ["w.parquet", "a/y.parquet", "a/b/z.parquet",
                   "a-b/x.parquet", "round=0/part-1.parquet",
                   "_tmp/q.parquet", ".hidden/q.parquet"],
        "marked": ["part-0.parquet", "part-1.parquet"],
    }
    for top, files in layout.items():
        for rel in files:
            path = tmp_path / top / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            pq.write_table(tbl, str(path))
    (tmp_path / "marked" / "_SUCCESS").write_text("")
    (tmp_path / "marked" / ".x.crc").write_text("")

    cases = [str(tmp_path / d) for d in layout]
    cases += [str(tmp_path / "nested") + "/",
              str(tmp_path / "flat" / "a.parquet")]
    for path in cases:
        assert parquet_files(path) == \
            pads.dataset(path, format="parquet").files, path
    assert parquet_files(cases[-1]) == [cases[-1]]
    assert not any("_SUCCESS" in f or ".crc" in f
                   for f in parquet_files(cases[2]))


def test_round_worker_import_pulls_no_pandas():
    """Importing the round worker (what every crawl worker process does at
    spawn) must not import pandas or pyarrow.dataset."""
    import subprocess
    import sys

    code = ("import sys, stimson_web_scraper_ray.stages.round_worker\n"
            "print(sorted(m for m in ('pandas', 'pyarrow.dataset')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
