"""Benchmark self-tests at tiny scale (no Ray session needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, child, gen, layers  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import DEFAULT_SEED  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def pages():
    return gen.pages_table(gen.pick_docs(gen.documents(0.001), 12, DEFAULT_SEED),
                           DEFAULT_SEED)


class _Session:
    work = "unused"

    def start(self):
        return 0.5

    def settle(self):
        return 0.0

    def close(self):
        pass


class _Workload:
    def warm(self):
        pass

    def run_pass(self):
        return 10, None

    def verify(self, _out):
        return 10, 0, []


class _Watchdog:
    def arm(self, _label):
        pass

    def disarm(self):
        pass


def test_every_end_to_end_metric_printed_with_unit():
    res = child.untraced(_Workload(), _Session(), 0.0, _Watchdog(), 0.2)
    line = child.result_line(res)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    assert line["correct"] and line["attempted"] == 10 and line["failed"] == 0


def test_every_per_layer_metric_declared_with_unit():
    want = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: u for k, (u, _b) in layers.metric_specs().items()} == want


def test_traced_report_names_every_unmeasured_metric_missing():
    values, missing = layers.report({"trace.overhead_s": 0.1,
                                     "not.a.metric": 1.0}, ["_gone"])
    assert set(values) == {"trace.overhead_s"}
    assert "_gone" in missing
    assert set(values) | set(missing) >= set(layers.metric_specs())


def test_renamed_layer_function_is_reported_missing_not_fatal():
    class Mod:
        pass

    tr = Tracer("t")
    assert tr.patch(Mod, "no_such_function", "layer.x") is False
    assert tr.patch_everywhere(Mod, "no_such_function", "layer.y") == 0
    assert tr.missing == ["layer.x", "layer.y"]


def test_kernel_replay_emits_every_kernel_metric(pages):
    from stimson_web_scraper_ray.config import EngineConfig

    tr = Tracer("k")
    out = layers.kernel_replay(pages, EngineConfig(), tr)
    assert tr.missing == []
    kernel = {k for k in layers.metric_specs() if k.startswith("functions.")}
    assert set(out) == kernel | {"trace.overhead_s"}
    assert out["functions.dom.fromstring.calls_per_page"] >= 1
    for layer in layers.KERNEL_LAYERS:
        assert 0 <= out[f"{layer}.self_ms_per_page"] \
            <= out[f"{layer}.ms_per_page"] + 1e-9


def test_crawl_rounds_split_phases():
    plan, seen, ckpt = ("pipelines.crawl._plan_round",
                        "pipelines.crawl._seen_check",
                        "pipelines.crawl._checkpoint_round_async")
    spans = [(1, plan, 0.0, 1.0, None), (2, seen, 1.0, 2.0, None),
             (3, seen, 5.0, 5.5, None), (4, ckpt, 5.5, 6.0, None),
             (5, plan, 6.0, 6.5, None), (6, seen, 6.5, 7.0, None),
             (7, ckpt, 9.0, 9.5, None)]
    r0, r1 = layers.crawl_rounds(spans)
    assert r0 == {"plan": 1.0, "seen": 1.5, "dispatch": 3.0, "checkpoint": 0.5}
    assert r1 == {"plan": 0.5, "seen": 0.5, "dispatch": 2.0, "checkpoint": 0.5}


def test_extract_check_fails_on_one_corrupted_text(pages):
    from stimson_web_scraper_ray.stages.extract_stage import ExtractArticles

    out = ExtractArticles()(pages)
    golden = list(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    rows = list(zip(out["url"].to_pylist(), out["text"].to_pylist(),
                    out["status"].to_pylist()))
    assert checks.check_extract(rows, golden)[:2] == (12, 0)
    url, text, status = rows[3]
    bad = rows[:3] + [(url, text + "!", status)] + rows[4:]
    assert checks.check_extract(bad, golden)[1] == 2   # wrong row + missing golden
    bad = rows[:3] + [(url, text, "error: x")] + rows[4:]
    assert checks.check_extract(bad, golden)[1] >= 1


def test_pin_digest_changes_with_one_text(pages):
    pairs = list(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    base = checks.text_digest(pairs)
    pairs[0] = (pairs[0][0], pairs[0][1] + " ")
    assert checks.text_digest(pairs) != base


def test_crawl_check_fails_on_one_moved_position(tmp_path, pages):
    from stimson_web_scraper_ray.config import EngineConfig
    from stimson_web_scraper_ray.pipelines.sim import simulate_crawl
    from stimson_web_scraper_ray.sources.pages import seed_urls

    path = gen.write_pages(pages, str(tmp_path / "pages"))
    df = simulate_crawl(path, seed_urls(path, 2), EngineConfig(), max_rounds=3)
    sim = list(zip(df["round"], df["rank_in_round"], df["url"], df["url_hash"]))
    assert len(sim) > 2
    positions = [(r, k, u) for r, k, u, _ in sim]
    seen = [h for *_, h in sim]
    assert checks.check_crawl(positions, seen, sim)[:2] == (len(sim) + 1, 0)
    r, k, u = positions[-1]
    moved = positions[:-1] + [(r, k + 1, u)]
    assert checks.check_crawl(moved, seen, sim)[1] == 2
    assert checks.check_crawl(positions, seen[:-1], sim)[1] == 1


def test_query_check_fails_on_one_corrupted_row(tmp_path):
    sf = str(tmp_path / "sf")
    gen.write_sf_dir(gen.sf_tables(0.001), sf, seed=3)
    sql = {"pricing_summary": "SELECT l_returnflag, l_linestatus, "
           "CAST(COUNT(*) AS BIGINT) AS n FROM lineitem GROUP BY 1, 2"}
    oracle = checks.duck_oracle(sf, sql)
    good = {"pricing_summary": oracle["pricing_summary"].iloc[::-1].copy()}
    assert checks.check_queries(good, oracle)[:2] == (1, 0)
    bad = {"pricing_summary": good["pricing_summary"].copy()}
    bad["pricing_summary"].loc[bad["pricing_summary"].index[0], "n"] += 1
    assert checks.check_queries(bad, oracle)[:2] == (1, 1)


def test_inputs_are_a_function_of_the_seed():
    a = gen.pick_docs(gen.documents(0.001), 20, 5)
    assert a == gen.pick_docs(gen.documents(0.001), 20, 5)
    assert a != gen.pick_docs(gen.documents(0.001), 20, 6)
    t1, t2 = gen.sf_tables(0.001), gen.sf_tables(0.001)
    assert all(t1[k].equals(t2[k]) for k in t1)


def test_permuted_tables_hold_the_same_rows(tmp_path):
    import pyarrow.parquet as pq

    tables = {"t": pa.table({"x": list(range(50))})}
    gen.write_sf_dir(tables, str(tmp_path / "a"), seed=1)
    gen.write_sf_dir(tables, str(tmp_path / "b"), seed=2)
    a = pq.read_table(str(tmp_path / "a" / "t.parquet"))["x"].to_pylist()
    b = pq.read_table(str(tmp_path / "b" / "t.parquet"))["x"].to_pylist()
    assert a != b and sorted(a) == sorted(b) == list(range(50))


def test_interleaved_overhead_times_only_the_wrappers():
    import time

    class Owner:
        @staticmethod
        def work():
            return "plain"

    tr = Tracer("o")
    slow = Owner.work

    def install():
        def wrapped():
            time.sleep(0.01)
            return slow()
        tr.substitute(Owner, "work", wrapped)

    diff = layers.interleaved_overhead([lambda: Owner.work()] * 4, install, tr)
    assert 0.03 < diff < 0.5
    assert Owner.work is slow
