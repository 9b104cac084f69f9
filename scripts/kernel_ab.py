"""In-process A/B of the extraction kernel of two checkouts.

Usage:
    python3 scripts/kernel_ab.py <checkoutA> <checkoutB> \
        [--seeds 1 2 3] [--pages 1200] [--chunk 100]

Each checkout's ``stimson_web_scraper_ray`` package is imported under its
own module name (``kab_a`` / ``kab_b``) into ONE process, so both kernels
run on the same host minute. The input is the bulk benchmark's page
sample (``perfbench.gen``, taken from the checkout this script lives in)
for each seed. Pages are cut into ``--chunk``-page chunks; the chunks run
in a seeded shuffled order, and each chunk runs through both sides'
``ExtractArticles`` back to back, alternating which side goes first, so
host drift cancels out of the ratio.

Prints ms/page per side and the B/A ratio per seed and overall, plus a
sha256 digest of every output column per side. Exits 1 if any output
column of any page differs between the sides.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = "stimson_web_scraper_ray"


def load_package(checkout: str, name: str):
    """Import ``<checkout>/stimson_web_scraper_ray`` as module ``name``."""
    pkg_dir = os.path.join(os.path.abspath(checkout), PKG)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def extractor(name: str):
    stage = importlib.import_module(f"{name}.stages.extract_stage")
    config = importlib.import_module(f"{name}.config")
    return stage.ExtractArticles(config.EngineConfig(), with_outlinks=True)


def page_chunks(seed: int, pages: int, chunk: int):
    from perfbench import gen

    table = gen.pages_table(gen.pick_docs(gen.documents(0.1), pages, seed),
                            seed).select(["url", "html", "lang"])
    return [table.slice(i, chunk) for i in range(0, table.num_rows, chunk)]


def column_digest(tables) -> str:
    h = hashlib.sha256()
    for t in tables:
        for name in sorted(t.column_names):
            h.update(name.encode())
            h.update(json.dumps(t[name].to_pylist(), ensure_ascii=False,
                                sort_keys=True).encode())
    return h.hexdigest()


def run_seed(seed: int, pages: int, chunk: int, sides):
    """Time both sides over one seed's chunks; returns (result line,
    differing chunk columns, seconds per side)."""
    chunks = page_chunks(seed, pages, chunk)
    order = list(range(len(chunks)))
    random.Random(seed).shuffle(order)
    secs = {s: 0.0 for s in sides}
    outs = {s: [None] * len(chunks) for s in sides}
    diffs = []
    for k, ci in enumerate(order):
        names = list(sides) if k % 2 == 0 else list(reversed(sides))
        for s in names:
            gc.collect()
            t0 = time.perf_counter()
            outs[s][ci] = sides[s](chunks[ci])
            secs[s] += time.perf_counter() - t0
        a, b = (outs[s][ci] for s in sides)
        if a.column_names != b.column_names:
            diffs.append(f"seed {seed} chunk {ci} columns "
                         f"{a.column_names} != {b.column_names}")
            continue
        diffs += [f"seed {seed} chunk {ci} column {col}"
                  for col in a.column_names if not a[col].equals(b[col])]
    n = sum(c.num_rows for c in chunks)
    res = {"seed": seed, "pages": n}
    for s in sides:
        res[f"{s}_ms_per_page"] = round(1e3 * secs[s] / n, 4)
        res[f"{s}_digest"] = column_digest(outs[s])
    res["ratio_b_over_a"] = round(secs["b"] / secs["a"], 4)
    res["identical"] = not diffs
    return res, diffs, secs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--pages", type=int, default=1200)
    ap.add_argument("--chunk", type=int, default=100)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    sides = {}
    for side, path in (("a", args.a), ("b", args.b)):
        load_package(path, f"kab_{side}")
        sides[side] = extractor(f"kab_{side}")
    warm = page_chunks(args.seeds[0], args.chunk, args.chunk)[0]
    for fn in sides.values():
        fn(warm)

    total = {s: 0.0 for s in sides}
    pages = 0
    all_diffs = []
    for seed in args.seeds:
        res, diffs, secs = run_seed(seed, args.pages, args.chunk, sides)
        print(json.dumps(res))
        all_diffs += diffs
        pages += res["pages"]
        for s in sides:
            total[s] += secs[s]
    summary = {"seeds": args.seeds, "pages": pages,
               "a_ms_per_page": round(1e3 * total["a"] / pages, 4),
               "b_ms_per_page": round(1e3 * total["b"] / pages, 4),
               "ratio_b_over_a": round(total["b"] / total["a"], 4),
               "identical": not all_diffs}
    print(json.dumps(summary))
    for d in all_diffs[:20]:
        print("DIFF", d, file=sys.stderr)
    return 1 if all_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
