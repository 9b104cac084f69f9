"""One benchmark run, in the process session ``run.py`` supervises.

Untraced (``--trace 0``): time the cold start (imports, then the median
of ``SETUP_STARTS`` Ray starts, each with one engine import on a fresh
worker), then warm up and run timed passes until ``--seconds`` of pass
time have elapsed (at least one pass), checking every pass's output.
Traced (``--trace 1``): see ``layers.py``.

Prints one info line (input properties, sizing, per-pass times, check
problems) and, as the last line, the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import session as sess  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# one Ray start spreads 0.34 (IQR / median over 5 runs on a 4-vCPU VM);
# the median of 3 in one process is steadier
SETUP_STARTS = 3


def import_engine() -> float:
    """Import Ray and the engine; returns the seconds it took."""
    t0 = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import __ray_entry__  # noqa: F401
    import stimson_web_scraper_ray.pipelines.crawl  # noqa: F401
    import stimson_web_scraper_ray.stages.extract_stage  # noqa: F401

    return time.perf_counter() - t0


def untraced(wl, session, seconds: float, watchdog, import_s: float) -> dict:
    watchdog.arm("setup")
    starts = []
    for i in range(SETUP_STARTS):
        if i:
            session.close()
        starts.append(session.start())
    setup_s = import_s + statistics.median(starts)
    watchdog.arm("warm-up")
    t0 = time.perf_counter()
    wl.warm()
    warm_s = time.perf_counter() - t0
    walls, rates, settle = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    with sess.RssSampler() as rss:
        while not walls or sum(walls) < seconds:
            watchdog.arm(f"settle before pass {len(walls)}")
            settle.append(session.settle())
            watchdog.arm(f"pass {len(walls)}")
            t0 = time.perf_counter()
            items, out = wl.run_pass()
            dt = time.perf_counter() - t0
            watchdog.arm(f"check of pass {len(walls)}")
            walls.append(dt)
            rates.append(items / dt)
            a, f, p = wl.verify(out)
            attempted, failed = attempted + a, failed + f
            problems += p
    if hasattr(wl, "verify_pin"):
        a, f, p = wl.verify_pin()
        attempted, failed = attempted + a, failed + f
        problems += p
    watchdog.disarm()
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (rss.peak / 2**20, "MB"),
    }
    info = {"import_s": import_s, "ray_start_s": starts, "warm_s": warm_s,
            "settle_s": settle, "pass_s": walls, "items_per_s": rates}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


def result_line(res: dict) -> dict:
    """The result object, printed as the last stdout line."""
    return {
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    import_s = import_engine()
    session = sess.Session(args.work)
    # numpy seeds must be non-negative
    wl = WORKLOADS[args.workload](os.path.join(args.work, args.workload),
                                   args.seed % 2**32, session)
    watchdog = sess.Watchdog(args.workload, wl.pass_limit_s)
    watchdog.arm("input generation")
    inputs = wl.prepare()
    try:
        if args.trace:
            from perfbench import layers

            res = layers.traced(wl, session, args, watchdog)
        else:
            res = untraced(wl, session, args.seconds, watchdog, import_s)
    finally:
        watchdog.arm("shutdown")
        session.close()
        watchdog.disarm()
    if hasattr(wl, "rounds_reached"):
        inputs["rounds_reached"] = wl.rounds_reached
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "inputs": inputs, "sizing": session.plan,
            "error_ratio": res["failed"] / max(1, res["attempted"]),
            "problems": res["problems"], **res["info"]}
    print(json.dumps({"info": info}))
    print(json.dumps(result_line(res)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
