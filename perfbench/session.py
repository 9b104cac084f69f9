"""Ray session sizing, start-up timing and process accounting.

One-core sizing rule: the session declares 2 logical CPUs and the extract
pool gets 1 actor, whatever the host offers, so a run measures the same
configuration on any host. One logical CPU deadlocks the bulk pipeline:
the one extract actor holds the only CPU, so the ReadParquet and Write
tasks are never scheduled and the pass hangs with no error. Two logical
CPUs and one actor run it to completion on a one-core host.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# AF_UNIX socket paths are capped at 107 bytes; Ray appends
# "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store" (~64 bytes)
_SOCKET_ROOM = 107 - 64
OBJECT_STORE_BYTES = 256 * 2**20


def cpu_plan() -> dict:
    return {"host_cpus": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "logical_cpus": 2, "extract_actors": 1, "crawl_workers": 1,
            "seen_shards": 2}


def ray_temp_dir() -> str:
    """Ray's temp dir: ``.bench_build/ray`` in the checkout when its
    socket paths fit, else a short private dir in the system temp dir.
    ``Session.close`` removes it."""
    inside = os.path.join(REPO, ".bench_build", "ray")
    if len(inside.encode()) <= _SOCKET_ROOM:
        return inside
    return tempfile.mkdtemp(prefix="pb")


def _prestart() -> int:
    """Worker-side import of the engine: the one-time cost every first
    Dataset execution would otherwise pay."""
    import stimson_web_scraper_ray.pipelines.analytics  # noqa: F401
    import stimson_web_scraper_ray.stages.extract_stage  # noqa: F401

    return os.getpid()


class Session:
    """Owns the Ray session of one benchmark run."""

    def __init__(self, work: str):
        self.work = work
        self.plan = cpu_plan()
        self.temp = ray_temp_dir()
        path = os.environ.get("PYTHONPATH", "")
        os.environ["PYTHONPATH"] = REPO + (os.pathsep + path if path else "")

    def start(self) -> float:
        """Start Ray and run one engine import on a worker; returns the
        seconds it took."""
        import ray
        from ray.data import DataContext

        os.makedirs(self.temp, exist_ok=True)
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.plan["logical_cpus"],
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.temp)
        ray.get(ray.remote(_prestart).remote())
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return time.perf_counter() - t0

    def settle(self, timeout: float = 30.0) -> float:
        """Wait until the previous pass's actors have released their
        logical CPUs; returns the seconds waited. A finished Dataset's
        actor pool is torn down only when its handles are collected, and
        a pass that starts before that waits for a CPU for its own actor
        (observed: 4-5 s passes taking 15-24 s)."""
        import gc

        import ray

        t0 = time.perf_counter()
        gc.collect()
        while (ray.available_resources().get("CPU", 0) < self.plan["logical_cpus"]
               and time.perf_counter() - t0 < timeout):
            time.sleep(0.05)
        return time.perf_counter() - t0

    def close(self) -> None:
        import ray

        ray.shutdown()
        shutil.rmtree(self.temp, ignore_errors=True)


def session_pids(sid: int) -> list[int]:
    """Every live process in session ``sid`` (the benchmark and the Ray
    processes it started; Ray moves them to new process groups but not
    to a new session)."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the ")" of the command name: state ppid pgrp session
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            out.append(int(name))
    return out


def rss_bytes(pids: list[int]) -> int:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except OSError:
            continue
    return total


class RssSampler:
    """Peak summed RSS of this process's session, sampled from /proc."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        sid = os.getsid(0)
        while True:
            self.peak = max(self.peak, rss_bytes(session_pids(sid)))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "RssSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Watchdog:
    """Ends the process when one pass runs far past its expected time:
    a stalled pass (e.g. the 1-logical-CPU deadlock) exits non-zero with
    the workload named instead of hanging."""

    def __init__(self, workload: str, limit_s: float):
        self.workload = workload
        self.limit_s = limit_s
        self._timer: threading.Timer | None = None

    def _fire(self, label: str) -> None:
        import sys

        print(f"perfbench: workload {self.workload}: {label} stalled "
              f"(no result after {self.limit_s:.0f} s); aborting",
              file=sys.stderr, flush=True)
        os._exit(3)

    def arm(self, label: str) -> None:
        self.disarm()
        self._timer = threading.Timer(self.limit_s, self._fire, (label,))
        self._timer.daemon = True
        self._timer.start()

    def disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
