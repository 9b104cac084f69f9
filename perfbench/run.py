"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload in a child process that leads its own process session,
so every process the run starts (the child and the whole Ray session)
can be found and stopped. The child prints the result as its last
stdout line. On a stall, a crash or the overall deadline, this process
stops the session, names the workload on stderr and exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.session import session_pids  # noqa: E402

DEADLINE_S = 170.0                # a run must end within 180 s
WORK = os.path.join(".bench_build", "perfbench")


def stop_session(sid: int, timeout: float = 20.0) -> None:
    """SIGKILL every process left in session ``sid`` and wait until none
    remains."""
    end = time.monotonic() + timeout
    while True:
        pids = session_pids(sid)
        if not pids or time.monotonic() > end:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = os.path.abspath(os.path.join(WORK, f"{args.workload}-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = child.wait(timeout=DEADLINE_S)
        reason = f"exit code {rc}"
    except subprocess.TimeoutExpired:
        rc, reason = 4, f"no result within {DEADLINE_S:.0f} s"
    finally:
        stop_session(child.pid)
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        print(f"perfbench: workload {args.workload} failed ({reason})",
              file=sys.stderr)
        return rc if rc > 0 else 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
