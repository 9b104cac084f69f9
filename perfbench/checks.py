"""Correctness checks. Each returns ``(attempted, failed, problems)``;
``failed / attempted`` is the run's error ratio."""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import os

from .session import REPO


def text_digest(pairs) -> str:
    """sha256 over the url-sorted ``(url, text)`` pairs."""
    h = hashlib.sha256()
    for url, text in sorted(pairs):
        h.update(url.encode())
        h.update(b"\0")
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def check_extract(out_rows, golden_rows) -> tuple[int, int, list[str]]:
    """Every extracted row's text must equal its page's golden text and
    its status must be "ok". Rows are ``(url, text, status)`` /
    ``(url, text)`` tuples, compared as multisets (urls may repeat)."""
    want = collections.Counter(golden_rows)
    problems = []
    failed = 0
    for url, text, status in out_rows:
        if status != "ok" or want[(url, text)] == 0:
            failed += 1
            if len(problems) < 3:
                problems.append(f"row {url}: status={status!r}, text differs "
                                "from golden" if want[(url, text)] == 0
                                else f"row {url}: status={status!r}")
        else:
            want[(url, text)] -= 1
    missing = sum(want.values())
    if missing:
        problems.append(f"{missing} golden rows missing from the output")
    return len(golden_rows), failed + missing, problems


def check_crawl(positions, seen, sim) -> tuple[int, int, list[str]]:
    """``positions``: the engine's fetched ``(round, rank, url)`` list;
    ``seen``: its final seen-set hashes; ``sim``: the simulator's
    ``(round, rank, url, url_hash)`` rows. Each simulator position and
    the seen set count as one check."""
    want = {(r, k, u) for r, k, u, _ in sim}
    got = set(positions)
    problems = []
    failed = len(want - got) + len(got - want)
    for pos in sorted(want ^ got)[:3]:
        problems.append(f"crawl position {pos} "
                        f"{'missing' if pos in want else 'unexpected'}")
    sim_seen = sorted(int(h) for *_, h in sim)
    if sorted(int(h) for h in seen) != sim_seen:
        failed += 1
        problems.append(f"final seen set differs ({len(seen)} vs "
                        f"{len(sim_seen)} hashes)")
    return len(want) + 1, failed, problems


def _oracle_util():
    path = os.path.join(REPO, "tests", "oracle_util.py")
    spec = importlib.util.spec_from_file_location("oracle_util", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def check_queries(results: dict, oracle: dict) -> tuple[int, int, list[str]]:
    """Each query result must equal its DuckDB oracle result under the
    compare rules of the engine's oracle tests (tests/oracle_util.py)."""
    compare = _oracle_util().compare
    problems = []
    failed = 0
    for name, df in results.items():
        ok, msg = compare(df, oracle[name])
        if not ok:
            failed += 1
            problems.append(f"{name}: {msg[:160]}")
    return len(results), failed, problems


def duck_oracle(sf_dir: str, sql: dict) -> dict:
    """Run each oracle query against the same files the engine read."""
    con = _oracle_util().duck_con(sf_dir)
    try:
        return {name: con.sql(q).df() for name, q in sql.items()}
    finally:
        con.close()
