"""Engine configuration.

Mirrors the semantics of the reference ``Configuration`` object
(/root/reference/scraper/configuration.py:26-134) as a frozen dataclass that
is broadcast by value to every stage (it is tiny and picklable); per-pipeline
overrides are plain ``dataclasses.replace`` calls, the analogue of the
reference's ``extend_config`` kwargs plumbing (utils.py:256-266).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # Output truncation limits — reference configuration.py:32-38
    max_text: int = 100_000
    max_summary: int = 5_000
    max_keywords: int = 35
    max_authors: int = 10

    # Extraction behaviour
    language: str = "en"
    use_meta_language: bool = True        # reference configuration.py:60-ish
    additional_remove_nodes_re: str | None = None  # configuration.py:79
    keep_article_html: bool = False

    # Frozen "today" so publish-date defaulting is deterministic
    # (reference defaults publish_date to datetime.today(), article.py:126-127
    # — non-deterministic; we freeze it per run for reproducibility).
    run_date: str = "2026-01-01"

    # Crawl / frontier
    # planning_table_limit picks each round's planning plan from the
    # frontier's probed row count: up to this many rows plan on the driver
    # (pandas); above it planning runs through Ray Data — workers spill
    # outlink candidates to parquet, and candidate dedup, seen-filtering,
    # frontier construction and budget selection run as salted-partition
    # Dataset ops, so only the round budget (<= round_budget rows)
    # materializes on the driver. Same algebra and deterministic order on
    # both plans (parity-tested crawl==sim); the driver plan skips the
    # spill/read-back fixed cost (~1 s/round at sandbox scale). 0 forces
    # the distributed plan at any size (the parity tests do).
    planning_table_limit: int = 200_000
    # indegree_priority scores each harvested candidate by how many
    # distinct fetched pages linked to it this round (citation count —
    # the classic crawl-ordering signal): priority = 1/(1+depth)
    # + indegree_weight·log1p(n_discoverers). Costs candidate-row
    # multiplicity through the harvest (workers stop batch-deduping so
    # the count survives; dedup then happens in planning), which is the
    # honest price of the signal. Parity-tested engine==sim on both
    # planning paths.
    indegree_priority: bool = False
    indegree_weight: float = 0.1
    max_depth: int = 3
    per_host_budget: int = 64             # pages fetched per host per round
    round_budget: int = 100_000           # global pages per round
    heavy_host_threshold: int = 1_000     # salt hosts above this candidate count
    salt_buckets: int = 16
    seen_shards: int = 8
    # simulated network: the per-host wait is accounted, never slept.
    # > 0 pins every host group to one round worker for the whole crawl
    # (its politeness clock lives there); at 0 a multi-worker crawl may
    # rebalance groups between workers (the dispatch's stealable tail)
    politeness_delay_s: float = 0.0

    # Ray Data stage sizing (tuned for 32-cpu node; scale-invariant ratios)
    extract_batch_size: int = 64          # DOMs are 5-20x html size; keep small
    extract_concurrency: int = 8          # extract actors / crawl round workers

    http_success_only: bool = True        # network.py:52-89 semantics
