"""stimson_web_scraper_ray — a Ray-Data-native crawl + article-extraction engine.

A from-scratch reimplementation of the data-processing capabilities of
Stimson-Center/stimson-web-scraper (reference at /root/reference, cited by
file:line in docstrings) expressed as ``ray.data.Dataset`` pipelines:

- ``functions/``  pure kernels (URL algebra, HTML extraction, text stats)
- ``stages/``     ``map_batches`` batch transforms & actor-pool stages
- ``sources/``    parquet readers / synthetic page-table generation
- ``state/``      hash-routed exact seen-set partitions
- ``pipelines/``  crawl round loop, dedup, similarity, analytics

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions are
owned by the test fixture, ``bench.py`` and CLI entry points only.
"""

__version__ = "0.1.0"
