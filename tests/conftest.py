import os
import sys

import pytest

REFERENCE_FIXTURES = "/root/reference/tests/fixtures"
TESTDATA = os.environ.get("GRAFT_TESTDATA", "/root/testdata")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="module", autouse=True)
def _close_crawl_pool():
    """Kill the idle round-worker pool a module's crawls leave behind
    (test_crawl's, test_oracle's entry() and crawl_parity), so its
    processes do not sit beside later modules' tests."""
    yield
    crawl_mod = sys.modules.get("stimson_web_scraper_ray.pipelines.crawl")
    if crawl_mod is not None:
        crawl_mod.close_pool()


@pytest.fixture(scope="session")
def sf_dir():
    return os.path.join(TESTDATA, "sf0.001")


def ref_fixture(relpath: str) -> str:
    return os.path.join(REFERENCE_FIXTURES, relpath)
