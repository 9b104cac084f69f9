"""Extraction stage: fused decode→parse→clean→score→format ``map_batches``.

One Arrow batch in (url, html binary, lang, + passthrough), one Arrow batch
out with the article columns of SURVEY.md §1.2 plus an ``outlinks``
list<string> column harvested from the same DOM pass (reference's link
extraction is M21; harvesting here avoids a second parse of multi-MB html).

A callable CLASS → Ray actor pool: per-actor state (config, compiled
cleaner regexes) is built once in ``__init__``, not per batch. The work is
inherently per-row (DOM mutation), so the "vectorization" is Arrow-in /
Arrow-out with zero-copy passthrough of untouched columns; keep
``batch_size`` small (DOMs are 5-20× html size — SURVEY.md §7 hard parts).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import EngineConfig
from ..functions import dom, metadata
from ..functions.cleaner import DocumentCleaner
from ..functions.extract import extract_article
from ..functions.urlnorm import prepare_url

_LIST_STR = pa.list_(pa.string())

ARTICLE_FIELDS = [
    ("url", pa.string()), ("canonical_link", pa.string()),
    ("link_hash", pa.string()), ("title", pa.string()),
    ("text", pa.string()), ("summary", pa.string()),
    ("authors", _LIST_STR), ("publish_date", pa.string()),
    ("meta_lang", pa.string()), ("meta_description", pa.string()),
    ("meta_keywords", _LIST_STR), ("meta_site_name", pa.string()),
    ("meta_favicon", pa.string()), ("meta_data", pa.string()),
    ("tags", _LIST_STR), ("top_image", pa.string()),
    ("images", _LIST_STR), ("movies", _LIST_STR),
    ("meta_refresh_url", pa.string()), ("tables", pa.string()),
    ("workflow", _LIST_STR), ("status", pa.string()),
]


def harvest_outlinks(html, page_url: str) -> list[str]:
    """All <a href> absolutized via prepare_url(href, page_url) — the
    frontier edge harvest (M21; reference vestigial in utils.py:134)."""
    try:
        doc = dom.fromstring(html)
    except Exception:
        return []
    out, seen = [], set()
    for a in dom.get_elements_by_tag(doc, tag="a"):
        href = a.attrib.get("href")
        if not href:
            continue
        prepared = prepare_url(href, page_url)
        if prepared and prepared not in seen:
            seen.add(prepared)
            out.append(prepared)
    return out


class ExtractArticles:
    """Actor-pool batch callable. Usage:

        ds.map_batches(ExtractArticles, batch_format="pyarrow",
                       batch_size=cfg.extract_batch_size,
                       concurrency=cfg.extract_concurrency,
                       fn_constructor_kwargs={"config": cfg})
    """

    def __init__(self, config: EngineConfig | None = None,
                 with_outlinks: bool = True):
        self.cfg = config or EngineConfig()
        self.with_outlinks = with_outlinks
        # build one cleaner up front so its patterns are compiled before the
        # first batch; extract_article builds a cleaner per page, and those
        # compiles hit re's pattern cache
        DocumentCleaner(self.cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        langs = (batch["lang"].to_pylist()
                 if "lang" in batch.column_names else ["en"] * len(urls))

        cols: dict[str, list] = {name: [] for name, _ in ARTICLE_FIELDS}
        outlinks: list[list[str]] = []
        for url, html, lang in zip(urls, htmls, langs):
            art = extract_article(html, url=url, language=lang or "en",
                                  config=self.cfg,
                                  collect_outlinks=self.with_outlinks)
            for name, _ in ARTICLE_FIELDS:
                cols[name].append(art.get(name, ""))
            if self.with_outlinks:
                outlinks.append(art.get("outlinks", []))

        arrays = {name: pa.array(cols[name], type=typ)
                  for name, typ in ARTICLE_FIELDS}
        out = pa.table(arrays)
        if self.with_outlinks:
            out = out.append_column("outlinks", pa.array(outlinks, _LIST_STR))
        # zero-copy passthrough of every input column the kernel didn't
        # produce (the reference's `additional_data` free-dict semantics,
        # article.py:176 / SURVEY §2.10): user columns ride along
        # untouched. `html` is dropped (consumed); an input `text`/`title`
        # etc. is superseded by the extracted column of the same name.
        for keep in batch.column_names:
            if keep != "html" and keep not in out.column_names:
                out = out.append_column(keep, batch[keep])
        return out
