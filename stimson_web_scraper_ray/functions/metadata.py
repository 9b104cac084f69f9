"""Metadata extraction from the (uncleaned) DOM.

Ports of /root/reference/scraper/content_extractor.py:
get_title (250-389), split_title (366-389), get_authors (74-189),
get_publishing_date (191-248), get_meta_lang (403-426), get_meta_content
(428-441), get_meta_img_url (443-466), get_meta_type/site_name/description/
keywords (468-490), get_meta_data (492-529), get_canonical_link (531-567),
get_img_urls / get_first_img_url (569-589), extract_tags (592-608); video
extraction (video_extractor.py:34-144); meta-refresh (utils.py:111-131).
"""

from __future__ import annotations

import re
from collections import defaultdict
from urllib.parse import urljoin, urlparse, urlunparse

from . import dom
from .dom import Node
from .urlnorm import STRICT_DATE_REGEX, is_url, prepare_url

try:
    from dateutil.parser import parse as _date_parser
except ImportError:  # pragma: no cover
    _date_parser = None

_RE_LANG = re.compile(r"^[A-Za-z]{2}$")
_TITLE_FILTER = re.compile(r"[^一-龥a-zA-Z0-9 ]")
_SPLIT_FILTER = re.compile(r"[^a-zA-Z0-9 ]")
_STRICT_DATE = re.compile(STRICT_DATE_REGEX)
_DIGITS = re.compile(r"\d")
_TAGJUNK = re.compile(r"<[^<]+?>")
_BYLINE_PREFIX = re.compile(r"[bB][yY][:\s]|[fF]rom[:\s]")
_NAME_TOKEN_SPLIT = re.compile(r"[^\w\'\-.]")

VIDEO_PROVIDERS = ["youtube", "youtu.be", "twitch", "vimeo", "dailymotion",
                   "kewego"]
VIDEOS_TAGS = ["iframe", "embed", "object", "video"]


# fast path for the two shapes that dominate real pages (ISO-8601 metas
# and yyyy/mm/dd url-path dates, which the URL date regex cuts with their
# trailing '/'): dateutil.parser.parse costs ~0.17 ms per
# call — 12% of the whole extraction kernel — while these parse with one
# compiled regex. Anything the regex doesn't accept (or that builds an
# invalid date) falls through to dateutil, so behaviour is identical by
# construction; tests/test_nlp_and_misc.py cross-checks the fast path
# against dateutil over the accepted grammar.
_FAST_DATE = re.compile(
    r"\s*(\d{4})[-/](\d{1,2})[-/](\d{1,2})"
    r"(?:/|[Tt ](\d{2}):(\d{2})(?::(\d{2})(?:\.(\d{1,6}))?)?"
    r"(Z|z|[+-]\d{2}:?\d{2})?)?\s*$")


def _fast_parse_date(m):
    import datetime as _dt

    y, mo, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not (1 <= mo <= 12 and 1 <= d <= 31):
        return None                      # dateutil would day/month-swap
    hh = int(m.group(4) or 0)
    mi = int(m.group(5) or 0)
    ss = int(m.group(6) or 0)
    us = int((m.group(7) or "0").ljust(6, "0")) if m.group(7) else 0
    tz = None
    tzs = m.group(8)
    if tzs:
        if tzs in ("Z", "z"):
            tz = _dt.timezone.utc
        else:
            sign = 1 if tzs[0] == "+" else -1
            tzh, tzm = int(tzs[1:3]), int(tzs[-2:])
            tz = _dt.timezone(sign * _dt.timedelta(hours=tzh, minutes=tzm))
    return _dt.datetime(y, mo, d, hh, mi, ss, us, tzinfo=tz)


def parse_date_str(date_str):
    """utils.py:297-304."""
    if date_str and _date_parser is not None:
        if isinstance(date_str, str):
            m = _FAST_DATE.match(date_str)
            if m:
                try:
                    dt = _fast_parse_date(m)
                    if dt is not None:
                        return dt
                except ValueError:
                    pass                 # e.g. Feb 30 — let dateutil rule
        try:
            return _date_parser(date_str)
        except (ValueError, OverflowError, AttributeError, TypeError):
            return None
    return None


def get_meta_content(doc: Node, tag: str, attr: str, value: str) -> str:
    """Exact-match meta lookup, first element's ``content`` attr, stripped
    (content_extractor.py:428-441)."""
    metas = dom.css_attr_select(doc, tag, attr, value)
    if metas:
        content = metas[0].attrib.get("content")
        if content:
            return content.strip()
    return ""


def get_title(doc: Node) -> str:
    """content_extractor.py:250-364 — rule-for-rule."""
    title_elems = dom.get_elements_by_tag(doc, tag="title")
    if not title_elems:
        return ""
    title_text = dom.get_text(title_elems[0])
    used_delimeter = False

    # h1 candidate: longest h1 text, >2 words, double spaces collapsed
    h1_texts = [dom.get_text(t) for t in dom.get_elements_by_tag(doc, tag="h1")]
    title_text_h1 = ""
    if h1_texts:
        h1_texts.sort(key=len, reverse=True)
        title_text_h1 = h1_texts[0]
        if len(title_text_h1.split(" ")) <= 2:
            title_text_h1 = ""
        title_text_h1 = " ".join(x for x in title_text_h1.split() if x)

    title_text_fb = (get_meta_content(doc, "meta", "property", "og:title")
                     or get_meta_content(doc, "meta", "name", "og:title") or "")

    filt = lambda s: _TITLE_FILTER.sub("", s).lower()
    f_title, f_h1, f_fb = filt(title_text), filt(title_text_h1), filt(title_text_fb)

    if title_text_h1 == title_text:
        used_delimeter = True
    elif f_h1 and f_h1 == f_fb:
        title_text = title_text_h1
        used_delimeter = True
    elif f_h1 and f_h1 in f_title and f_fb and f_fb in f_title \
            and len(title_text_h1) > len(title_text_fb):
        title_text = title_text_h1
        used_delimeter = True
    elif f_fb and f_fb != f_title and f_title.startswith(f_fb):
        title_text = title_text_fb
        used_delimeter = True

    for delim, splitter in (("|", re.compile(r"\|")),
                            ("-", re.compile(" - ")),
                            ("_", re.compile("_")),
                            ("/", re.compile("/")),
                            (" » ", re.compile(" » "))):
        if not used_delimeter and delim in title_text:
            title_text = split_title(title_text, splitter, title_text_h1)
            used_delimeter = True

    title = title_text.replace("&#65533;", "")

    # prefer h1 when the final title filters to the same string
    if f_h1 and f_h1 == filt(title):
        title = title_text_h1
    return title


def split_title(title: str, splitter: re.Pattern, hint: str | None = None) -> str:
    """content_extractor.py:366-389."""
    large_len, large_idx = 0, 0
    pieces = splitter.split(title) if title else []
    if hint:
        hint = _SPLIT_FILTER.sub("", hint).lower()
    for i, piece in enumerate(pieces):
        current = piece.strip()
        if hint and hint in _SPLIT_FILTER.sub("", current).lower():
            large_idx = i
            break
        if len(current) > large_len:
            large_len, large_idx = len(current), i
    return pieces[large_idx].replace("&raquo;", "»").strip()


def _parse_byline(search_str: str) -> list[str]:
    """content_extractor.py:102-145."""
    search_str = _TAGJUNK.sub("", search_str)
    search_str = _BYLINE_PREFIX.sub("", search_str)
    search_str = search_str.strip()
    name_tokens = [s.strip() for s in _NAME_TOKEN_SPLIT.split(search_str)]
    authors, curname = [], []
    delimiters = ("and", ",", "")
    for token in name_tokens:
        if token in delimiters:
            if curname:
                authors.append(" ".join(curname))
                curname = []
        elif not _DIGITS.search(token):
            curname.append(token)
    if len(curname) >= 2:
        authors.append(" ".join(curname))
    return authors


def get_authors(doc: Node) -> list[str]:
    """content_extractor.py:74-179 — attr×val sweep, byline parse,
    URL-valued author drop, case-insensitive order-preserving dedup with
    ``str.title()``."""
    ATTRS = ["property", "name", "rel", "itemprop", "class", "id"]
    VALS = ["article:author", "article:author_name", "parsely-author",
            "sailthru.author", "citation_author", "author", "byline",
            "dc.creator", "byl"]
    TAGS = ("meta", "div", "iframe", "a", "span", "section")

    # single tree walk instead of 54 full scans: bucket matching nodes per
    # (attr, val), then replay in the reference's attr-major order so the
    # resulting match order is identical (content_extractor.py:156-162)
    attr_index = {attr: ai for ai, attr in enumerate(ATTRS)}
    buckets: dict[tuple[int, int], list[Node]] = {}
    for node in dom._tagged(doc, None):
        for attr, av in node.attrib.items():
            ai = attr_index.get(attr)
            if ai is None:
                continue
            avl = av.lower()
            for vi, val in enumerate(VALS):
                if val in avl:
                    buckets.setdefault((ai, vi), []).append(node)
    matches: list[Node] = []
    seen_ids = set()
    for ai in range(len(ATTRS)):
        for vi in range(len(VALS)):
            for element in buckets.get((ai, vi), ()):
                # NB the root may legitimately match (parser.py:131-134 only
                # drops the root when a tag selector was given)
                if id(element) not in seen_ids:
                    seen_ids.add(id(element))
                    matches.append(element)

    authors: list[str] = []
    for match in matches:
        content = ""
        if match.tag in TAGS:
            mm = [match.attrib["content"]] if "content" in match.attrib else []
            mm = [m for m in mm if not is_url(str(m))]
            if not mm:
                mm = str(match.text_content()).split()
            if mm:
                content = mm[0]
        else:
            content = match.text_content() or ""
        if content:
            authors.extend(_parse_byline(content))

    seen, result = {}, []
    for item in authors:
        if item.lower() in seen:
            continue
        seen[item.lower()] = 1
        result.append(item.title())
    return result


PUBLISH_DATE_TAGS = [
    ("property", "rnews:datePublished", "content"),
    ("property", "article:published_time", "content"),
    ("name", "OriginalPublicationDate", "content"),
    ("itemprop", "datePublished", "datetime"),
    ("property", "og:published_time", "content"),
    ("name", "article_date_original", "content"),
    ("name", "publication_date", "content"),
    ("name", "sailthru.date", "content"),
    ("name", "PublishDate", "content"),
    ("pubdate", "pubdate", "datetime"),
    ("name", "publish_date", "content"),
    ("name", "cXenseParse:recs:publishtime", "content"),
]
# attr -> [(priority, lower-cased value)] for the case-insensitive
# substring match
_PUBLISH_DATE_BY_ATTR = {
    attr: [(ti, value.lower())
           for ti, (a, value, _c) in enumerate(PUBLISH_DATE_TAGS) if a == attr]
    for attr, _v, _c in PUBLISH_DATE_TAGS}


def get_publishing_date(url: str, doc: Node):
    """content_extractor.py:191-248 — URL date regex first, then known meta
    tags in priority order. Returns datetime or None."""
    date_match = _STRICT_DATE.search(url)
    if date_match:
        dt = parse_date_str(date_match.group(0))
        if dt:
            return dt
    # one tree walk, first-match per (attr, value) — replayed in priority
    # order below (semantics of the 12 sequential scans, minus 11 walks)
    first_hits: dict[int, Node] = {}
    for node in dom._tagged(doc, None):
        for attr, av in node.attrib.items():
            wanted = _PUBLISH_DATE_BY_ATTR.get(attr)
            if wanted is None:
                continue
            avl = av.lower()
            for ti, value in wanted:
                if ti not in first_hits and value in avl:
                    first_hits[ti] = node
    for ti, (attr, value, content_attr) in enumerate(PUBLISH_DATE_TAGS):
        node = first_hits.get(ti)
        if node is not None:
            dt = parse_date_str(node.attrib.get(content_attr))
            if dt:
                return dt
    return None


def get_meta_lang(doc: Node) -> str | None:
    """content_extractor.py:403-426."""
    attr = doc.attrib.get("lang")
    if attr is None:
        for tag_attr, value in (("http-equiv", "content-language"),
                                ("name", "lang")):
            metas = dom.get_elements_by_tag(doc, tag="meta", attr=tag_attr,
                                            value=value)
            if metas:
                attr = metas[0].attrib.get("content")
                break
    if attr:
        value = attr[:2]
        if _RE_LANG.search(value):
            return value.lower()
    return None


def get_favicon(doc: Node) -> str:
    # content_extractor.py:391-401 (attr contains 'icon')
    metas = dom.get_elements_by_tag(doc, tag="link", attr="rel", value="icon")
    if metas:
        return metas[0].attrib.get("href") or ""
    return ""


def get_meta_type(doc: Node) -> str:
    return get_meta_content(doc, "meta", "property", "og:type")


def get_meta_site_name(doc: Node) -> str:
    return get_meta_content(doc, "meta", "property", "og:site_name")


def get_meta_description(doc: Node) -> str:
    # content_extractor.py:478-485 — the longer of name= / property=
    by_name = get_meta_content(doc, "meta", "name", "description")
    by_prop = get_meta_content(doc, "meta", "property", "description")
    return by_name if len(by_name) > len(by_prop) else by_prop


def get_meta_keywords(doc: Node) -> str:
    return get_meta_content(doc, "meta", "name", "keywords")


def get_meta_img_url(article_url: str, doc: Node) -> str:
    """content_extractor.py:443-466 — og:image, link[rel~=img_src|image_src],
    meta[name=og:image], link[rel icon] chain."""
    try_one = get_meta_content(doc, "meta", "property", "og:image")
    try_two = try_three = try_four = None
    if not try_one:
        elems = dom.get_elements_by_tag(doc, tag="link", attr="rel",
                                        value="img_src|image_src", use_regex=True)
        try_two = elems[0].get("href") if elems else None
        if not try_two:
            try_three = get_meta_content(doc, "meta", "name", "og:image")
            if not try_three:
                elems = dom.get_elements_by_tag(doc, tag="link", attr="rel",
                                                value="icon")
                try_four = elems[0].get("href") if elems else None
    top = try_one or try_two or try_three or try_four
    return urljoin(article_url, top) if top else ""


def get_meta_data(doc: Node) -> dict:
    """All <meta> → nested dict with ':'-split keys, digits → int
    (content_extractor.py:492-529)."""
    data = defaultdict(dict)
    for prop in dom.get_elements_by_tag(doc, tag="meta"):
        key = prop.attrib.get("property") or prop.attrib.get("name")
        value = prop.attrib.get("content") or prop.attrib.get("value")
        if not key or not value:
            continue
        key, value = key.strip(), value.strip()
        if value.isdigit():
            value = int(value)
        if ":" not in key:
            data[key] = value
            continue
        parts = key.split(":")
        key_head = parts.pop(0)
        ref = data[key_head]
        if isinstance(ref, (str, int)):
            data[key_head] = {key_head: ref}
            ref = data[key_head]
        for idx, part in enumerate(parts):
            if idx == len(parts) - 1:
                ref[part] = value
                break
            if not ref.get(part):
                ref[part] = dict()
            elif isinstance(ref.get(part), (str, int)):
                ref[part] = {"identifier": ref[part]}
            ref = ref[part]
    return dict(data)


def get_canonical_link(article_url: str, doc: Node) -> str:
    """content_extractor.py:531-567."""
    links = dom.get_elements_by_tag(doc, tag="link", attr="rel",
                                    value="canonical")
    canonical = links[0].attrib.get("href", "") if links else ""
    og_url = get_meta_content(doc, "meta", "property", "og:url")
    meta_url = canonical or og_url or ""
    if meta_url:
        meta_url = meta_url.strip()
        parsed_meta = urlparse(meta_url)
        if not parsed_meta.hostname:
            parsed_article = urlparse(article_url)
            m = re.match(r".*{}(?=/)/(.*)".format(parsed_article.hostname),
                         parsed_meta.path)
            true_path = m.group(1) if m else parsed_meta.path
            meta_url = urlunparse((parsed_article.scheme,
                                   parsed_article.hostname, true_path,
                                   "", "", ""))
    return prepare_url(meta_url)


def get_img_urls(article_url: str, doc: Node) -> set[str]:
    """content_extractor.py:569-578."""
    srcs = [img.attrib.get("src")
            for img in dom.get_elements_by_tag(doc, tag="img")
            if img.attrib.get("src")]
    return {urljoin(article_url, u) for u in srcs}


def get_first_img_url(article_url: str, top_node: Node) -> str:
    # content_extractor.py:580-589 (set order — matches reference's
    # arbitrary-set-order quirk by sorting for determinism instead)
    node_images = sorted(get_img_urls(article_url, top_node))
    return urljoin(article_url, node_images[0]) if node_images else ""


def extract_tags(doc: Node) -> set[str]:
    """content_extractor.py:592-608 — a[rel=tag], else href-pattern
    selectors."""
    if len(doc.getchildren()) == 0:
        return set()
    elements = [a for a in dom.get_elements_by_tag(doc, tag="a")
                if a.attrib.get("rel") == "tag"]
    if not elements:
        elements = [a for a in dom.get_elements_by_tag(doc, tag="a")
                    if any(pat in (a.attrib.get("href") or "")
                           for pat in ("/tag/", "/tags/", "/topic/",
                                       "?keyword="))]
        if not elements:
            return set()
    return {t for t in (dom.get_text(el) for el in elements) if t}


def get_videos(top_node: Node) -> list[str]:
    """video_extractor.py:34-144 condensed to the src-url outputs consumed by
    Article.set_movies (article.py:movies = prepare_url(o.src))."""
    movies = []
    candidates = dom.get_elements_by_tags(top_node, VIDEOS_TAGS)
    candidate_set = set(map(id, candidates))
    for node in candidates:
        if id(node) not in candidate_set:
            continue
        tag = node.tag
        src = node.attrib.get("src")
        provider = next((p for p in VIDEO_PROVIDERS if src and p in src), None)
        if tag == "video":
            continue  # get_video_tag returns an empty Video (no provider)
        if tag == "embed":
            parent = node.getparent()
            if parent is not None and parent.tag == "object":
                continue  # handled via the object node
        if tag == "object":
            embeds = dom.get_elements_by_tag(node, tag="embed")
            for e in embeds:
                candidate_set.discard(id(e))
            params = [p for p in dom.get_elements_by_tag(node, tag="param")
                      if (p.attrib.get("name") or "").lower() == "movie"]
            if not params:
                continue
            src = params[0].attrib.get("value")
            provider = next((p for p in VIDEO_PROVIDERS if src and p in src),
                            None)
            if not provider:
                continue
        if provider and src:
            movies.append(src)
    return movies


def extract_meta_refresh(html_text: str) -> str | None:
    """utils.py:111-131 — <meta http-equiv=refresh content="0;URL=...">."""
    doc = dom.fromstring(html_text)
    for el in dom.get_elements_by_tag(doc, tag="meta"):
        if (el.attrib.get("http-equiv") or "").lower() == "refresh":
            content = el.attrib.get("content", "")
            try:
                _wait, url_part = content.split(";")
            except ValueError:
                return None
            if url_part.lower().startswith("url="):
                return url_part[4:].replace('"', "").replace("'", "")
    return None
