"""Fine-grained parity tests for quirky reference semantics: title rules,
byline parsing, cleaner kill-list lookarounds, formatter negative-gravity
sweep, language tokenizer variants, config plumb-through, host salting,
robots/politeness accounting."""

import numpy as np
import pyarrow as pa
import pytest

from stimson_web_scraper_ray.config import EngineConfig
from stimson_web_scraper_ray.functions import dom, metadata, stopwords
from stimson_web_scraper_ray.functions.cleaner import DocumentCleaner
from stimson_web_scraper_ray.functions.extract import extract_article, fulltext
from stimson_web_scraper_ray.stages.fetch import RobotsPolicy
from stimson_web_scraper_ray.stages.url_stage import salt_hosts


# --- title rules (content_extractor.py:250-389) ---------------------------

def _title(html):
    return metadata.get_title(dom.fromstring(html))


def test_title_rule1_title_equals_h1():
    html = ("<html><head><title>Exact Same Headline Here</title></head>"
            "<body><h1>Exact Same Headline Here</h1></body></html>")
    assert _title(html) == "Exact Same Headline Here"


def test_title_rule2_h1_similar_to_og():
    html = ("<html><head><title>Site | Something Long Else</title>"
            '<meta property="og:title" content="THE REAL HEADLINE NOW">'
            "</head><body><h1>The Real Headline Now!</h1></body></html>")
    # filtered h1 == filtered og → use h1 verbatim
    assert _title(html) == "The Real Headline Now!"


def test_title_rule4_title_starts_with_og():
    html = ("<html><head><title>Real Headline - Extra Site Suffix</title>"
            '<meta property="og:title" content="Real Headline">'
            "</head><body></body></html>")
    assert _title(html) == "Real Headline"


def test_title_dash_split_prefers_longest():
    html = ("<html><head><title>CNN - The Much Longer Piece Of The Title"
            "</title></head><body></body></html>")
    assert _title(html) == "The Much Longer Piece Of The Title"


def test_title_underscore_and_arrows():
    assert _title("<html><head><title>Short_The Longer Half Here</title>"
                  "</head></html>") == "The Longer Half Here"
    assert _title("<html><head><title>Long Piece Goes Here » site</title>"
                  "</head></html>") == "Long Piece Goes Here"


# --- authors (content_extractor.py:74-189) --------------------------------

def test_parse_byline_actual_semantics():
    # NB the reference docstring (content_extractor.py:102-107) claims
    # ['Lucas Ou-Yang', 'Alex Smith'], but its own code consumes the comma
    # as a split delimiter so no flush happens — the real output is one
    # joined name. We reproduce the CODE, not the stale docstring.
    assert metadata._parse_byline(
        "<div>By: <strong>Lucas Ou-Yang</strong>,<strong>Alex Smith"
        "</strong></div>") == ["Lucas Ou-Yang Alex Smith"]
    # separators that do flush: 'and' and empty tokens (double delimiters)
    assert metadata._parse_byline("By Jane Doe and John Q. Smith") == \
        ["Jane Doe", "John Q. Smith"]


def test_div_byline_first_token_quirk():
    # for div/span/section matches the reference takes only the FIRST
    # whitespace token of text_content (content_extractor.py:165-173) —
    # "By:" parses to no names; faithful quirk, not a bug
    html = ('<html><body><div class="byline">By: Lucas Ou-Yang, Alex Smith'
            "</div></body></html>")
    assert metadata.get_authors(dom.fromstring(html)) == []


def test_authors_dedup_case_insensitive_title_cased():
    html = ('<html><head><meta name="author" content="jane doe">'
            '<meta property="article:author" content="JANE DOE"></head>'
            "</html>")
    assert metadata.get_authors(dom.fromstring(html)) == ["Jane Doe"]


def test_author_url_valued_falls_through():
    html = ('<html><head><meta property="article:author" '
            'content="http://facebook.com/jane"></head></html>')
    # URL content dropped; no text_content fallback yields names
    assert metadata.get_authors(dom.fromstring(html)) == []


def test_author_fallback_to_domain():
    art = extract_article("<html><body><p>x</p></body></html>",
                          url="http://www.cnn.com/2014/01/02/a/b.html")
    assert art["authors"] == ["cnn"]


# --- cleaner kill-list subtleties (document_cleaner.py:26-42) -------------

def _clean_text(html):
    return fulltext(html)


PARAS = ("<p>One of the many things that we all know about the world is "
         "that it keeps on turning for all of us every day of the year.</p>"
         "<p>Another of the many things that we know is that the sun will "
         "come up in the morning for all of the people of the world.</p>"
         "<p>A third of the things we know is that the rain falls down on "
         "all of the people there at some point of the day or night.</p>")


def test_kill_list_spares_subscriber_hider():
    # subscribe(?!r-hider|-truncate): 'subscribe' killed, 'subscriber-hider' spared
    html = (f"<html><body><div>{PARAS}"
            '<div class="subscribe"><p>Kill this subscribe box now ok</p></div>'
            '<div class="subscriber-hider"><p>Keep all of the words of this '
            "one because they are of the story and we want them here</p></div>"
            "<p>Trailing paragraph with all of the usual words of the story "
            "so the trailing-media rule has a shallow last child here.</p>"
            "</div></body></html>")
    text = _clean_text(html)
    assert "Kill this subscribe box" not in text
    assert "Keep all of the words" in text


def test_kill_list_spares_articlebody_itemprop():
    html = ('<html><body><div class="sponsor" itemprop="articleBody">'
            f"{PARAS}</div></body></html>")
    assert "One of the many things" in _clean_text(html)


def test_kill_list_date_lookahead():
    html = (f"<html><body><div>{PARAS}"
            '<div class="date"><p>Kill the floating date box here now</p></div>'
            '<div class="dateline-storybody"><p>Keep all of these words of '
            "the dateline because they are part of the story body here</p>"
            "</div>"
            "<p>Trailing paragraph with all of the usual words of the story "
            "so the trailing-media rule has a shallow last child here.</p>"
            "</div></body></html>")
    text = _clean_text(html)
    assert "Kill the floating date box" not in text
    assert "Keep all of these words" in text


def test_additional_remove_nodes_re_config():
    cfg = EngineConfig(additional_remove_nodes_re="customkill")
    html = (f"<html><body><div>{PARAS}"
            '<div class="customkill"><p>Begone all of this text now ok and '
            "also all of these other words of it too</p></div>"
            "<p>Trailing paragraph with all of the usual words of the story "
            "so the trailing-media rule has a shallow last child here.</p>"
            "</div></body></html>")
    art = extract_article(html, url="http://x.co/a/b", config=cfg)
    assert "Begone" not in art["text"]
    # same html without the extra pattern keeps it
    art2 = extract_article(html, url="http://x.co/a/b")
    assert "Begone" in art2["text"]


# --- formatter: negative-gravity sweep (output_formatter.py:103-113) ------

def test_negative_gravity_nodes_removed():
    cleaner = DocumentCleaner()
    doc = dom.fromstring(f"<html><body><div>{PARAS}</div></body></html>")
    cleaner.clean(doc)
    from stimson_web_scraper_ray.functions.formatter import OutputFormatter
    from stimson_web_scraper_ray.functions.scoring import BestNodeScorer

    scorer = BestNodeScorer("en")
    top = scorer.calculate_best_node(doc, "")
    # plant a negative-scored child
    bad = dom.Node("div", attrib={"gravityScore": "-5"}, text="loser text")
    top.append(bad)
    text = OutputFormatter("en").get_formatted(top)
    assert "loser text" not in text


# --- stopword tokenizer variants (text.py:102-223) ------------------------

def test_korean_suffix_matching():
    ko = stopwords.StopWordsKorean()
    # suffix match: any word ending in a stopword counts
    ko.STOP_WORDS = frozenset(["는"])
    ws = ko.get_stopword_count("그는 집에 간다")
    assert ws.get_stopword_count() == 1   # 그는 ends with 는


def test_chinese_full_mode_segmentation():
    """jieba cut_all semantics over the bundled lexicon (text.py:110-114):
    multi-char function words count once; chars covered by a word are not
    re-emitted; chars outside any word fall back to singles; overlapping
    dictionary words are ALL emitted (full mode)."""
    zh = stopwords.StopWordsChinese()
    # 这里 is a lexicon word -> 我 的 书 在 这里 (5 tokens, not 6 chars)
    ws = zh.get_stopword_count("我的书在这里")
    assert ws.get_word_count() == 5
    assert ws.get_stopword_count() >= 3   # 我 的 在 这里
    # overlapping words both emitted, like jieba's cut_all
    toks = zh.candidate_words("为什么没有人")
    assert "为什么" in toks and "什么" in toks and "没有" in toks
    assert "人" in toks          # uncovered char falls back to single
    assert "为" not in toks      # covered by 为什么, never re-emitted
    # pure open-class text (not in lexicon) degrades to per-character
    assert zh.candidate_words("书桌椅") == ["书", "桌", "椅"]


def test_arabic_keeps_punctuation():
    ar = stopwords.StopWordsArabic()
    assert ar.remove_punctuation("a,b") == "a,b"


# --- host salting (north rule) --------------------------------------------

def test_salt_hosts_spreads_heavy_host():
    hosts = ["heavy.com"] * 100 + ["light.com"] * 5
    hashes = np.arange(105, dtype=np.uint64)
    batch = pa.table({"host": pa.array(hosts),
                      "url_hash": pa.array(hashes, pa.uint64())})
    out = salt_hosts(batch, {"heavy.com": 100}, salt_buckets=8)
    keys = out["part_key"].to_pylist()
    heavy_keys = set(keys[:100])
    light_keys = set(keys[100:])
    assert len(heavy_keys) == 8           # heavy host split into 8 buckets
    assert len(light_keys) == 1           # light host stays on one key
    # deterministic across calls (no builtin hash())
    out2 = salt_hosts(batch, {"heavy.com": 100}, salt_buckets=8)
    assert keys == out2["part_key"].to_pylist()


# --- robots policy --------------------------------------------------------

def test_robots_policy_cache_and_rules():
    rp = RobotsPolicy()
    assert rp.allowed("a.com", "/story/x")
    assert not rp.allowed("a.com", "/private/x")
    assert not rp.allowed("a.com", "/admin/x")
    rp.allowed("a.com", "/other")
    assert rp.fetches == 1                # robots fetched once per host
    rp.allowed("b.com", "/x")
    assert rp.fetches == 2


# --- workflow lineage (article.py:46-50, 765-777) -------------------------

def test_workflow_states():
    art = extract_article("<html><body><p>tiny</p></body></html>",
                          url="http://x.co/a/b")
    assert art["workflow"] == ["INIT", "DOWNLOADED", "PARSED"]
    art_err = extract_article(12345, url="http://x.co/a/b")  # bad payload type
    assert art_err["workflow"][-1] != "PARSED" or art_err["status"] != "ok"


# --- top-image selection (O4, image_extractor.py:183-224) ------------------

def test_select_top_image():
    from stimson_web_scraper_ray.functions.images import select_top_image

    cands = [
        ("http://x.co/logo.png", 400, 400),        # logo → area/10
        ("http://x.co/hero.jpg", 300, 200),        # best real image
        ("http://x.co/banner.jpg", 900, 100),      # ratio 9 → rejected
        ("http://x.co/tiny.jpg", 20, 20),          # under min width
    ]
    assert select_top_image(cands) == "http://x.co/hero.jpg"
    assert select_top_image([]) == ""
    # logo penalty: sprite only wins if 10x larger
    assert select_top_image([("http://x.co/sprite.png", 1000, 1000),
                             ("http://x.co/photo.jpg", 400, 200)]) == \
        "http://x.co/sprite.png"


def test_fast_tokenizer_tree_identical_to_stdlib():
    """The fast scanner (dom._fast_feed) must build byte-identical trees
    to the stdlib HTMLParser drive loop on the whole fixture corpus —
    it reuses the stdlib's tolerant regexes, so any divergence is a bug."""
    import glob

    from stimson_web_scraper_ray.functions import dom

    def build(raw, fast):
        html = dom.decode_html(raw)
        if html.startswith("<?"):
            html = dom._XML_PROLOG_RE.sub("", html)
        b = dom._TreeBuilder()
        if fast:
            dom._fast_feed(html, b)
        else:
            b.feed(html)
            b.close()
        return b.root

    def tree_eq(a, b):
        if a.tag != b.tag or a.attrib != b.attrib \
                or (a.text or "") != (b.text or "") \
                or (a.tail or "") != (b.tail or ""):
            return False
        ac, bc = a.getchildren(), b.getchildren()
        return len(ac) == len(bc) and all(
            tree_eq(x, y) for x, y in zip(ac, bc))

    files = sorted(glob.glob("/root/reference/tests/fixtures/html/*.html"))
    assert len(files) > 100
    for f in files:
        raw = open(f, "rb").read()
        assert tree_eq(build(raw, False), build(raw, True)), f


def test_fast_tokenizer_bare_charref_resumes():
    """A bare '&#' that is not a valid charref must not flush the rest of
    the document as raw data: stdlib feed()+close() consumes the '&#' and
    re-enters goahead once, so markup after it is still parsed.  The fast
    scanner must match stdlib event-for-event on these adversarial shapes
    (advisor-reported bug: the old break dumped the tail)."""
    from stimson_web_scraper_ray.functions import dom

    def build(html, fast):
        b = dom._TreeBuilder()
        if fast:
            dom._fast_feed(html, b)
        else:
            b.feed(html)
            b.close()
        return b.root

    def tree_eq(a, b):
        if a.tag != b.tag or a.attrib != b.attrib \
                or (a.text or "") != (b.text or "") \
                or (a.tail or "") != (b.tail or ""):
            return False
        ac, bc = a.getchildren(), b.getchildren()
        return len(ac) == len(bc) and all(
            tree_eq(x, y) for x, y in zip(ac, bc))

    cases = [
        "&#<div>hello</div>; tail",                      # the repro
        "<p>pre</p>&#<div>a</div>; <b>x</b>;",
        "&#<div>a</div>; &#<span>b</span>; more",        # two bare &# — one resume
        "pre &# mid; <p>x</p> &# end; <b>y</b>;",
        "a&# ;b&# ;c&# ;d",                              # three bare &#
        "&#nodiv no semicolon <div>z</div>",             # no ';' → tail is data
        "&#x<div>hex-ish</div>;",
        "&am",                                           # incomplete entityref at EOF
        "&a",
        "&x <div>q</div>",
        "&#65;ok<div>v</div>&#",                         # valid charref then bare at EOF
        "<div>t</div>&#;",                               # '&#' immediately before ';'
    ]
    for html in cases:
        assert tree_eq(build(html, False), build(html, True)), repr(html)
    # sanity: the repro actually keeps the div now
    root = build("&#<div>hello</div>; tail", True)
    assert any(nd.tag == "div" for nd in root.iter())


def _tokenizer_events(html, fast):
    """Coalesced handler events of the fast scanner (fast=True) or of
    stdlib feed()+close() (fast=False). Consecutive data events are
    joined: stdlib may emit data in different chunkings."""
    from stimson_web_scraper_ray.functions import dom

    ev = []

    class Rec(dom._TreeBuilder):
        def handle_starttag(self, t, a):
            ev.append(("st", t, tuple(a)))
            super().handle_starttag(t, a)

        def handle_startendtag(self, t, a):
            ev.append(("se", t, tuple(a)))
            super().handle_startendtag(t, a)

        def handle_endtag(self, t):
            ev.append(("et", t))
            super().handle_endtag(t)

        def handle_data(self, d):
            if ev and ev[-1][0] == "d":
                ev[-1] = ("d", ev[-1][1] + d)
            else:
                ev.append(("d", d))
            super().handle_data(d)

        def handle_charref(self, n):
            ev.append(("cr", n))
            super().handle_charref(n)

        def handle_entityref(self, n):
            ev.append(("er", n))
            super().handle_entityref(n)

        def handle_comment(self, d):
            ev.append(("c", d))
            super().handle_comment(d)

    b = Rec()
    if fast:
        dom._fast_feed(html, b)
    else:
        b.feed(html)
        b.close()
    return ev


def test_fast_tokenizer_charref_fuzz():
    """Randomized differential fuzz of the bail-out paths: fragments mixing
    bare '&#', entities, tags and semicolons must parse identically in the
    fast scanner and stdlib feed()+close()."""
    import random

    rng = random.Random(1234)
    atoms = ["&#", "&", ";", "&#65;", "&amp;", "&am", "<div>", "</div>",
             "<p>", "</p>", "x", " ", "&#x41;", "<!--c-->", "<", ">",
             "&#12", "&z;", "tail"]
    for _ in range(300):
        html = "".join(rng.choice(atoms)
                       for _ in range(rng.randint(1, 12)))
        assert _tokenizer_events(html, True) == \
            _tokenizer_events(html, False), repr(html)


def test_fast_tokenizer_starttag_fuzz():
    """Randomized differential fuzz of start-tag shapes: every input must
    give the same event stream in the fast scanner and stdlib
    feed()+close()."""
    import random

    rng = random.Random(4321)
    atoms = [
        '<a href="x>y">', "<a title='1>2' id=q>", '<b c=">">',   # quoted >
        "<div class=c id=d>", "<a href=/x?a=1&b=2>", "<i x=y/>",  # unquoted
        "<br/>", "<img src=x />", "<hr />", "<p/>",              # />
        "<P CLASS=Up>", "<p class=up>", "<DIV ID='Q'>", "<Img SRC=x>",
        "<img src=X>",                                          # uppercase
        '<a b="1" b="2">', "<a x=1 X=2 x=3>",                    # duplicates
        '<a title="x &amp; y">', "<a t=&amp;>", "<a t='&lt;&#62;'>",  # &amp;
        "<input disabled>", "<a b=>", "<a =b>", "<a b = 'c' >",
        "<script>s</script>", "<a", "<a ", "<a href",            # cut tags
        "</a>", "</div>", "</p>", "text", " ", ">", "/>", "&amp;", "<",
    ]
    for _ in range(400):
        html = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 10)))
        if rng.random() < 0.25:
            html += rng.choice(("<a", "<a ", "<a b", '<a b="c'))  # <a at EOF
        assert _tokenizer_events(html, True) == \
            _tokenizer_events(html, False), repr(html)


def test_calculate_area_reference_gates():
    """image_extractor.py:199-224 gate order with the reference's own
    constants (minimal_area 5000, thumbnail width 90, ratio 16/9,
    sprite/logo penalty /10)."""
    from stimson_web_scraper_ray.functions.images import calculate_area

    assert calculate_area("u", None) == 0.0
    assert calculate_area("u", (100, 40)) == 0.0       # area 4000 < 5000
    assert calculate_area("u", (80, 80)) == 0.0        # width < 90
    assert calculate_area("u", (200, 100)) == 0.0      # ratio 2 > 16/9
    assert calculate_area("u", (160, 90)) == 160 * 90  # 1.78 <= 16/9 ok
    assert calculate_area("a/sprite.png", (160, 90)) == 160 * 90 / 10
    assert calculate_area("a/logo-x.jpg", (160, 90)) == 160 * 90 / 10


def test_square_image_entropy_crop():
    """image_extractor.py:60-77: strips of <=10px are cut from the
    LOWER-entropy end until the image is square."""
    import numpy as np

    from stimson_web_scraper_ray.functions.images import (
        image_entropy,
        square_image,
    )

    rng = np.random.default_rng(7)
    # 60 wide x 100 tall: noisy (high-entropy) top half, flat bottom half
    top = rng.integers(0, 256, size=(50, 60), dtype=np.uint8)
    bottom = np.zeros((50, 60), dtype=np.uint8)
    img = np.vstack([top, bottom])
    sq = square_image(img)
    assert sq.shape == (60, 60)
    # the noisy rows survive: the result keeps the top 50 noisy rows
    assert np.array_equal(sq[:50], top)
    # entropy sanity: uniform histogram maxes at 8 bits
    assert abs(image_entropy([1.0] * 256) - 8.0) < 1e-9
    assert image_entropy([5.0] + [0.0] * 255 ) == 0.0


def test_thumbnail_dims_shrink_only():
    from stimson_web_scraper_ray.functions.images import thumbnail_dims

    assert thumbnail_dims(50, 40) == (50, 40)          # no upscale
    assert thumbnail_dims(180, 90) == (90, 45)
    assert thumbnail_dims(90, 180) == (45, 90)
    assert thumbnail_dims(1000, 1000) == (90, 90)


def test_robots_policy_real_parser_semantics():
    """RobotsPolicy goes through urllib.robotparser for real:
    first-match-in-order Allow/Disallow (RFC 9309 reference parser
    semantics — Allow listed first wins), agent-specific groups win over
    '*', and comments/blank lines are ignored."""
    rp = RobotsPolicy.parse_body(
        "User-agent: *\n"
        "# allow the api docs, block the rest of the api\n"
        "Allow: /api/docs/\n"
        "Disallow: /api/\n"
        "\n"
        "User-agent: badbot\n"
        "Disallow: /\n")
    assert not rp.can_fetch("*", "/api/secret")
    assert rp.can_fetch("*", "/api/docs/intro")
    assert rp.can_fetch("*", "/public/x")
    assert not rp.can_fetch("badbot", "/public/x")
