"""Per-page memos and cross-page caches of the extraction kernel.

The scorer memoizes text, stopword counts and link-density verdicts per
node for one page; the tag interner is the one memo kept across pages.
These tests pin that a reused scorer gives exactly what a fresh one
gives, and that the cross-page memo stays bounded.
"""

from __future__ import annotations

import copy
import gc
import sys

from stimson_web_scraper_ray.functions import dom
from stimson_web_scraper_ray.functions.formatter import OutputFormatter
from stimson_web_scraper_ray.functions.scoring import BestNodeScorer

_SIDE = """<div class="side"><p>{w} of the side story {k} that was there for all of us to see it.</p>
<p>Not this one</p></div>
"""
_PAGE = """<html><body>
{sides}<p>{w} is a sibling paragraph and it was one of the ones we had to read.</p>
<div class="main">
<p>{w} said that it was the best of all the things they had seen in a year.</p>
<p>{w} and the others were there when it was over, and they had to go.</p>
<p>{w} was one of the many who had been at the place <a href="/x">{w}</a>.</p>
</div>
</body></html>"""


def _page(word: str) -> str:
    """A page whose top node (div.main) has non-<p> preceding siblings,
    so add_siblings inserts new <p> nodes built from memoized text."""
    sides = "".join(_SIDE.format(w=word, k=k) for k in range(8))
    return _PAGE.format(w=word, sides=sides)


def _gravity(doc) -> list:
    return [(n.tag, n.attrib.get("gravityScore"), n.attrib.get("gravityNodes"))
            for n in doc.iter()]


def _path(node) -> list[int]:
    out = []
    while node.parent is not None:
        out.append(node.parent.index(node))
        node = node.parent
    return out[::-1]


def _extract(scorer: BestNodeScorer, html: str) -> tuple[str, list]:
    doc = dom.fromstring(html)
    top = scorer.calculate_best_node(doc, html)
    gravity = _gravity(doc)
    top = scorer.post_cleanup(top)
    return OutputFormatter().get_formatted(top), gravity


def test_reused_scorer_matches_fresh_across_docs():
    """calculate_best_node -> post_cleanup (where add_siblings inserts
    nodes) with one scorer over many pages equals a fresh scorer per
    page, text and gravity attributes alike."""
    shared = BestNodeScorer("en")
    for i in range(20):
        html = _page(f"Word{i}")
        got = _extract(shared, html)
        assert got == _extract(BestNodeScorer("en"), html), i
        assert f"Word{i} of the side story 7" in got[0]   # siblings added


def test_scorer_memo_holds_its_nodes():
    """A memo keyed by id() would hand a new node the entry of a collected
    node that had the same address. Keyed by the node itself, the memo
    keeps every node it answers for alive, so no address is reused while
    the entry exists; the next page's calculate_best_node lets them go."""
    html = _page("Held")
    doc = dom.fromstring(html)
    paragraphs = [n for n in doc.iter() if n.tag == "p"]
    before = [sys.getrefcount(p) for p in paragraphs]
    scorer = BestNodeScorer("en")
    scorer.calculate_best_node(doc, html)
    held = [sys.getrefcount(p) for p in paragraphs]
    assert all(h > b for h, b in zip(held, before))
    other = _page("Other")
    scorer.calculate_best_node(dom.fromstring(other), other)
    assert [sys.getrefcount(p) for p in paragraphs] == before


def test_scorer_memo_does_not_alias_dead_nodes():
    """post_cleanup on a page the scorer has not scored (its
    calculate_best_node ran on an earlier, since collected, page) must
    read the new page's own text."""
    shared = BestNodeScorer("en")
    for i in range(20):
        _extract(shared, _page(f"Stale{i}"))   # fills the memo, then dies
        gc.collect()
        html = _page(f"Fresh{i}")
        doc_a, doc_b = dom.fromstring(html), dom.fromstring(html)
        top_a = BestNodeScorer("en").calculate_best_node(doc_a, html)
        top_b = BestNodeScorer("en").calculate_best_node(doc_b, html)
        got = OutputFormatter().get_formatted(shared.post_cleanup(top_a))
        want = OutputFormatter().get_formatted(
            BestNodeScorer("en").post_cleanup(top_b))
        assert got == want, i
        assert "Stale" not in got


def test_scorer_memo_resets_per_page():
    """Scoring the same tree again after its text changed must see the new
    text: the memos reset at every calculate_best_node."""
    html = _page("First")
    doc = dom.fromstring(html)
    shared = BestNodeScorer("en")
    shared.calculate_best_node(doc, html)
    # rewrite the text: the side paragraph becomes the only stopword-rich
    # one, the main ones lose their stopwords; drop the old gravity
    for n in doc.iter():
        n.attrib.pop("gravityScore", None)
        n.attrib.pop("gravityNodes", None)
        if n.tag == "p":
            n.text = "alpha beta gamma delta"
    side_p = next(n for n in doc.iter() if n.tag == "p")
    side_p.text = "it was the one that they had to see of all of them in the end"
    twin = copy.deepcopy(doc)
    got = shared.calculate_best_node(doc, html)
    want = BestNodeScorer("en").calculate_best_node(twin, html)
    assert _path(got) == _path(want)
    assert _gravity(doc) == _gravity(twin)
    assert got.attrib.get("class") == "side"


def test_tag_intern_memo_stays_bounded():
    """The tag interner outlives a page and is cleared when full: 6,000
    distinct tag names leave it at or below its cap, tree intact."""
    html = "".join(f"<t{i}>x</t{i}>" for i in range(6000))
    doc = dom.fromstring(html)
    assert len(dom._TAG_MEMO) <= dom._TAG_MEMO_MAX
    assert sum(1 for n in doc.iter() if n.tag.startswith("t")) == 6000
