"""DOM scrubbing before best-node scoring.

Step-for-step port of the reference ``DocumentCleaner``
(/root/reference/scraper/document_cleaner.py:63-83) over the bundled DOM.
The kill-list regex and the step ORDER define the text invariant — do not
reorder. Operates in place on the tree from ``dom.fromstring``.
"""

from __future__ import annotations

import re

from . import dom
from .dom import Node

# document_cleaner.py:26-39 — behavioural data, reproduced verbatim.
REMOVE_NODES_RE = (
    "^side$|combx|retweet|mediaarticlerelated|menucontainer|"
    "navbar|storytopbar-bucket|utility-bar|inline-share-tools"
    "|comment|PopularQuestions|contact|foot|footer|Footer|footnote"
    "|cnn_strycaptiontxt|cnn_html_slideshow|cnn_strylftcntnt"
    "|links|meta$|shoutbox|sponsor"
    "|tags|socialnetworking|socialNetworking|cnnStryHghLght"
    "|cnn_stryspcvbx|^inset$|pagetools|post-attributes"
    "|welcome_form|contentTools2|the_answers"
    "|communitypromo|runaroundLeft|subscribe(?!r-hider|-truncate)|vcard|articleheadings"
    "|date(?!line-storybody)|^print$|popup|author-dropdown|tools|socialtools|byline"
    "|konafilter|KonaFilter|breadcrumbs|^fn$|wp-caption-text"
    "|legende|ajoutVideo|timestamp|js_replies|^ad-box"
)

CAPTION_RE = "^caption$"
GOOGLE_RE = " google "
ENTRIES_RE = "^[^entry-]more.*$"
FACEBOOK_RE = "[^-]facebook"
FACEBOOK_BROADCASTING_RE = "facebook-broadcasting"
TWITTER_RE = "[^-]twitter"

_DIV_TO_P_TAGS = ["a", "blockquote", "dl", "div", "img", "ol", "p", "pre",
                  "table", "ul"]


def _tablines_replace(s: str) -> str:
    """document_cleaner.py:57-60 — literal replacements: newline → double
    newline, tab → '', plus a (literal, hence no-op) '^\\s+$' pattern."""
    if not s:
        return ""
    s = s.replace("\n", "\n\n")
    s = s.replace("\t", "")
    s = s.replace("^\\s+$", "")
    return s


class DocumentCleaner:
    def __init__(self, config=None, additional_remove_nodes_re: str | None = None):
        extra = additional_remove_nodes_re or (
            getattr(config, "additional_remove_nodes_re", None) if config else None
        )
        pattern = REMOVE_NODES_RE + (("|" + extra) if extra else "")
        self.remove_nodes_re = re.compile(pattern, re.IGNORECASE)
        self.caption_re = re.compile(CAPTION_RE, re.IGNORECASE)
        self.google_re = re.compile(GOOGLE_RE, re.IGNORECASE)
        self.entries_re = re.compile(ENTRIES_RE, re.IGNORECASE)
        self.facebook_re = re.compile(FACEBOOK_RE, re.IGNORECASE)
        self.facebook_broadcasting_re = re.compile(FACEBOOK_BROADCASTING_RE,
                                                   re.IGNORECASE)
        self.twitter_re = re.compile(TWITTER_RE, re.IGNORECASE)

    def clean(self, doc: Node) -> Node:
        """document_cleaner.py:63-83 — exact step order."""
        # The first five steps share one bucketed walk. Each selects its
        # nodes from the whole tree, so its selection must not depend on
        # the earlier steps, and it does not: they only pop attributes,
        # splice out an <em>/<span> while keeping its children in document
        # order, or detach <script>/<style>/comment nodes, which hold no
        # element children. No step adds a node or renames a tag.
        with dom.tag_cache():
            self.clean_body_classes(doc)
            self.clean_article_tags(doc)
            self.clean_em_tags(doc)
            self.remove_drop_caps(doc)
            self.remove_scripts_styles(doc)
        self.clean_bad_tags(doc)
        # one walk for the six id/class kill patterns; removal only detaches
        # nodes, so per-pattern sequential scans see the same match sets
        # (document_cleaner.py:72-78 semantics, minus 11 tree walks)
        self.remove_nodes_matching_many(doc, (
            self.caption_re, self.google_re, self.entries_re,
            self.facebook_re, self.facebook_broadcasting_re,
            self.twitter_re))
        self.clean_para_spans(doc)
        self.div_to_para(doc, "div")
        self.div_to_para(doc, "span")
        self.div_to_para(doc, "section")
        return doc

    def clean_body_classes(self, doc):
        # document_cleaner.py:85-92
        bodies = dom.get_elements_by_tag(doc, tag="body")
        if bodies:
            bodies[0].attrib.pop("class", None)

    def clean_article_tags(self, doc):
        # document_cleaner.py:94-99
        for article in dom.get_elements_by_tag(doc, tag="article"):
            for attr in ("id", "name", "class"):
                article.attrib.pop(attr, None)

    def clean_em_tags(self, doc):
        # document_cleaner.py:101-107
        for em in dom.get_elements_by_tag(doc, tag="em"):
            if not dom.get_elements_by_tag(em, tag="img"):
                dom.drop_tag(em)

    def remove_drop_caps(self, doc):
        # document_cleaner.py:109-114 (span[class~=dropcap|drop_cap])
        for item in dom.css_class_word_select(doc, "span", ("dropcap", "drop_cap")):
            dom.drop_tag(item)

    def remove_scripts_styles(self, doc):
        # document_cleaner.py:116-130
        for tag in ("script", "style"):
            for item in dom.get_elements_by_tag(doc, tag=tag):
                dom.remove(item)
        for item in dom.get_comments(doc):
            dom.remove(item)

    def _contains_article(self, node: Node) -> bool:
        """.//article | .//*[@id="article"] | .//*[@itemprop="articleBody"]
        (document_cleaner.py:61)."""
        for n in node.iterdescendants():
            if n.tag == "article" or n.attrib.get("id") == "article" \
                    or n.attrib.get("itemprop") == "articleBody":
                return True
        return False

    def clean_bad_tags(self, doc):
        # document_cleaner.py:132-148 — the three attribute passes share
        # one snapshot walk. A node removed in an earlier pass is cleared
        # (no attributes left to match) and its descendants sit in a
        # detached subtree, so they are exactly the nodes a fresh walk per
        # pass would no longer see, and touching them cannot change the
        # live tree. Attributes are never added here, so attribute-less
        # nodes can be dropped from the snapshot up front.
        nodes = [n for n in dom._preorder(doc) if n.attrib]
        for attr in ("id", "class", "name"):
            for node in nodes:
                val = node.attrib.get(attr)
                if val is None or not self.remove_nodes_re.search(val):
                    continue
                if node.parent is None:
                    continue
                if self._contains_article(node):
                    continue
                if attr == "class" and node.attrib.get("itemprop") == "articleBody":
                    continue
                dom.remove(node)

    def remove_nodes_matching(self, doc, pattern: re.Pattern):
        # document_cleaner.py:150-156
        for attr in ("id", "class"):
            for node in dom._preorder(doc):
                val = node.attrib.get(attr)
                if val is not None and pattern.search(val) and node.parent is not None:
                    dom.remove(node)

    def remove_nodes_matching_many(self, doc, patterns):
        hits = []
        for node in dom._preorder(doc):
            node_id = node.attrib.get("id")
            node_cls = node.attrib.get("class")
            if node_id is None and node_cls is None:
                continue
            for pi, pattern in enumerate(patterns):
                for ai, val in enumerate((node_id, node_cls)):
                    if val is not None and pattern.search(val):
                        hits.append((pi, ai, node))
        # replay in (pattern, attr) order like the sequential calls
        hits.sort(key=lambda h: (h[0], h[1]))
        for _pi, _ai, node in hits:
            if node.parent is not None:
                dom.remove(node)

    def clean_para_spans(self, doc):
        # document_cleaner.py:158-162 ('p span' descendant selector)
        for p in dom.get_elements_by_tag(doc, tag="p"):
            for span in dom.get_elements_by_tag(p, tag="span"):
                if span.parent is not None:
                    dom.drop_tag(span)

    # -- div/span/section → p conversion (document_cleaner.py:164-255) --

    def _flushed_buffer(self, replacement_text: str) -> Node:
        """get_flushed_buffer/text_to_para: parse accumulated text (may
        contain <a> outer html) into a paragraph node."""
        frag = dom.fromstring(replacement_text)
        p = Node("p")
        p.text = frag.text
        for c in list(frag):
            p.append(c)
        return p

    def _walk_left_right(self, kid: Node, kid_text: str,
                         replacement_text: list, nodes_to_remove: list):
        # document_cleaner.py:168-194
        replace_text = _tablines_replace(kid_text)
        if len(replace_text) <= 1:
            return
        prev_node = kid.getprevious()
        while prev_node is not None and prev_node.tag == "a" \
                and prev_node.attrib.get("grv-usedalready") != "yes":
            replacement_text.append(" " + dom.outer_html(prev_node) + " ")
            nodes_to_remove.append(prev_node)
            prev_node.set("grv-usedalready", "yes")
            prev_node = prev_node.getprevious()
        replacement_text.append(replace_text)
        next_node = kid.getnext()
        while next_node is not None and next_node.tag == "a" \
                and next_node.attrib.get("grv-usedalready") != "yes":
            replacement_text.append(" " + dom.outer_html(next_node) + " ")
            nodes_to_remove.append(next_node)
            next_node.set("grv-usedalready", "yes")
            next_node = next_node.getnext()

    def _replacement_nodes(self, div: Node) -> list[Node]:
        # document_cleaner.py:196-227
        replacement_text: list[str] = []
        nodes_to_return: list[Node] = []
        nodes_to_remove: list[Node] = []
        for kid in dom.child_nodes_with_text(div):
            if kid.tag == "p" and replacement_text:
                nodes_to_return.append(self._flushed_buffer("".join(replacement_text)))
                replacement_text = []
                nodes_to_return.append(kid)
            elif kid.tag == "text":
                # reference passes parser.get_text(kid) — innerTrim'd, so
                # whitespace-only text kids never trigger the link walk
                # (document_cleaner.py:210-212; parser.py:215-217)
                self._walk_left_right(kid, dom.get_text(kid),
                                      replacement_text, nodes_to_remove)
            else:
                nodes_to_return.append(kid)
        if replacement_text:
            nodes_to_return.append(self._flushed_buffer("".join(replacement_text)))
        for n in nodes_to_remove:
            dom.remove(n)
        return nodes_to_return

    def div_to_para(self, doc, dom_type: str):
        # document_cleaner.py:234-255
        for div in dom.get_elements_by_tag(doc, tag=dom_type):
            items = dom.get_elements_by_tags(div, _DIV_TO_P_TAGS)
            if not items:
                div.tag = "p"
            else:
                replace_nodes = [n for n in self._replacement_nodes(div) if n is not None]
                attrib = dict(div.attrib)
                div.clear()
                for i, node in enumerate(replace_nodes):
                    div.insert(i, node)
                for name, value in attrib.items():
                    div.set(name, value)
