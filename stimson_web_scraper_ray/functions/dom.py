"""A minimal lxml-compatible DOM built on stdlib ``html.parser``.

lxml / BeautifulSoup are not available in this environment, so the engine
ships its own tree with the *same text/tail data model as lxml.etree* —
every semantic the reference extraction code relies on
(/root/reference/scraper/parser.py) is reproduced here:

- ``Node.text`` / ``Node.tail`` string slots (parser.py passim)
- ``get_text`` = innerTrim(' '.join(itertext()).strip()) (parser.py:215-217)
- ``remove`` relocates the tail with a leading space (parser.py:194-208)
- ``drop_tag`` / ``strip_tags`` splice children in place like
  lxml ``drop_tag`` / ``etree.strip_tags`` (parser.py:41-46, 113-115)
- ``get_elements_by_tag(attr=, value=)`` is a case-insensitive *substring*
  match, mirroring the translate()+contains() xpath (parser.py:118-135)

The parser applies HTML5-ish implied-end-tag rules (auto-close ``<p>`` on
block elements, ``<li>`` on ``<li>``, table cells) to approximate libxml2's
error recovery; void elements never take children.
"""

from __future__ import annotations

import copy as _copy
import re
import sys
from html.parser import HTMLParser

COMMENT = "#comment"

VOID_TAGS = frozenset(
    ["area", "base", "br", "col", "embed", "hr", "img", "input", "link",
     "meta", "param", "source", "track", "wbr"]
)

# Opening any of these closes an open <p> (HTML5 spec paragraph closing).
_P_CLOSERS = frozenset(
    ["address", "article", "aside", "blockquote", "details", "div", "dl",
     "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2", "h3",
     "h4", "h5", "h6", "header", "hr", "main", "menu", "nav", "ol", "p",
     "pre", "section", "table", "ul"]
)
# tag -> set of open tags it implicitly closes
_IMPLIED_END = {
    "li": frozenset(["li"]),
    "dt": frozenset(["dt", "dd"]),
    "dd": frozenset(["dt", "dd"]),
    "tr": frozenset(["tr", "td", "th"]),
    "td": frozenset(["td", "th"]),
    "th": frozenset(["td", "th"]),
    "option": frozenset(["option"]),
    "thead": frozenset(["tbody", "tfoot"]),
    "tbody": frozenset(["thead", "tbody"]),
    "tfoot": frozenset(["tbody"]),
}

_WS_RE = re.compile(r"[\s\t]+")
_XML_PROLOG_RE = re.compile(r"^<\?.*?\?>", re.DOTALL)
_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([A-Za-z0-9_\-]+)""", re.IGNORECASE
)


def inner_trim(value) -> str:
    """Whitespace algebra of the reference ``innerTrim`` (utils.py:307-313):
    collapse runs of whitespace to one space, join splitlines, strip.
    ``' '.join(value.split())`` is equivalent (str.split splits on the
    same unicode whitespace class as ``\\s``, and after collapsing no
    newline survives for the splitlines join to act on — differentially
    tested over 200k adversarial strings) and runs in C."""
    if isinstance(value, str):
        return " ".join(value.split())
    return ""


# shared attrib dict for attribute-less nodes (the majority): nodes are
# created with it and copy-on-write in set() the first time an attribute
# is written. dict.pop(k, None)/get() on it are no-ops/reads — the only
# mutators in the package are Node.set/clear (guarded here) and
# attrib.pop (no-op on an empty dict), audited in cleaner.py/dom.py.
_EMPTY_ATTRIB: dict = {}

# shared children list for leaf nodes (roughly half of any DOM): append/
# insert copy-on-write it; every other _children mutation site operates
# on provably non-empty lists (audited: remove_child, the slice-assign in
# _drop_tag_keep_children, clear reassigns)
_EMPTY_CHILDREN: list = []

# per-process tag intern memo: html.parser yields fresh string slices per
# tag; interning makes every `node.tag == tag` in the close scans a
# pointer comparison and collapses millions of duplicate tag strings.
# It outlives a page, so it is cleared when full: memory stays bounded
# however many distinct tag names a crawl meets.
_TAG_MEMO: dict = {}
_TAG_MEMO_MAX = 4096


def _intern_tag(tag: str) -> str:
    t = _TAG_MEMO.get(tag)
    if t is None:
        if len(_TAG_MEMO) >= _TAG_MEMO_MAX:
            _TAG_MEMO.clear()
        t = _TAG_MEMO[tag] = sys.intern(tag)
    return t


class Node:
    """One element. Mutable, parent-linked, lxml-style text/tail.

    ``attrib`` ownership: the constructor TAKES the dict it is given
    (callers pass freshly-built dicts or None) — the empty case shares
    ``_EMPTY_ATTRIB`` instead of allocating. This halves per-node dict
    allocations in the parse hot path, which is what caps multi-worker
    scaling on one host (allocator bandwidth)."""

    __slots__ = ("tag", "attrib", "text", "tail", "_children", "parent")

    def __init__(self, tag, attrib=None, text=None, tail=None):
        self.tag = tag
        self.attrib = attrib if attrib else _EMPTY_ATTRIB
        self.text = text
        self.tail = tail
        self._children: list[Node] = _EMPTY_CHILDREN
        self.parent: Node | None = None

    # -- container protocol (mirrors lxml element) --
    def __iter__(self):
        return iter(self._children)

    def __len__(self):
        return len(self._children)

    def __getitem__(self, i):
        return self._children[i]

    def append(self, child: "Node"):
        child.parent = self
        if self._children is _EMPTY_CHILDREN:
            self._children = []
        self._children.append(child)

    def insert(self, i: int, child: "Node"):
        child.parent = self
        if self._children is _EMPTY_CHILDREN:
            self._children = []
        self._children.insert(i, child)

    def index(self, child: "Node") -> int:
        return self._children.index(child)

    def getchildren(self):
        return list(self._children)

    def getparent(self):
        return self.parent

    def getprevious(self):
        p = self.parent
        if p is None:
            return None
        i = p._children.index(self)
        return p._children[i - 1] if i > 0 else None

    def getnext(self):
        p = self.parent
        if p is None:
            return None
        i = p._children.index(self)
        return p._children[i + 1] if i + 1 < len(p._children) else None

    def itersiblings(self, preceding=False):
        p = self.parent
        if p is None:
            return
        i = p._children.index(self)
        if preceding:
            for j in range(i - 1, -1, -1):
                yield p._children[j]
        else:
            for j in range(i + 1, len(p._children)):
                yield p._children[j]

    def remove_child(self, child: "Node"):
        self._children.remove(child)
        child.parent = None

    def clear(self):
        """lxml .clear(): drop children, attributes, text and tail."""
        for c in self._children:
            c.parent = None
        self._children = _EMPTY_CHILDREN
        self.attrib = _EMPTY_ATTRIB
        self.text = None
        self.tail = None

    # -- attributes --
    def get(self, key, default=None):
        return self.attrib.get(key, default)

    def set(self, key, value):
        if self.attrib is _EMPTY_ATTRIB:
            self.attrib = {}
        self.attrib[key] = value

    # -- traversal (iterative: recursion is the hot path of the kernel) --
    def iter(self, tag=None):
        """Descendant-or-self, document order (lxml .iter)."""
        stack = [self]
        while stack:
            node = stack.pop()
            if tag is None or node.tag == tag:
                yield node
            stack.extend(reversed(node._children))

    def iterdescendants(self, tag=None):
        stack = list(reversed(self._children))
        while stack:
            node = stack.pop()
            if tag is None or node.tag == tag:
                yield node
            stack.extend(reversed(node._children))

    def itertext(self):
        """Text content in document order; comment bodies are skipped but a
        comment's tail still flows (lxml html semantics)."""
        if self.tag == COMMENT:
            return
        if self.text:
            yield self.text
        stack = [(c, False) for c in reversed(self._children)]
        while stack:
            node, tail_only = stack.pop()
            if tail_only:                    # subtree done → emit tail
                yield node.tail
                continue
            if node.tag == COMMENT:
                if node.tail:
                    yield node.tail
                continue
            frames = []
            if node.tail:
                frames.append((node, True))  # deepest: emitted after subtree
            frames.extend((c, False) for c in reversed(node._children))
            stack.extend(frames)
            if node.text:
                yield node.text

    def text_content(self) -> str:
        return "".join(_text_parts(self))

    def __deepcopy__(self, memo):
        n = Node(self.tag, dict(self.attrib) if self.attrib else None,
                 self.text, self.tail)
        for c in self._children:
            n.append(_copy.deepcopy(c, memo))
        return n

    def __repr__(self):
        return f"<Node {self.tag} {self.attrib!r} text={self.text!r}>"


class _TreeBuilder(HTMLParser):
    # convert_charrefs=False: HTML5 remaps numeric refs in 0x80-0x9F via
    # cp1252 (&#146; → U+2019) but libxml2/lxml decodes them literally
    # (&#146; → U+0092); byte-parity with the reference requires the
    # literal behaviour, so charrefs are resolved by hand below.
    def __init__(self):
        super().__init__(convert_charrefs=False)
        self.root = Node("html")
        self.stack = [self.root]
        self._saw_html = False

    # text placement: node with no children -> .text; else last child's .tail
    def _add_text(self, data):
        cur = self.stack[-1]
        if cur._children:
            last = cur._children[-1]
            last.tail = (last.tail or "") + data
        else:
            cur.text = (cur.text or "") + data

    def _open(self, tag, attrs):
        cur = self.stack[-1]
        # interned tag (pointer-fast equality in the close scans below)
        # and no dict for the attr-less majority
        node = Node(_intern_tag(tag),
                    {k: (v if v is not None else "") for k, v in attrs}
                    if attrs else None)
        cur.append(node)
        return node

    def _close_implied(self, tag):
        if tag in _P_CLOSERS:
            # close an open <p> (but only up to the nearest block container)
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t == "p":
                    del self.stack[i:]
                    break
                if t in ("div", "section", "article", "td", "th", "li",
                         "blockquote", "body", "html"):
                    break
        closers = _IMPLIED_END.get(tag)
        if closers:
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t in closers:
                    del self.stack[i:]
                    break
                if t in ("table", "body", "html", "div", "ul", "ol", "dl",
                         "select", "tr") and t not in closers:
                    break

    def handle_starttag(self, tag, attrs):
        if tag == "html":
            # merge attrs into the synthetic root instead of nesting
            if not self._saw_html:
                self._saw_html = True
                for k, v in attrs:
                    if k not in self.root.attrib:
                        self.root.set(k, v if v is not None else "")
                return
        self._close_implied(tag)
        node = self._open(tag, attrs)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        if tag == "html":
            return
        self._close_implied(tag)
        self._open(tag, attrs)

    def handle_endtag(self, tag):
        if tag in VOID_TAGS or tag == "html":
            return
        tag = _intern_tag(tag)  # pointer-fast equality in the scan below
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray end tag: ignore

    def handle_data(self, data):
        if data:
            self._add_text(data)

    def handle_charref(self, name):
        try:
            code = int(name[1:], 16) if name[0] in "xX" else int(name)
        except ValueError:
            self._add_text("&#" + name + ";")
            return
        if 0 < code < 0x110000 and not 0xD800 <= code <= 0xDFFF:
            self._add_text(chr(code))
        else:
            self._add_text("�")

    def handle_entityref(self, name):
        import html.entities as _ent

        char = _ent.html5.get(name + ";")
        if char is not None:
            self._add_text(char)
        else:
            self._add_text("&" + name + ";")

    def handle_comment(self, data):
        cur = self.stack[-1]
        cur.append(Node(COMMENT, text=data))

    def handle_decl(self, decl):
        pass

    def error(self, message):  # pragma: no cover - py<3.10 compat hook
        pass


def decode_html(html) -> str:
    """bytes → str, standing in for UnicodeDammit (reference
    parser.py:52-64): try utf-8, then a declared <meta charset>, then
    latin-1 (which never fails)."""
    if isinstance(html, str):
        return html
    if html is None:
        return ""
    try:
        return html.decode("utf-8")
    except UnicodeDecodeError:
        pass
    m = _CHARSET_RE.search(html[:4096])
    if m:
        try:
            return html.decode(m.group(1).decode("ascii"), errors="replace")
        except LookupError:
            pass
    return html.decode("latin-1", errors="replace")


# ---------------------------------------------------------------------------
# fast tokenizer: html.parser's goahead/parse_* loop re-rolled for the
# whole-document case, REUSING the stdlib's own tolerant regexes so the
# tokenization semantics are bit-identical — what goes away is the
# feed()/updatepos()/handler-dispatch bookkeeping (~30% of kernel time).
# Any exception falls back to the stdlib HTMLParser drive loop.
# ---------------------------------------------------------------------------

import _markupbase as _mb
import html.parser as _hp
from html import unescape as _html_unescape

_STARTTAGOPEN = _hp.starttagopen
_CHARREF_RE = _hp.charref
_ENTITYREF_RE = _hp.entityref
_INCOMPLETE_RE = _hp.incomplete
_TAGFIND_T = _hp.tagfind_tolerant
_ATTRFIND_T = _hp.attrfind_tolerant
_LOCATESTART_T = _hp.locatestarttagend_tolerant
_ENDENDTAG = _hp.endendtag
_ENDTAGFIND = _hp.endtagfind
_PICLOSE = _hp.piclose
_COMMENTCLOSE_RE = _mb._commentclose
_MARKEDCLOSE_RE = _mb._markedsectionclose
_MSMARKEDCLOSE_RE = _mb._msmarkedsectionclose
_DECLNAME_MATCH = _mb._declname_match
_ALNUM_EQ_SLASH = frozenset("abcdefghijklmnopqrstuvwxyz=/"
                            "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_CDATA_RES = {t: re.compile(r"</\s*%s\s*>" % t, re.IGNORECASE)
              for t in ("script", "style")}


def _fast_feed(rawdata: str, tb: "_TreeBuilder") -> None:
    """Equivalent of tb.feed(rawdata); tb.close() for a complete document
    (HTMLParser.goahead with end=True, convert_charrefs=False)."""
    i, n = 0, len(rawdata)
    find = rawdata.find
    startswith = rawdata.startswith
    handle_data = tb.handle_data
    cdata_elem: str | None = None
    cdata_re = None
    # feed()+close() is goahead(0) then ONE goahead(1) re-entry: a bare
    # '&#' bail-out that consumed its two chars at feed time resumes
    # parsing exactly once; a second one breaks and dumps the tail.
    reentries = 1
    while i < n:
        if cdata_elem is None:
            lt = find("<", i)
            amp = find("&", i)
            if lt < 0:
                j = n if amp < 0 else amp
            elif amp < 0:
                j = lt
            else:
                j = lt if lt < amp else amp
        else:
            m = cdata_re.search(rawdata, i)
            if m is None:
                # unterminated CDATA at EOF: stdlib drops the tail
                return
            j = m.start()
        if i < j:
            handle_data(rawdata[i:j])
        i = j
        if i >= n:
            break
        c = rawdata[i]
        if c == "<":
            if _STARTTAGOPEN.match(rawdata, i):
                k, cdata_elem, cdata_re = _fast_starttag(rawdata, i, tb)
            elif startswith("</", i):
                k, cdata_elem, cdata_re = _fast_endtag(
                    rawdata, i, tb, cdata_elem, cdata_re)
            elif startswith("<!--", i):
                m = _COMMENTCLOSE_RE.search(rawdata, i + 4)
                if m:
                    tb.handle_comment(rawdata[i + 4:m.start()])
                    k = m.end()
                else:
                    k = -1
            elif startswith("<?", i):
                m = _PICLOSE.search(rawdata, i + 2)
                k = m.end() if m else -1  # handle_pi is a no-op
            elif startswith("<!", i):
                k = _fast_decl(rawdata, i, tb)
            elif i + 1 < n:
                handle_data("<")
                k = i + 1
            else:
                break
            if k < 0:
                # end=True recovery: emit through the next > (or <) as data
                k = find(">", i + 1)
                if k < 0:
                    k = find("<", i + 1)
                    if k < 0:
                        k = i + 1
                else:
                    k += 1
                handle_data(rawdata[i:k])
            i = k
        elif startswith("&#", i):
            m = _CHARREF_RE.match(rawdata, i)
            if m:
                tb.handle_charref(m.group()[2:-1])
                k = m.end()
                if rawdata[k - 1] != ";":
                    k -= 1
                i = k
                continue
            if ";" in rawdata[i:]:
                handle_data(rawdata[i:i + 2])
                i += 2
                if reentries:
                    reentries -= 1
                    continue
            break
        else:  # '&'
            m = _ENTITYREF_RE.match(rawdata, i)
            if m:
                tb.handle_entityref(m.group(1))
                k = m.end()
                if rawdata[k - 1] != ";":
                    k -= 1
                i = k
                continue
            m = _INCOMPLETE_RE.match(rawdata, i)
            if m:
                if m.group() == rawdata[i:]:
                    i += 1
                break
            if i + 1 < n:
                handle_data("&")
                i += 1
            else:
                break
    if i < n and cdata_elem is None:
        handle_data(rawdata[i:n])


def _fast_starttag(rawdata, i, tb):
    # HTMLParser.check_for_whole_start_tag + parse_starttag
    m = _LOCATESTART_T.match(rawdata, i)
    j = m.end()
    nxt = rawdata[j:j + 1]
    if nxt == ">":
        endpos = j + 1
    elif nxt == "/":
        if rawdata.startswith("/>", j):
            endpos = j + 2
        else:
            return -1, None, None  # lone trailing '/'
    elif nxt == "" or nxt in _ALNUM_EQ_SLASH:
        return -1, None, None
    else:
        endpos = j if j > i else i + 1
    tm = _TAGFIND_T.match(rawdata, i + 1)
    k = tm.end()
    tag = tm.group(1).lower()
    attrs = []
    while k < endpos:
        am = _ATTRFIND_T.match(rawdata, k)
        if not am:
            break
        attrname, rest, attrvalue = am.group(1, 2, 3)
        if not rest:
            attrvalue = None
        elif attrvalue[:1] == "'" == attrvalue[-1:] or \
                attrvalue[:1] == '"' == attrvalue[-1:]:
            attrvalue = attrvalue[1:-1]
        if attrvalue:
            attrvalue = _html_unescape(attrvalue)
        attrs.append((attrname.lower(), attrvalue))
        k = am.end()
    end = rawdata[k:endpos].strip()
    if end not in (">", "/>"):
        tb.handle_data(rawdata[i:endpos])
        return endpos, None, None
    if end.endswith("/>"):
        tb.handle_startendtag(tag, attrs)
        return endpos, None, None
    tb.handle_starttag(tag, attrs)
    if tag in _CDATA_RES:
        return endpos, tag, _CDATA_RES[tag]
    return endpos, None, None


def _fast_endtag(rawdata, i, tb, cdata_elem, cdata_re):
    m = _ENDENDTAG.search(rawdata, i + 1)
    if not m:
        return -1, cdata_elem, cdata_re
    gtpos = m.end()
    m = _ENDTAGFIND.match(rawdata, i)
    if not m:
        if cdata_elem is not None:
            tb.handle_data(rawdata[i:gtpos])
            return gtpos, cdata_elem, cdata_re
        nm = _TAGFIND_T.match(rawdata, i + 2)
        if not nm:
            if rawdata[i:i + 3] == "</>":
                return i + 3, None, None
            pos = rawdata.find(">", i + 2)
            if pos == -1:
                return -1, None, None
            tb.handle_comment(rawdata[i + 2:pos])
            return pos + 1, None, None
        tagname = nm.group(1).lower()
        gtpos = rawdata.find(">", nm.end())
        tb.handle_endtag(tagname)
        return gtpos + 1, None, None
    elem = m.group(1).lower()
    if cdata_elem is not None and elem != cdata_elem:
        tb.handle_data(rawdata[i:gtpos])
        return gtpos, cdata_elem, cdata_re
    tb.handle_endtag(elem)
    return gtpos, None, None


def _fast_decl(rawdata, i, tb):
    # parse_html_declaration minus the <!-- case (dispatched earlier)
    if rawdata[i:i + 3] == "<![":
        m = _DECLNAME_MATCH(rawdata, i + 3)
        if not m or i + 3 + len(m.group()) == len(rawdata):
            return -1
        name = m.group().strip().lower()
        if name in ("temp", "cdata", "ignore", "include", "rcdata"):
            mm = _MARKEDCLOSE_RE.search(rawdata, i + 3)
        elif name in ("if", "else", "endif"):
            mm = _MSMARKEDCLOSE_RE.search(rawdata, i + 3)
        else:
            raise AssertionError(
                "unknown status keyword %r in marked section" % name)
        if not mm:
            return -1
        return mm.end()  # unknown_decl is a no-op
    if rawdata[i:i + 9].lower() == "<!doctype":
        gtpos = rawdata.find(">", i + 9)
        if gtpos == -1:
            return -1
        return gtpos + 1  # handle_decl is a no-op
    pos = rawdata.find(">", i + 2)
    if pos == -1:
        return -1
    tb.handle_comment(rawdata[i + 2:pos])
    return pos + 1


def fromstring(html) -> Node:
    """Parse HTML (str or bytes) into a tree; strips an ``<?xml?>`` prolog
    first like the reference (parser.py:73-74)."""
    html = decode_html(html)
    if html.startswith("<?"):
        html = _XML_PROLOG_RE.sub("", html)
    builder = _TreeBuilder()
    try:
        _fast_feed(html, builder)
        return builder.root
    except Exception:
        builder = _TreeBuilder()
        builder.feed(html)
        builder.close()
        return builder.root


# --------------------------------------------------------------------------
# the Parser-object surface the extraction code uses (parser.py:32-264)
# --------------------------------------------------------------------------

_TAG_CACHE: dict | None = None


class tag_cache:
    """Context manager enabling a root → {tag: node-list} index for all
    dom selectors inside the block (one bucketed walk serves every tag
    instead of one walk per selector).  ONLY valid while no mutation can
    change what a later selector in the block selects: extract_article
    wraps its read-only metadata pass in this (~20 selectors over the same
    immutable doc), DocumentCleaner.clean its first five steps."""

    def __enter__(self):
        global _TAG_CACHE
        self._prev = _TAG_CACHE
        _TAG_CACHE = {}
        return self

    def __exit__(self, *exc):
        global _TAG_CACHE
        _TAG_CACHE = self._prev
        return False


def _tag_index(node: Node) -> dict:
    """One preorder walk bucketed by tag; key None holds every
    non-comment node, all in document order."""
    index: dict = {}
    everything = []
    for n in _preorder(node):
        t = n.tag
        bucket = index.get(t)
        if bucket is None:
            index[t] = [n]
        else:
            bucket.append(n)
        if t != COMMENT:
            everything.append(n)
    index[None] = everything
    return index


def _tagged(node: Node, tag) -> list[Node]:
    """Descendant-or-self nodes with the given tag (None = all non-comment),
    served from the active tag_cache when one is installed."""
    c = _TAG_CACHE
    if c is not None:
        index = c.get(node)
        if index is None:
            index = c[node] = _tag_index(node)
        return list(index.get(tag, ()))
    if tag is None:
        return [n for n in _preorder(node) if n.tag != COMMENT]
    return [n for n in _preorder(node) if n.tag == tag]


def _preorder(node: Node) -> list[Node]:
    """Document-order descendant-or-self as a plain list — the hot path of
    every selector; a tight append loop beats generator resumption ~3×."""
    out = [node]
    append = out.append
    stack = list(node._children)
    stack.reverse()
    pop = stack.pop
    while stack:
        n = pop()
        append(n)
        cs = n._children
        if cs:
            if len(cs) == 1:
                stack.append(cs[0])
            else:
                stack.extend(cs[::-1])
    return out


def _text_parts(node: Node) -> list[str]:
    """itertext() as a list without generator overhead (same emission
    order: text before children, tails after subtrees, comments skipped
    but their tails kept)."""
    if node.tag == COMMENT:
        return []
    parts = []
    append = parts.append
    if node.text:
        append(node.text)
    stack = [(c, False) for c in reversed(node._children)]
    pop = stack.pop
    push = stack.append
    while stack:
        n, tail_only = pop()
        if tail_only:
            append(n.tail)
            continue
        if n.tag == COMMENT:
            if n.tail:
                append(n.tail)
            continue
        if n.tail:
            push((n, True))
        cs = n._children
        if cs:
            stack.extend((c, False) for c in reversed(cs))
        if n.text:
            append(n.text)
    return parts


def get_text(node: Node) -> str:
    """parser.py:215-217: innerTrim(' '.join(itertext()).strip())."""
    return inner_trim(" ".join(_text_parts(node)).strip())


def get_elements_by_tag(node: Node, tag=None, attr=None, value=None,
                        use_regex=False) -> list[Node]:
    """descendant-or-self selection; attr+value is a case-insensitive
    substring match (or regex when use_regex), excluding comments; the root
    itself is dropped from the result when a tag is given (parser.py:118-135).
    """
    if attr and value:
        if use_regex:
            pat = re.compile(value, re.IGNORECASE)
            pred = lambda n: (av := n.attrib.get(attr)) is not None and pat.search(av)
        else:
            vl = value.lower()
            pred = lambda n: (av := n.attrib.get(attr)) is not None and vl in av.lower()
        results = [n for n in _tagged(node, tag) if pred(n)]
    else:
        results = _tagged(node, tag)
    if tag is not None and results and results[0] is node:
        results.pop(0)
    return results


def get_elements_by_tags(node: Node, tags) -> list[Node]:
    """descendant (not self) matching any tag (parser.py:170-175)."""
    tagset = frozenset(tags)
    walk = _preorder(node)
    return [n for n in walk[1:] if n.tag in tagset]


def css_attr_select(node: Node, tag: str, attr: str, value: str) -> list[Node]:
    """Exact-match attribute selector, e.g. meta[name=description]
    (cssselect semantics used via parser.css_select)."""
    return [n for n in _tagged(node, tag) if n.attrib.get(attr) == value]


def css_class_word_select(node: Node, tag: str, words) -> list[Node]:
    """[class~=word] selector (whitespace-token match)."""
    wordset = set(words)
    out = []
    for n in _tagged(node, tag):
        cls = n.attrib.get("class")
        if cls and wordset & set(cls.split()):
            out.append(n)
    return out


def remove(node: Node):
    """lxml-style removal with the reference's tail relocation: the tail is
    appended (with a leading space) to the previous sibling's tail or the
    parent's text (parser.py:194-208)."""
    parent = node.parent
    if parent is None:
        return
    if node.tail:
        prev = node.getprevious()
        if prev is None:
            if not parent.text:
                parent.text = ""
            parent.text += " " + node.tail
        else:
            if not prev.tail:
                prev.tail = ""
            prev.tail += " " + node.tail
    node.clear()
    parent.remove_child(node)


def drop_tag(node: Node):
    """lxml HtmlElement.drop_tag: remove the element, keeping its children
    and text in place."""
    parent = node.parent
    if parent is None:
        return
    idx = parent._children.index(node)
    prev = parent._children[idx - 1] if idx > 0 else None

    def _append_text(s):
        if not s:
            return
        if prev is not None:
            prev.tail = (prev.tail or "") + s
        else:
            parent.text = (parent.text or "") + s

    _append_text(node.text)
    children = node._children
    for c in children:
        c.parent = parent
    parent._children[idx:idx + 1] = children
    if children:
        last = children[-1]
        if node.tail:
            last.tail = (last.tail or "") + node.tail
    else:
        _append_text(node.tail)
    node.parent = None


def strip_tags(node: Node, *tags):
    """lxml etree.strip_tags: drop matching descendant tags (keeping content)
    throughout the subtree. One snapshot pass drops them all: drop_tag
    moves the children of a dropped node up (they stay in the snapshot,
    parent set) and creates no node, so a second pass would find none."""
    tagset = set(tags)
    for n in _preorder(node)[1:]:
        if n.tag in tagset:
            drop_tag(n)


def get_comments(node: Node) -> list[Node]:
    return _tagged(node, COMMENT)


def create_element(tag="p", text=None, tail=None) -> Node:
    return Node(tag, text=text, tail=tail)


def node_depth(node: Node, depth=1) -> int:
    """BFS depth (output_formatter.py:155-167)."""
    children = node.getchildren()
    if not children:
        return depth
    return max(node_depth(c, depth + 1) for c in children)


def node_to_string(node: Node) -> str:
    """Serialize subtree to HTML (used for video embed_code and
    outer_html; parser.py:102-107)."""
    from html import escape

    if node.tag == COMMENT:
        return f"<!--{node.text or ''}-->"
    attrs = "".join(f' {k}="{escape(str(v), quote=True)}"' for k, v in node.attrib.items())
    inner = (escape(node.text) if node.text else "") + "".join(
        node_to_string(c) + (escape(c.tail) if c.tail else "") for c in node
    )
    if node.tag in VOID_TAGS:
        return f"<{node.tag}{attrs}>"
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


def outer_html(node: Node) -> str:
    """parser.py:258-264 (tail excluded)."""
    return node_to_string(node)


def child_nodes_with_text(node: Node) -> list[Node]:
    """Materialize text/tails as synthetic ``text`` nodes among the children
    (parser.py:137-160) — used by the div→p conversion."""
    root = node
    if root.text:
        t = Node("text", text=root.text)
        root.text = None
        root.insert(0, t)
    for n in list(root):
        if n.tag == "text":
            continue
        if n.tail:
            # NB the reference does NOT clear n.tail here (parser.py:149-159)
            text = n.tail if n.tail.split() else None
            t = Node("text", text=text)
            idx = root.index(n)
            root.insert(idx + 1, t)
    return list(root)
