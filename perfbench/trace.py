"""In-memory span recorder for the traced run.

Wrappers are installed from the benchmark, around the public functions
of each layer; the engine's code is not modified. A span records
(id, name, start, end, parent, run id); counters count calls. Spans stay
in memory until ``write``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []          # (id, name, start, end, parent)
        self.counts: collections.Counter = collections.Counter()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)        # next() is atomic in CPython

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name: str, span: bool = True):
        """``fn`` with a call counter and, if ``span``, a span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if not span:
                return fn(*args, **kwargs)
            with _Span(tracer, name):
                return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, span: bool = True) -> bool:
        """Wrap ``owner.attr`` (a module or class attribute). A name that
        no longer exists is recorded as missing, not raised."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self._missing(name)
            return False
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, span))
        return True

    def _missing(self, name: str) -> None:
        if name not in self.missing:          # wrappers may be installed again
            self.missing.append(name)

    def substitute(self, owner, attr: str, fn) -> None:
        """Replace ``owner.attr`` with ``fn`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def patch_everywhere(self, module, attr: str, name: str,
                         span: bool = True, package: str = "stimson_web_scraper_ray"
                         ) -> int:
        """Wrap ``module.attr`` and every binding of the same function that
        another loaded module of ``package`` (or the entry module) made
        with ``from ... import``, under any alias. Returns the number of
        bindings wrapped."""
        orig = getattr(module, attr, None)
        if orig is None:
            self._missing(name)
            return 0
        wrapped = self.wrap(orig, name, span)
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.startswith(package)
                                   or mod_name == "__ray_entry__"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)
                    n += 1
        return n

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def _children_time(self) -> dict[int, float]:
        child: dict[int, float] = collections.defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def totals(self, prefix: str) -> tuple[float, float]:
        """(inclusive, self) seconds of the spans whose name is ``prefix``
        or starts with ``prefix + "."``. Inclusive time counts only the
        outermost such spans, so nested calls are not counted twice; self
        time subtracts every traced child span."""
        def match(n):
            return n == prefix or n.startswith(prefix + ".")

        names = {sid: name for sid, name, *_ in self.spans}
        child = self._children_time()
        incl = self_t = 0.0
        for sid, name, start, end, parent in self.spans:
            if not match(name):
                continue
            if parent is None or not match(names.get(parent, "")):
                incl += end - start
            self_t += end - start - child.get(sid, 0.0)
        return incl, self_t

    def durations(self, name: str) -> list[float]:
        return [end - start for _s, n, start, end, _p in self.spans if n == name]

    def write(self, f) -> None:
        """Append one JSON object per span to the open text file ``f``."""
        for sid, name, start, end, parent in self.spans:
            f.write(json.dumps({"id": sid, "name": name, "start": start,
                                "end": end, "parent": parent,
                                "run": self.run_id}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "start", "parent")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end,
                                  self.parent))
        return False
