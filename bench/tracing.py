"""In-memory span recording around calls into the hmdn modules.

The tracer wraps public functions and methods from the outside: every
binding of a wrapped function in a loaded ``hmdn`` module is replaced by a
wrapper that records one span per call, so calls made through ``from .mdn
import sample`` style bindings are seen as well. Spans stay in memory until
the run ends; self time is a span's duration minus the time its child spans
cover. Nothing inside ``src/`` is modified on disk.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder for one process; single-threaded by design."""

    def __init__(self, run_id=None):
        self.spans = []  # (span_id, name, start_ns, end_ns, parent_id, run_id)
        self.run_id = run_id
        self.missing = []  # wrap points that do not exist in this program version
        self._stack = []
        self._next_id = 0
        self._patches = []  # (namespace object, attribute, original value)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start_ns):
        end_ns = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, name, start_ns, end_ns, parent, self.run_id))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, parent, start)

    def _wrapper(self, original, name, on_return):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid, name, parent, start)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def wrap(self, module_name: str, attr: str, name: str, on_return=None) -> None:
        """Wrap ``module_name.attr`` (``attr`` may be ``Class.method``).

        A function is replaced in every ``hmdn`` module namespace that binds
        the same object; a method is replaced on its class. ``on_return``
        receives ``(args, kwargs, result)`` after each call.
        """
        module = sys.modules.get(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, member, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = self._wrapper(original, name, on_return)
        if owner_name:
            self._patch(owner, member, original, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "hmdn" or mod_name.startswith("hmdn."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_ns(self) -> dict:
        """span_id -> duration minus the summed durations of its children."""
        child = defaultdict(int)
        for _sid, _name, start, end, parent, _run in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _n, start, end, _p, _r in self.spans}

    def roots(self) -> dict:
        """span_id -> name of its outermost ancestor (the CLI stage span)."""
        by_id = {s[0]: s for s in self.spans}
        memo: dict = {}

        def root(sid):
            if sid not in memo:
                parent = by_id[sid][4]
                memo[sid] = by_id[sid][1] if parent is None else root(parent)
            return memo[sid]

        return {sid: root(sid) for sid in by_id}

    def summary(self):
        """Per (root stage, span name): call count, self ns and wall ns."""
        selfs = self.self_ns()
        roots = self.roots()
        calls, self_total, wall_total = Counter(), Counter(), Counter()
        for sid, name, start, end, _parent, _run in self.spans:
            key = (roots[sid], name)
            calls[key] += 1
            self_total[key] += selfs[sid]
            wall_total[key] += end - start
        return calls, self_total, wall_total

    def write_jsonl(self, path) -> None:
        selfs = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "run": run,
                            "self_ns": selfs[sid],
                        }
                    )
                    + "\n"
                )
