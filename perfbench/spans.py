"""Spans recorded around the public calls into each layer.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``request`` the id of
the client request it belongs to (0 for set-up). Wrappers are installed
on classes and modules for one traced pass and removed afterwards, so
the program itself carries no tracing code. Everything runs in one
thread, so spans nest strictly and a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        """``fn`` recording a span, but only inside an open root span:
        calls made by warm-ups and checks between requests are not
        part of the traced wall time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (class or module) by a traced wrapper."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def unpatch_all(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, had, original in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (end - start) - covered[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def totals(self, inclusive: bool = False) -> dict[str, tuple[float, int]]:
        """name -> (summed seconds, span count); self time by default."""
        selfs = self.self_times()
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            seconds = end - start if inclusive else selfs[i]
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + seconds, count + 1)
        return out

    def write(self, path: str) -> None:
        """Write the span log as JSON (one record per span)."""
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
