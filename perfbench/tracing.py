"""In-memory span recorder installed around the program's public functions.

The recorder lives in the benchmark, not in the program: :meth:`Tracer.wrap`
replaces a class attribute with a timing wrapper and :meth:`Tracer.close`
puts the original back.  Each span records its name, start and end
(``perf_counter_ns``), the span that was open on the same thread when it
started (its parent), the request it served and the thread.  Spans stay in
memory until the run ends, then :meth:`Tracer.write_chrome` writes them as a
Chrome trace-event file that Perfetto opens.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: Request served by the code running in this context (closed-loop callers
#: set it around each call; it is ``None`` on the engine's stepping thread).
CURRENT_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Span(NamedTuple):
    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    request: object
    thread: int

    @property
    def duration(self) -> int:
        return self.end - self.start


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover (ns).

    Overlapping children (possible only across threads, which never parent
    each other here) are merged first, and children are clipped to the
    parent's interval, so self time is never negative.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = span.duration - covered
    return result


class Tracer:
    """Records spans around wrapped functions until :meth:`close`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[type, str, object]] = []

    def wrap(self, owner: type, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``after(span, args, kwargs, result)`` runs once the span has ended
        (so its cost is not charged to the span) to read counts off a call.
        """
        original = owner.__dict__[attr]
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = Span(
                    sid, name, start, end, parent, CURRENT_REQUEST.get(), threading.get_ident()
                )
                spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def add(self, name: str, start: float, end: float, request) -> None:
        """Record a span the harness timed itself (``perf_counter`` seconds)."""
        self.spans.append(
            Span(
                next(self._ids),
                name,
                int(start * 1e9),
                int(end * 1e9),
                None,
                request,
                threading.get_ident(),
            )
        )

    def close(self) -> None:
        """Restore every wrapped attribute (spans are kept)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace events (open in ui.perfetto.dev)."""
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start / 1000.0,
                "dur": span.duration / 1000.0,
                "pid": 1,
                "tid": span.thread,
                "args": {"id": span.sid, "parent": span.parent, "request": span.request},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
