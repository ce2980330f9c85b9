"""Hierarchical query tracing: query → plan → stage → driver-request spans.

A :class:`QueryTrace` is one tree of :class:`Span` objects describing a
single engine run.  Spans are opened/closed at the engine's existing choke
points (``driver_executor``, ``EvalScope`` open/close, resilience retries,
…), which is what lets both lowerings — eager closures and chunked
streams — inherit tracing with zero compiled-code changes: the compiled
artifacts never see a span, they only call the same context hooks they
always called.

Design constraints:

* **Injectable clock.**  Every timestamp comes from the trace's ``clock``
  callable (default ``time.perf_counter``); tests drive a fake clock for
  deterministic durations.

* **Bounded span count.**  A trace holds at most ``max_spans`` real spans.
  Past the bound, :meth:`QueryTrace.begin` hands out a *dropped* span that
  still participates in open/close pairing (so the nesting invariant
  survives) but is never linked into the tree and ignores annotations; the
  ``dropped`` counter says how many were shed.  Each dropped span is a
  fresh object — a shared sentinel would appear at several stack depths at
  once, making identity-based fault unwinding ambiguous — but it lives
  only on the thread's stack, so a pathological million-request query can
  never balloon its trace.

* **Thread-aware nesting.**  The current open span is tracked per thread;
  a span opened on a worker thread (parallel chunk prefetch) parents onto
  that thread's own stack, falling back to the trace root.  Open/close
  pairing is enforced per thread, and :meth:`QueryTrace.open_spans`
  exposes the live count for the property tests' "every opened span is
  closed, even on fault paths" invariant.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "QueryTrace", "Tracer", "DEFAULT_MAX_SPANS"]

DEFAULT_MAX_SPANS = 512


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "kind", "started", "ended", "status", "attributes",
                 "children")

    def __init__(self, name: str, kind: str, started: float) -> None:
        self.name = name
        self.kind = kind
        self.started = started
        self.ended: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, object] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> Optional[float]:
        if self.ended is None:
            return None
        return self.ended - self.started

    def annotate(self, **attributes: object) -> "Span":
        self.attributes.update(attributes)
        return self

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Span({self.name!r}, {self.kind!r}, status={self.status!r})"


class _DroppedSpan(Span):
    """Placeholder returned once ``max_spans`` is reached.

    It pairs with :meth:`QueryTrace.end` like a real span (keeping the
    nesting discipline intact) but is never linked into the tree and
    ignores annotations.  Instances are per-``begin`` — identity is what
    lets a fault path unwind to exactly the right stack depth — and are
    garbage the moment they leave the thread's stack.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("<dropped>", "dropped", 0.0)

    def annotate(self, **attributes: object) -> "Span":
        return self


class QueryTrace:
    """One query's span tree, with a bounded span budget and injectable clock."""

    def __init__(self, name: str = "query",
                 clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = DEFAULT_MAX_SPANS,
                 on_finish: Optional[Callable[["QueryTrace"], None]] = None) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self._on_finish = on_finish
        self._lock = threading.Lock()
        self._local = threading.local()
        self.dropped = 0
        self._open = 0
        self._count = 1  # the root
        self.finished = False
        self.root = Span(name, "query", clock())

    # -- per-thread parent stack ------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span:
        stack = self._stack()
        return stack[-1] if stack else self.root

    # -- span lifecycle ----------------------------------------------------

    def begin(self, name: str, kind: str = "internal",
              **attributes: object) -> Span:
        """Open a child of this thread's current span (root if none)."""
        parent = self.current()
        with self._lock:
            if self.finished or self._count >= self.max_spans:
                self.dropped += 1
                span: Span = _DroppedSpan()
            else:
                span = Span(name, kind, self.clock())
                if attributes:
                    span.attributes.update(attributes)
                parent.children.append(span)
                self._count += 1
            self._open += 1
        self._stack().append(span)
        return span

    def end(self, span: Span, status: str = "ok") -> None:
        """Close ``span``; tolerant of fault paths unwinding several levels.

        Ending a span that an earlier unwind already closed (so it is no
        longer on this thread's stack) is a no-op on the open-span ledger —
        double-close must not drive the count negative.
        """
        stack = self._stack()
        popped = 0
        if any(entry is span for entry in stack):
            while stack:
                top = stack.pop()
                popped += 1
                if top is span:
                    break
                # a fault unwound past an inner span: close it as errored
                if top.ended is None:
                    top.ended = self.clock()
                    top.status = "error"
        freshly_closed = span.ended is None
        if freshly_closed:
            span.ended = self.clock()
            span.status = status
        if popped == 0 and freshly_closed:
            # opened on another thread (or in an unusual order): still one
            # open span retired, just not via this thread's stack
            popped = 1
        if popped:
            with self._lock:
                self._open -= popped

    @contextmanager
    def span(self, name: str, kind: str = "internal",
             **attributes: object) -> Iterator[Span]:
        span = self.begin(name, kind, **attributes)
        try:
            yield span
        except BaseException as exc:
            span.annotate(error=type(exc).__name__)
            self.end(span, status="error")
            raise
        else:
            self.end(span)

    def event(self, name: str, kind: str = "event",
              **attributes: object) -> None:
        """A zero-duration annotation (retry, breaker flip, spill, …)."""
        span = self.begin(name, kind, **attributes)
        self.end(span)

    def finish(self, status: str = "ok") -> None:
        """Close the root span (idempotent) and publish to the tracer."""
        with self._lock:
            if self.finished:
                return
            self.finished = True
        if self.root.ended is None:
            self.root.ended = self.clock()
            self.root.status = status
        if self._on_finish is not None:
            self._on_finish(self)

    # -- introspection -----------------------------------------------------

    def open_spans(self) -> int:
        """Spans begun but not yet ended (excludes the root)."""
        with self._lock:
            return self._open

    def span_count(self) -> int:
        """Real spans recorded in the tree, including the root."""
        with self._lock:
            return self._count

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": self.root.as_dict(),
            "span_count": self.span_count(),
            "dropped_spans": self.dropped,
            "finished": self.finished,
        }


class Tracer:
    """Recorder handing out bounded traces and keeping a ring of recent ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 32, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=keep)
        self.started = 0
        self.finished = 0
        self.spans_dropped = 0

    def start(self, name: str = "query", **attributes: object) -> QueryTrace:
        trace = QueryTrace(name, clock=self.clock, max_spans=self.max_spans,
                           on_finish=self._record)
        if attributes:
            trace.root.attributes.update(attributes)
        with self._lock:
            self.started += 1
        return trace

    def _record(self, trace: QueryTrace) -> None:
        with self._lock:
            self.finished += 1
            self.spans_dropped += trace.dropped
            self._recent.append(trace.as_dict())

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        with self._lock:
            traces = list(self._recent)
        if limit is not None and limit >= 0:
            traces = traces[-limit:] if limit else []
        return traces

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "started": self.started,
                "finished": self.finished,
                "spans_dropped": self.spans_dropped,
                "recent": len(self._recent),
            }
