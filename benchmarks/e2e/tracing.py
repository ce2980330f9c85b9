"""Span recording from outside the program, and the per-layer ledger.

The benchmark measures layers without touching ``src/``: :func:`install`
wraps the public entry point of each layer — patching the name *where it is
used* — with a recorder that keeps ``(id, parent, name, start, end, thread)``
in memory.  While the recorder is inactive a wrapper costs one attribute
test, which is what lets a traced run interleave traced and untraced
operations on one session.

:func:`ledger` turns one operation's spans into exclusive ("self") times:
every instant of the operation is credited to the deepest span open at that
instant, so a span's self time is its duration minus the union of its
children's intervals, children running in parallel on other threads share
their overlap once, and the self times of all spans add up to the root span
exactly (integer nanoseconds).
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_right
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["Span", "Recorder", "Ledger", "ledger", "install", "wrap_drivers",
           "ROOT"]

#: Name of the span the harness opens around a whole operation.
ROOT = "op"

_now = time.perf_counter_ns


class Span(NamedTuple):
    id: int
    #: Id of the enclosing span on the same thread; 0 for a thread's
    #: outermost span, whose parent :func:`ledger` finds by containment.
    parent: int
    name: str
    start: int
    end: int
    thread: int


class Recorder:
    """In-memory spans and counters of the operation being traced.

    One operation is traced at a time (traced runs use one session), so
    "belongs to the operation" is simply "started between :meth:`begin`
    and :meth:`end`", whichever thread recorded it.
    """

    def __init__(self) -> None:
        self.active = False
        #: ``[id, parent, name, start, end, thread]`` per span, appended when
        #: it opens; ``end`` stays 0 until it closes.
        self.open: List[list] = []
        self.counts: Dict[str, float] = {}
        #: The spans :meth:`end` returned last, kept for a dump.
        self.last: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def begin(self) -> None:
        self.open = []
        self.counts = {}
        self.active = True

    def end(self) -> Tuple[List[Span], Dict[str, float]]:
        """Stop recording; the operation's spans and counters.

        A span another thread has not closed yet (the server is still
        returning from the ``send`` whose bytes already ended the
        operation, or already waits for the next request) ends now.
        """
        self.active = False
        now = _now()
        self.last = [Span(span_id, parent, name, start, end or now, thread)
                     for span_id, parent, name, start, end, thread in self.open]
        return self.last, self.counts

    def note(self, key: str, amount: float) -> None:
        """Add to a per-operation counter (no-op while inactive)."""
        if self.active:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``function`` recorded as a span called ``name``.

        ``after(recorder, args, result)`` runs after a successful call, to
        read a counter the program keeps (still only while active).
        """
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            span = [span_id, stack[-1] if stack else 0, name, 0, 0,
                    threading.get_ident()]
            stack.append(span_id)
            recorder.open.append(span)
            span[3] = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                span[4] = _now()
                stack.pop()
            if after is not None:
                after(recorder, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

class Ledger(NamedTuple):
    #: Root span duration, ns.
    root_ns: int
    #: Exclusive time per span name, ns; the values add up to ``root_ns``.
    self_ns: Dict[str, int]
    #: Spans per name.
    calls: Dict[str, int]
    #: The operation's spans with start/end clipped and parents resolved,
    #: in start order, root first.
    spans: List[Span]


def _clip_receives(spans: List[Span]) -> List[Span]:
    """Start each ``framing.recv`` span where the peer's send started.

    ``recv_message`` blocks until the peer has something to say; the time
    before the matching ``send_message`` began is the peer working (or the
    session idling between operations), not framing.  A receive no peer
    send fell into received nothing in this operation and is dropped.
    """
    sends = sorted((span for span in spans if span.name == "framing.send"),
                   key=lambda span: span.start)
    starts = [span.start for span in sends]
    clipped = []
    for span in spans:
        if span.name == "framing.recv":
            index = bisect_right(starts, span.end) - 1
            while index >= 0 and sends[index].thread == span.thread:
                index -= 1
            if index < 0 or sends[index].end <= span.start:
                continue
            span = span._replace(start=max(span.start, sends[index].start))
        clipped.append(span)
    return clipped


def ledger(spans: Sequence[Span]) -> Ledger:
    """Exclusive time per span name for one operation's spans.

    The root is the span named :data:`ROOT`.  Spans outside it are dropped,
    spans straddling it are clipped to it.  A thread's outermost span is
    attached to the innermost span of another thread that is open when it
    starts and still open when it ends (the root if there is none).
    """
    roots = [span for span in spans if span.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    root = roots[0]
    kept: Dict[int, Span] = {}
    for span in _clip_receives([s for s in spans if s is not root]):
        start, end = max(span.start, root.start), min(span.end, root.end)
        if end > start:
            kept[span.id] = span._replace(start=start, end=end)
    # A span whose enclosing span is not among the operation's (it outlived
    # the operation, or fell outside the root) is outermost on its thread.
    for span in list(kept.values()):
        if span.parent and span.parent not in kept:
            kept[span.id] = span._replace(parent=0)
    kept[root.id] = root

    # At one instant ends go before starts (a span that closes as another
    # opens is not its parent) and starts go in id order (a parent's id is
    # smaller than its children's).
    events = []
    for span in kept.values():
        if span is not root:
            events.append((span.start, 1, span.id))
            events.append((span.end, 0, span.id))
    events.sort()

    depth = {root.id: 0}
    stacks: Dict[int, List[int]] = {root.thread: [root.id]}
    self_ns = {span_id: 0 for span_id in kept}
    current = root.id
    previous = root.start

    def deepest_open() -> int:
        best = root.id
        for stack in stacks.values():
            if stack and depth[stack[-1]] > depth[best]:
                best = stack[-1]
        return best

    for moment, is_start, span_id in events:
        self_ns[current] += moment - previous
        previous = moment
        span = kept[span_id]
        stack = stacks.setdefault(span.thread, [])
        if is_start:
            parent = span.parent
            if not parent:
                # Outermost on its thread: adopt by containment.
                parent = root.id
                for other_thread, other in stacks.items():
                    if other_thread == span.thread:
                        continue
                    for candidate in reversed(other):
                        if kept[candidate].end >= span.end:
                            if depth[candidate] > depth[parent]:
                                parent = candidate
                            break
                kept[span_id] = span._replace(parent=parent)
            depth[span_id] = depth[parent] + 1
            stack.append(span_id)
            if depth[span_id] > depth[current]:
                current = span_id
        else:
            stack.remove(span_id)
            if span_id == current:
                current = deepest_open()
    self_ns[current] += root.end - previous

    by_name: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for span_id, span in kept.items():
        by_name[span.name] = by_name.get(span.name, 0) + self_ns[span_id]
        calls[span.name] = calls.get(span.name, 0) + 1
    ordered = sorted(kept.values(),
                     key=lambda span: (span is not root, span.start, span.id))
    return Ledger(root.end - root.start, by_name, calls, ordered)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

class _TracedStream:
    """The iterator ``KleisliEngine.stream`` returns, draining under spans."""

    def __init__(self, recorder: Recorder, inner, statistics) -> None:
        self._inner = inner
        self._recorder = recorder
        self._statistics = statistics
        self._next = recorder.wrap("engine.next", inner.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return self._next()
        except StopIteration:
            _note_eval_statistics(self._recorder, self._statistics)
            raise

    def close(self) -> None:
        self._inner.close()


def _note_eval_statistics(recorder: Recorder, statistics) -> None:
    if statistics is None:
        return
    recorder.note("engine.ext_iterations", statistics.ext_iterations)
    recorder.note("engine.scan_elements", statistics.scan_elements)
    recorder.note("engine.fallbacks", statistics.compiled_fallbacks
                  + statistics.stream_fallbacks + statistics.scalar_stages)
    recorder.note("compile.cache_hits", statistics.compile_cache_hits)
    recorder.note("compile.cache_misses", statistics.compile_cache_misses)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that undoes it.

    Module-level functions are replaced in the namespace of the module that
    *calls* them (``from x import f`` binds ``f`` there), methods on their
    class.  Driver instances are per-server: see :func:`wrap_drivers`.
    """
    from repro.core.cpl.typecheck import TypeChecker
    from repro.kleisli import engine as engine_module
    from repro.kleisli import session as session_module
    from repro.kleisli.engine import KleisliEngine
    from repro.kleisli.session import Session
    from repro.net import framing
    from repro.server import client as client_module
    from repro.server import service as service_module
    from repro.server.client import KleisliClient
    from repro.server.service import KleisliServer

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, name: str, after=None) -> None:
        original = getattr(owner, attribute)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(name, original, after))

    def rewrites(rec, args, result):
        stats = args[0].last_rewrite_stats
        if stats is not None:
            rec.note("optimizer.rewrites", stats.total())

    def executed(rec, args, result):
        _note_eval_statistics(rec, args[0].thread_eval_statistics())

    for method in ("query", "open", "fetch"):
        patch(KleisliClient, method, f"client.{method}")
    patch(KleisliClient, "request", "client.request")
    for module in (client_module, service_module):
        patch(module, "send_message", "framing.send")
        patch(module, "recv_message", "framing.recv")
    patch(framing, "encode_frame", "framing.encode_frame",
          lambda rec, args, result: rec.note("framing.bytes", len(result)))
    patch(KleisliServer, "_handle", "service.handle")
    patch(service_module, "encode_value", "wire.encode")
    patch(Session, "query", "session.query")
    patch(Session, "stream", "session.stream")
    patch(session_module, "parse_expression", "cpl.parse")
    patch(session_module, "desugar_expression", "cpl.desugar")
    patch(TypeChecker, "infer", "cpl.typecheck")
    patch(KleisliEngine, "compile", "optimizer.compile", rewrites)
    patch(KleisliEngine, "compile_for_stream", "optimizer.compile", rewrites)
    patch(engine_module, "term_fingerprint", "planner.fingerprint")
    patch(KleisliEngine, "plan_for", "planner.plan")
    for method in ("compiled_query", "compiled_stream", "compiled_chunked"):
        patch(KleisliEngine, method, "compile.lower")
    patch(KleisliEngine, "execute", "engine.execute", executed)

    engine_stream = KleisliEngine.stream
    traced_stream = recorder.wrap("engine.stream", engine_stream)

    def stream(self, *args, **kwargs):
        inner = traced_stream(self, *args, **kwargs)
        if not recorder.active:
            return inner
        return _TracedStream(recorder, inner, self.thread_eval_statistics())

    undo.append((KleisliEngine, "stream", engine_stream))
    KleisliEngine.stream = stream

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
    return uninstall


def wrap_drivers(recorder: Recorder, engine) -> None:
    """Record ``execute``/``execute_batch`` of each driver registered on
    ``engine`` (instance attributes: the engine's own dispatch tests, which
    look at the class, are unaffected)."""
    for driver in engine.drivers.values():
        driver.execute = recorder.wrap("drivers.execute", driver.execute)
        driver.execute_batch = recorder.wrap("drivers.execute_batch",
                                             driver.execute_batch)
