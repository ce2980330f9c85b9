"""Token streams.

"Token streams are important for passing data between CPL and the underlying
data sources, and provide Kleisli the mechanisms for laziness, pipelining and
fast response."  A :class:`TokenStream` wraps an iterator of CPL values coming
out of a driver; the evaluator can consume it incrementally (so the first
result of a query is available before the source is exhausted), and anything
that needs the whole collection can materialise it once.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, List, Optional

from ..core.errors import EvaluationError
from ..core.values import make_collection

__all__ = ["TokenStream"]


class TokenStream:
    """A lazily produced stream of CPL values with a declared collection kind.

    The stream can be iterated exactly once lazily; :meth:`to_collection`
    buffers what has been produced and returns the complete collection.  The
    ``first_item_callback`` hook is used by benchmarks to timestamp the moment
    the first element crosses the driver boundary (response time).
    """

    def __init__(self, items: Iterable[object], kind: str = "set",
                 first_item_callback: Optional[Callable[[], None]] = None):
        self._iterator = iter(items)
        self.kind = kind
        self._buffer: List[object] = []
        self._exhausted = False
        self._closed = False
        self._first_seen = False
        self._first_item_callback = first_item_callback
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[object]:
        for item in self._buffer:
            yield item
        while True:
            with self._lock:
                if self._exhausted:
                    return
                if self._closed:
                    raise EvaluationError(
                        "token stream was closed before being drained")
                try:
                    item = next(self._iterator)
                except StopIteration:
                    self._exhausted = True
                    return
                self._buffer.append(item)
                if not self._first_seen:
                    self._first_seen = True
                    if self._first_item_callback is not None:
                        self._first_item_callback()
            yield item

    def to_collection(self):
        """Force the stream and return it as a collection of its declared kind."""
        remaining = list(self)
        return make_collection(self.kind, self._buffer if self._exhausted else remaining)

    def close(self) -> None:
        """Stop the stream and release its underlying cursor.

        Called by the engine when a pipelined query is abandoned before the
        source is exhausted; a driver generator's ``finally`` blocks run so
        its cursors do not stay open.  A closed (but not exhausted) stream is
        poisoned: iterating or materialising it raises rather than silently
        presenting the partial buffer as the complete collection.  Closing an
        already-drained stream is a no-op.
        """
        with self._lock:
            if self._exhausted or self._closed:
                return
            self._closed = True
            close = getattr(self._iterator, "close", None)
            if close is not None:
                close()

    def materialised_count(self) -> int:
        """How many elements have crossed the driver boundary so far."""
        return len(self._buffer)

    @property
    def exhausted(self) -> bool:
        """True once the underlying cursor has been fully drained."""
        return self._exhausted

    @property
    def closed(self) -> bool:
        """True if the stream was closed before being drained (poisoned)."""
        return self._closed

    def __enter__(self) -> "TokenStream":
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager support: releases the cursor on exit.

        This is the same contract an :class:`~repro.core.nrc.eval.EvalScope`
        applies when the engine registers the stream inside a pipelined run —
        a drained stream is untouched, an abandoned one is closed.
        """
        self.close()
