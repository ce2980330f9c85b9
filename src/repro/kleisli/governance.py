"""Query lifecycle governance: cancellation, memory budgets, engine books.

The server multiplexes many sessions onto ONE shared engine, so a single
runaway query — a huge blocked-join build side, an unbounded dedup seen-set,
an eager section over a hot source — can pin memory and CPU for every other
session.  This module supplies the three primitives the engine threads
through its layers to stop that:

``CancellationToken``
    Cooperative cancellation.  The engine plants the token on
    ``EvalContext.cancellation`` and every lowering checks it at its natural
    scheduling points (chunk boundaries, eager loop heads,
    pre-driver-dispatch).  Cancellation raises a typed
    :class:`~repro.core.errors.QueryCancelledError` from *inside* the run's
    ``EvalScope``, so every cursor the run opened is released on the way out.

``MemoryBudget``
    A hierarchical accountant (query → session → engine pool) charged by the
    known unbounded materialization points.  Values are *estimated* bytes —
    element counts times :data:`NOMINAL_ROW_BYTES` — because exact Python
    object sizing is both slow and unstable; the budget is an admission
    gate, not an allocator.  Exceeding any level raises a typed
    :class:`~repro.core.errors.MemoryBudgetExceededError` unless a spill
    backend was attached (see :mod:`repro.kleisli.spill`), in which case the
    query degrades to slower-but-correct disk-backed execution.

``QueryGovernor``
    The engine-wide ledger: cancellations, spills, bytes spilled, budget
    rejections, watchdog kills — surfaced in ``engine.health()`` and the
    server ``stats`` op — plus the optional engine-wide memory pool that
    per-query budgets parent into.

Zero-governance contract: every hook is ``None``-guarded.  A query run with
no token and no budget takes exactly the pre-governance code paths —
pinned by the differential suite the same way PR 5 pinned zero-statistics
and PR 8 pinned zero-knowledge.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..core.errors import MemoryBudgetExceededError, QueryCancelledError
from ..obs.metrics import Books

__all__ = [
    "CancellationToken",
    "MemoryBudget",
    "QueryGovernor",
    "NOMINAL_ROW_BYTES",
]

#: Estimated bytes charged per materialized element.  Deliberately a round
#: nominal figure (a small record's directory pointer + value tuple + set
#: slot): budgets gate *admission*, they do not meter the allocator, and a
#: stable unit keeps plan-gating (estimated rows × unit vs. budget)
#: deterministic across platforms.
NOMINAL_ROW_BYTES = 64


class CancellationToken:
    """A cooperative, idempotent cancellation flag for one query run.

    Thread-safe: ``cancel()`` may be called from any thread (the server's
    watchdog, a ``cancel`` wire op, a timeout handler) while the query runs
    on another.  The query observes it only at checkpoints —
    ``raise_if_cancelled()`` — so evaluation is never interrupted mid-value;
    a cancelled run either completes a checkpoint-free tail or raises the
    typed error with no partial value emitted past the checkpoint.
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: str = "query cancelled") -> None:
        """Request cancellation.  Idempotent; the first reason wins."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        return self._reason if self._event.is_set() else None

    def raise_if_cancelled(self) -> None:
        """The checkpoint: raise :class:`QueryCancelledError` if cancelled."""
        if self._event.is_set():
            raise QueryCancelledError(self._reason or "query cancelled")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = f"cancelled: {self._reason!r}" if self.cancelled else "live"
        return f"CancellationToken({state})"


class MemoryBudget:
    """A hierarchical memory accountant: charges walk up to every ancestor.

    A per-query budget typically parents into a per-session budget which
    parents into the engine-wide pool, so one charge is admitted only if
    *every* level has room — the session cap protects the engine from one
    greedy session, the pool protects the process from all sessions at once.

    ``charge``/``release`` take estimated bytes; ``charge_elements`` is the
    convenience most call sites use (count × :data:`NOMINAL_ROW_BYTES`).
    ``close()`` returns the budget's entire outstanding usage to its
    ancestors — the engine calls it in the run's ``finally`` so a failed or
    cancelled query can never leak pool capacity.
    """

    __slots__ = ("label", "limit", "parent", "_lock", "_used", "_peak",
                 "_closed")

    def __init__(self, limit: Optional[int], label: str = "query",
                 parent: Optional["MemoryBudget"] = None):
        if limit is not None and limit <= 0:
            raise ValueError(f"memory budget limit must be positive, got {limit}")
        self.label = label
        self.limit = limit
        self.parent = parent
        self._lock = threading.Lock()
        self._used = 0
        self._peak = 0
        self._closed = False

    # -- accounting ---------------------------------------------------------

    def charge(self, nbytes: int) -> None:
        """Admit ``nbytes`` at this level and every ancestor, or raise.

        On rejection at any level, charges already admitted at lower levels
        are rolled back, so a failed charge is a no-op on the books.
        """
        if nbytes <= 0:
            return
        node: Optional[MemoryBudget] = self
        charged = []
        try:
            while node is not None:
                node._charge_one(nbytes)
                charged.append(node)
                node = node.parent
        except MemoryBudgetExceededError:
            for paid in charged:
                paid._release_one(nbytes)
            raise

    def charge_elements(self, count: int) -> None:
        """Charge ``count`` materialized elements at the nominal row size."""
        if count > 0:
            self.charge(count * NOMINAL_ROW_BYTES)

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to this level and every ancestor."""
        if nbytes <= 0:
            return
        node: Optional[MemoryBudget] = self
        while node is not None:
            node._release_one(nbytes)
            node = node.parent

    def release_elements(self, count: int) -> None:
        if count > 0:
            self.release(count * NOMINAL_ROW_BYTES)

    def close(self) -> None:
        """Return all outstanding usage to the ancestors (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = self._used
            self._used = 0
        node = self.parent
        while node is not None:
            node._release_one(outstanding)
            node = node.parent

    # -- single-level primitives --------------------------------------------

    def _charge_one(self, nbytes: int) -> None:
        with self._lock:
            new_used = self._used + nbytes
            if self.limit is not None and new_used > self.limit:
                raise MemoryBudgetExceededError(
                    self.label, nbytes, self.limit, self._used)
            self._used = new_used
            if new_used > self._peak:
                self._peak = new_used

    def _release_one(self, nbytes: int) -> None:
        with self._lock:
            self._used = max(0, self._used - nbytes)

    # -- introspection ------------------------------------------------------

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    @property
    def peak(self) -> int:
        with self._lock:
            return self._peak

    def headroom(self) -> Optional[int]:
        """Bytes admittable before *this level* rejects (``None`` = unbounded)."""
        if self.limit is None:
            return None
        with self._lock:
            return max(0, self.limit - self._used)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cap = "unbounded" if self.limit is None else str(self.limit)
        return (f"MemoryBudget({self.label!r}, used={self.used}, "
                f"limit={cap})")


class QueryGovernor(Books):
    """The engine's governance ledger plus the optional engine-wide pool.

    One instance per :class:`~repro.kleisli.engine.KleisliEngine`.  Book
    increments come from everywhere governance acts — the engine's run
    finalizer (cancellations, budget rejections, and each spill manager's
    books, merged in), the server watchdog (watchdog_kills) — and are
    surfaced as the ``governance`` section of ``engine.health()`` and the
    server ``stats`` op, so the differential/soak suites can assert the
    books balance.
    """

    BOOK_KEYS = ("cancellations", "spills", "bytes_spilled", "rows_spilled",
                 "budget_rejections", "watchdog_kills")

    __slots__ = ("pool",)

    def __init__(self, pool_limit: Optional[int] = None):
        super().__init__(self.BOOK_KEYS)
        #: The engine-wide memory pool per-query budgets parent into; ``None``
        #: when the engine runs without a pool cap.
        self.pool: Optional[MemoryBudget] = (
            MemoryBudget(pool_limit, label="engine")
            if pool_limit is not None else None)

    def snapshot(self) -> Dict[str, int]:
        books = super().snapshot()
        if self.pool is not None:
            books["pool_used_bytes"] = self.pool.used
            books["pool_limit_bytes"] = self.pool.limit
        return books
