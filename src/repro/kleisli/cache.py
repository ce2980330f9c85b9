"""The subquery result cache.

"To avoid recomputation, we have therefore introduced an operator to cache the
result of a subquery on disk."  The cache used by the evaluator's ``Cached``
node is a plain mapping; this module provides one that holds small results in
memory and spills large ones to disk (pickled), plus hit/miss accounting for
the benchmarks.  Nothing touches the disk until a value first spills: that
creates the cache's directory, which :meth:`SubqueryCache.clear` removes, and
so does collecting the cache.

One cache serves every run of an engine, with two lifetimes.  A key the
caching rule derived from a subquery's content (``Cached.CONTENT_PREFIX``
followed by the ``repr`` of the subquery's term fingerprint: no digest, so
two subqueries share it exactly when their fingerprints print alike) says
*which* subquery, not which bindings and source state it ran under, so its
entry is private to one run (:meth:`SubqueryCache.for_run`) and dropped after
it.  A key the caller named is shared by all runs.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from typing import Dict, Iterator, List, MutableMapping, Optional

from ..core.nrc.ast import Cached

__all__ = ["SubqueryCache"]


class SubqueryCache(MutableMapping):
    """A mapping from cache keys to materialised subquery results.

    Values whose pickled size exceeds ``spill_threshold_bytes`` are written to
    a temporary file and re-read on access, so a very large cached inner
    relation does not have to stay resident.
    """

    def __init__(self, spill_threshold_bytes: int = 1 << 20,
                 directory: Optional[str] = None):
        self.spill_threshold_bytes = spill_threshold_bytes
        self._memory: Dict[str, object] = {}
        self._spilled: Dict[str, str] = {}
        #: Where spilled values go: the caller's ``directory``, or one made at
        #: the first spill (``None`` until then) and removed by ``_removal``.
        self._directory = directory
        self._removal: Optional[weakref.finalize] = None
        #: Spill files are numbered, not named by the key's hash: two keys
        #: whose hashes collide must not share a file.
        self._files = itertools.count(1)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.spills = 0
        self._runs = itertools.count(1)
        self._dead: List[List[str]] = []

    # -- MutableMapping interface -------------------------------------------------

    def __setitem__(self, key: str, value: object) -> None:
        import pickle

        # Sized outside the lock: pickling a large result must not stall
        # every other session's lookups on the shared engine.
        try:
            payload = pickle.dumps(value)
        except Exception:
            payload = None      # unpicklable (closures etc.): stays in memory
        with self._lock:
            if payload is not None and len(payload) > self.spill_threshold_bytes:
                path = self._spilled.get(key) or self._spill_path()
                with open(path, "wb") as handle:
                    handle.write(payload)
                self._spilled[key] = path
                self._memory.pop(key, None)
                self.spills += 1
            else:
                self._memory[key] = value

    def _spill_path(self) -> str:
        if self._directory is None:
            import shutil
            import tempfile

            self._directory = tempfile.mkdtemp(prefix="kleisli-cache-")
            self._removal = weakref.finalize(self, shutil.rmtree, self._directory,
                                             True)   # ignore_errors
        return os.path.join(self._directory, f"{next(self._files)}.pkl")

    def __getitem__(self, key: str) -> object:
        with self._lock:
            if key in self._memory:
                self.hits += 1
                return self._memory[key]
            if key in self._spilled:
                import pickle

                self.hits += 1
                with open(self._spilled[key], "rb") as handle:
                    return pickle.load(handle)
            self.misses += 1
            raise KeyError(key)

    def __delitem__(self, key: str) -> None:
        with self._lock:
            if key in self._memory:
                del self._memory[key]
                return
            if key in self._spilled:
                path = self._spilled.pop(key)
                if os.path.exists(path):
                    os.unlink(path)
                return
            raise KeyError(key)

    def __contains__(self, key: object) -> bool:
        return key in self._memory or key in self._spilled

    def __iter__(self) -> Iterator[str]:
        yield from self._memory
        yield from self._spilled

    def __len__(self) -> int:
        return len(self._memory) + len(self._spilled)

    def for_run(self) -> "_RunView":
        """One run's window on the cache (see the module docstring)."""
        # A finalizer can run inside any allocation, one made under ``_lock``
        # included, so it only hands the dead run's keys over; they are
        # dropped here, when the next run starts.  Runs starting on two
        # threads may both find a list to drop: ``pop`` (atomic) decides.
        while True:
            try:
                keys = self._dead.pop()
            except IndexError:
                break
            for key in keys:
                try:
                    del self[key]
                except KeyError:    # cleared in the meantime
                    pass
        view = _RunView(self, f"@{next(self._runs)}")
        weakref.finalize(view, self._dead.append, view.owned)
        return view

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            for path in self._spilled.values():
                if os.path.exists(path):
                    os.unlink(path)
            self._spilled.clear()
            if self._removal is not None:
                self._removal()
                self._directory = self._removal = None


class _RunView:
    """The three operations a ``Cached`` node uses, scoped to one run.

    Content-derived keys are filed under the run's own suffix, and the
    entries go after the view does (it lives on the run's ``EvalContext``).
    Each key's entry string is built once per run: a cached index is probed
    once per outer row, and a probe then hashes nothing new.
    """

    __slots__ = ("_cache", "_suffix", "_entries", "owned", "__weakref__")

    def __init__(self, cache: SubqueryCache, suffix: str):
        self._cache = cache
        self._suffix = suffix
        self._entries: Dict[str, str] = {}
        self.owned: List[str] = []

    def _entry(self, key: str) -> str:
        entry = self._entries.get(key)
        if entry is None:
            if not key.startswith(Cached.CONTENT_PREFIX):
                return key
            entry = self._entries[key] = key + self._suffix
        return entry

    def __contains__(self, key: str) -> bool:
        return self._entry(key) in self._cache

    def __getitem__(self, key: str) -> object:
        return self._cache[self._entry(key)]

    def __setitem__(self, key: str, value: object) -> None:
        entry = self._entry(key)
        if entry is not key:
            self.owned.append(entry)
        self._cache[entry] = value
