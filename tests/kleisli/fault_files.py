"""Fault-injecting file fixtures for the plan-store crash suite.

:class:`FaultInjectingOpener` is the one storage fault model the
persistence tests use (the file-level sibling of
:mod:`fault_drivers`' driver faults): an ``open``-compatible callable whose
handles can be told, per byte offset, to die mid-write — the write stops
after ``crash_after_bytes`` of the *total* bytes ever written through the
opener have reached the file, and every later operation raises ``OSError``
as a killed process's descriptors would.  Because the cut is by byte, not
by record, the surviving file ends in a torn frame: exactly what a power
cut mid-``write`` leaves on disk.

With ``kill=True`` the crash raises :class:`Killed` instead of
``OSError``: the process died, so nothing in it may clean up after the
write (a ``BaseException``, which no ``except OSError`` catches).

``fail_writes_from`` instead makes whole write calls fail (with the bytes
*not* written) from the Nth write onward — the full-disk model, which must
degrade to a failed, counted write, never an exception escaping into query
execution.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = ["FaultInjectingOpener", "Killed"]


class Killed(BaseException):
    """The writing process died mid-write."""


class FaultInjectingOpener:
    """An ``open()`` stand-in whose handles can crash mid-write.

    ``crash_after_bytes``   total bytes (across all handles this opener
                            created, in write order) after which a write is
                            cut short *mid-record* and the handle dies —
                            the partial prefix reaches the file, the rest
                            never does, and all later calls raise
                            ``OSError``.
    ``fail_writes_from``    1-based write ordinal from which whole write
                            calls raise ``OSError`` without writing (disk
                            full); flush/close keep working.

    Counters (``bytes_written``, ``writes``, ``faults``) are lock-guarded
    so concurrent-writer tests can share one opener.
    """

    def __init__(self, crash_after_bytes: Optional[int] = None,
                 fail_writes_from: Optional[int] = None, kill: bool = False):
        self.crash_after_bytes = crash_after_bytes
        self.fail_writes_from = fail_writes_from
        self.kill = kill
        self.bytes_written = 0
        self.writes = 0
        self.faults = 0
        self.crashed = False
        self._lock = threading.Lock()

    def __call__(self, path, mode="rb", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        if "r" in mode and "+" not in mode:
            return handle  # reads are never faulted; recovery is the test
        return _FaultyWriteHandle(handle, self)

    # -- the fault decisions, shared across handles --------------------------

    def _before_write(self, data: bytes) -> bytes:
        """How much of this write may proceed; raises on a whole-call fault."""
        with self._lock:
            self.writes += 1
            if self.crashed:
                self.faults += 1
                raise OSError("injected: file handle died earlier")
            if self.fail_writes_from is not None \
                    and self.writes >= self.fail_writes_from:
                self.faults += 1
                raise OSError("injected: disk full")
            if self.crash_after_bytes is not None:
                budget = self.crash_after_bytes - self.bytes_written
                if budget < len(data):
                    # The crash: a partial prefix lands, then the lights
                    # go out for every handle of this opener.
                    self.crashed = True
                    self.faults += 1
                    self.bytes_written += max(0, budget)
                    return data[:max(0, budget)]
            self.bytes_written += len(data)
            return data

    def _check_alive(self) -> None:
        with self._lock:
            if self.crashed:
                raise OSError("injected: file handle died earlier")


class _FaultyWriteHandle:
    """One writable handle routing its writes through the opener's faults."""

    def __init__(self, handle, opener: FaultInjectingOpener):
        self._handle = handle
        self._opener = opener

    def write(self, data: bytes) -> int:
        allowed = self._opener._before_write(bytes(data))
        if allowed:
            self._handle.write(allowed)
            self._handle.flush()
        if len(allowed) < len(data):
            raise (Killed if self._opener.kill else OSError)(
                "injected: crash mid-write")
        return len(allowed)

    def flush(self) -> None:
        self._opener._check_alive()
        self._handle.flush()

    def fileno(self) -> int:
        self._opener._check_alive()
        return self._handle.fileno()

    def tell(self) -> int:
        return self._handle.tell()

    def truncate(self, size: Optional[int] = None) -> int:
        # A dead handle cannot repair its torn tail — exactly the state a
        # killed process leaves behind.
        self._opener._check_alive()
        return self._handle.truncate(size)

    def close(self) -> None:
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)
