"""The driver protocol.

A driver has:

* a **name** (the name it is registered under — ``"GDB"``, ``"GenBank"`` ...),
* a set of **capabilities** the optimizer's pushdown rules consult
  (``"sql"`` — accepts SQL text and understands ``columns`` / ``where``
  requests; ``"path"`` — accepts path-extraction expressions; ``"links"`` —
  serves precomputed neighbour links; ``"index-select"`` — boolean index
  queries),
* an :meth:`~Driver.execute` method taking a plain request dictionary and
  returning CPL values (or a :class:`~repro.kleisli.tokens.TokenStream`),
* a set of **CPL functions** (:class:`DriverFunction`) the session binds when
  the driver is registered — e.g. ``GDB``, ``GDB-Tab`` for a relational driver
  — each of which is compiled into a :class:`~repro.core.nrc.ast.Scan` so the
  optimizer can rewrite the request.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from ...core.errors import DriverError
from ...core.values import Record, to_python

__all__ = ["Driver", "DriverFunction"]


class DriverFunction:
    """Describes one CPL-callable entry point of a driver.

    ``request_template`` holds the constant part of the Scan request;
    ``argument_key`` names the request key the function's CPL argument fills
    in.  When ``argument_is_record`` is true the argument is a record whose
    fields are merged into the request (``GDB([query = ...])``); otherwise the
    argument value is stored under ``argument_key`` (``GDB-Tab("locus")``).
    """

    def __init__(self, name: str, request_template: Mapping[str, object],
                 argument_key: Optional[str] = None, argument_is_record: bool = False,
                 result_kind: str = "set", doc: str = ""):
        self.name = name
        self.request_template = dict(request_template)
        self.argument_key = argument_key
        self.argument_is_record = argument_is_record
        self.result_kind = result_kind
        self.doc = doc

    def build_request(self, argument: object) -> Dict[str, object]:
        """Build a concrete request from an evaluated CPL argument value."""
        request = dict(self.request_template)
        if self.argument_is_record:
            if not isinstance(argument, Record):
                raise DriverError(
                    f"driver function {self.name!r} expects a record argument"
                )
            for label, value in argument.items():
                request[label] = to_python(value)
        elif self.argument_key is not None:
            request[self.argument_key] = to_python(argument) \
                if isinstance(argument, Record) else argument
        return request


class Driver:
    """Base class for Kleisli drivers."""

    #: Capability tags the optimizer's pushdown rules look at.
    capabilities: FrozenSet[str] = frozenset()

    #: Set by drivers whose native :meth:`execute_batch` performs ONE wire
    #: round-trip for the whole batch (e.g. the relational driver's
    #: ``call_batch``).  The engine then records no per-request latency
    #: sample for batched dispatch — the batch elapsed time has no sound
    #: per-request decomposition.  Drivers whose native batch still performs
    #: per-request work (the flat-file driver's cached reads) leave this
    #: False: the mean per-request elapsed IS their true per-request cost,
    #: and feeds the observed-latency EMA like individual requests would.
    batch_single_round_trip: bool = False

    def __init__(self, name: str):
        self.name = name
        self.request_count = 0
        self.session_open = False

    # -- session management (the paper's "logging in / logging out") ---------------

    def open(self) -> None:
        self.session_open = True

    def close(self) -> None:
        self.session_open = False

    # -- requests ----------------------------------------------------------------

    def execute(self, request: Mapping[str, object]):
        """Satisfy a request; subclasses implement :meth:`_execute`."""
        self.request_count += 1
        return self._execute(dict(request))

    def execute_batch(self, requests: Sequence[Mapping[str, object]]) -> List[object]:
        """Satisfy several requests in one call (the chunked pipeline's
        batched fetch extension point).

        The engine's ``driver_executor_batch`` routes a whole chunk's worth
        of Scan requests here.  The contract: result ``i`` corresponds to
        request ``i``, exactly as ``len(requests)`` separate
        :meth:`execute` calls would produce — which is also the default
        implementation, so drivers need not opt in.  Drivers with a cheaper
        native form override this: the relational driver ships the batch
        over one remote round-trip, the flat-file driver reads each distinct
        file once per batch.
        """
        return [self.execute(request) for request in requests]

    def _execute(self, request: Dict[str, object]):
        raise NotImplementedError

    # -- CPL integration -------------------------------------------------------------

    def cpl_functions(self) -> List[DriverFunction]:
        """The CPL-callable functions this driver contributes to a session."""
        return []

    def collection_names(self) -> List[str]:
        """Names of the collections (tables, divisions, classes) this driver serves."""
        return []

    def cardinality(self, collection: str) -> Optional[int]:
        """Best-known size of a collection, for the statistics registry."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r})"
