"""The ASN.1 / Entrez (GenBank) driver.

Request vocabulary::

    {"db": "na", "select": "accession M81409", "path": "Seq-entry.seq.id..giim"}
        index selection, with optional pruning-during-parse by path
    {"db": "na", "select": "...", "uids": True}
        return matching UIDs only
    {"db": "na", "fetch": <uid>, "path": ...}
        fetch one entry (optionally pruned)
    {"db": "na", "links": <uid>}
        precomputed neighbour links (NA-Links)

Because Entrez has no server-side query language, the only things that can be
"pushed" to this driver are the index query and the path — which is exactly
what the paper's optimizer migrates (experiment E5).

The driver only calls the :class:`~repro.asn1.entrez.EntrezServer` it is
given, and names the class only in annotations: importing this module does
not import the ASN.1 machinery, which loads when the server is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ...core.errors import DriverError
from ...core.values import CBag, CList, CSet, _lift_collection
from ...net.remote import RemoteSource
from ..tokens import TokenStream
from .base import Driver, DriverFunction

if TYPE_CHECKING:
    from ...asn1.entrez import EntrezServer

__all__ = ["EntrezDriver"]


class EntrezDriver(Driver):
    """Drives an :class:`repro.asn1.entrez.EntrezServer`, optionally through a remote wrapper."""

    capabilities = frozenset({"index-select", "path", "links"})
    #: The native execute_batch ships the whole batch in one remote round
    #: trip (see Driver.batch_single_round_trip).
    batch_single_round_trip = True

    def __init__(self, name: str, server: EntrezServer,
                 remote: Optional[RemoteSource] = None, lazy: bool = False):
        super().__init__(name)
        self.server = server
        self.remote = remote
        self.lazy = lazy

    @classmethod
    def with_latency(cls, name: str, server: EntrezServer, latency: float = 0.02,
                     max_concurrent_requests: int = 5, lazy: bool = False) -> "EntrezDriver":
        """Build a driver whose server sits behind a simulated remote link.

        A request crosses the link as one ``(method, *args)`` payload, so a
        batch of them is one :meth:`~repro.net.remote.RemoteSource.call_batch`.
        """
        remote = RemoteSource(
            name, lambda payload: getattr(server, payload[0])(*payload[1:]),
            latency=latency,
            max_concurrent_requests=max_concurrent_requests,
        )
        return cls(name, server, remote=remote, lazy=lazy)

    def _execute(self, request: Dict[str, object]):
        payload, finish = self._plan(request)
        if self.remote is not None:
            return finish(self.remote.call(payload))
        return finish(getattr(self.server, payload[0])(*payload[1:]))

    def execute_batch(self, requests):
        """Native batched fetch: one remote round trip for the whole batch.

        Like :meth:`RelationalDriver.execute_batch
        <repro.kleisli.drivers.relational.RelationalDriver.execute_batch>`:
        every request is planned up front, the payloads ship together over
        ``call_batch`` (one admission slot, one latency), and results come
        back in request order, shaped as :meth:`execute` shapes them.
        Without a remote link the server is local and looping is as good.
        """
        if self.remote is None:
            return [self.execute(request) for request in requests]
        plans = [self._plan(dict(request)) for request in requests]
        self.request_count += len(plans)
        raws = self.remote.call_batch([payload for payload, _ in plans])
        return [finish(raw) for (_, finish), raw in zip(plans, raws)]

    def _plan(self, request: Dict[str, object]):
        """``(payload, finish)``: the server call a request makes, and what
        turns the server's reply into the driver's value."""
        db = str(request.get("db", "na"))
        if request.get("links") is not None and request.get("links") is not False:
            uid = request["links"] if not isinstance(request.get("links"), bool) else request.get("uid")
            if uid is None:
                raise DriverError("links request needs a 'links' or 'uid' value")
            return ("links", db, int(uid)), _link_set
        if "fetch" in request:
            return (("fetch", db, int(request["fetch"]), request.get("path") or None),
                    _as_parsed)
        if "select" in request:
            if request.get("uids"):
                return ("query_uids", db, str(request["select"])), CSet
            return (("query", db, str(request["select"]), request.get("path") or None),
                    self._selected)
        raise DriverError(
            f"Entrez driver {self.name!r} needs a 'select', 'fetch' or 'links' request, "
            f"got {sorted(request)}"
        )

    def _selected(self, values):
        # A path ending on a collection (e.g. ...id..giim) yields one set per
        # entry; the driver returns their union so generators iterate the ids
        # themselves, as in the paper's ASN-IDs example.
        if values and all(isinstance(value, (CSet, CBag, CList)) for value in values):
            values = [element for value in values for element in value]
        if self.lazy:
            return TokenStream(iter(values), kind="set")
        return CSet(values)

    # -- CPL integration ---------------------------------------------------------------

    def cpl_functions(self) -> List[DriverFunction]:
        return [
            DriverFunction(self.name, {}, argument_is_record=True,
                           doc=f"send an index-selection request to {self.name} "
                               "(e.g. [db = \"na\", select = ..., path = ...])"),
            DriverFunction("NA-Links", {"db": "na"}, argument_key="links",
                           doc="precomputed similarity links for an ASN.1 sequence id"),
        ]

    def collection_names(self) -> List[str]:
        return sorted(self.server.divisions)

    def cardinality(self, collection: str) -> Optional[int]:
        if collection in self.server.divisions:
            return len(self.server.divisions[collection])
        return None


def _link_set(link_rows) -> CSet:
    return _lift_collection("set", link_rows)


def _as_parsed(value: object) -> object:
    """The server parses entries into CPL values: a reply is the driver's value."""
    return value
