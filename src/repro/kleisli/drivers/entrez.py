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
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ...asn1.entrez import EntrezServer
from ...core.errors import DriverError
from ...core.values import CSet, from_python, lift_elements
from ...net.remote import RemoteSource
from ..tokens import TokenStream
from .base import Driver, DriverFunction

__all__ = ["EntrezDriver"]


class EntrezDriver(Driver):
    """Drives an :class:`repro.asn1.entrez.EntrezServer`, optionally through a remote wrapper."""

    capabilities = frozenset({"index-select", "path", "links"})

    def __init__(self, name: str, server: EntrezServer,
                 remote: Optional[RemoteSource] = None, lazy: bool = False):
        super().__init__(name)
        self.server = server
        self.remote = remote
        self.lazy = lazy

    @classmethod
    def with_latency(cls, name: str, server: EntrezServer, latency: float = 0.02,
                     max_concurrent_requests: int = 5, lazy: bool = False) -> "EntrezDriver":
        """Build a driver whose server sits behind a simulated remote link."""
        remote = RemoteSource(
            name,
            lambda method, *args, **kwargs: getattr(server, method)(*args, **kwargs),
            latency=latency,
            max_concurrent_requests=max_concurrent_requests,
        )
        return cls(name, server, remote=remote, lazy=lazy)

    def _call(self, method: str, *args, **kwargs):
        if self.remote is not None:
            return self.remote.call(method, *args, **kwargs)
        return getattr(self.server, method)(*args, **kwargs)

    def _execute(self, request: Dict[str, object]):
        db = str(request.get("db", "na"))
        if request.get("links") is not None and request.get("links") is not False:
            uid = request["links"] if not isinstance(request.get("links"), bool) else request.get("uid")
            if uid is None:
                raise DriverError("links request needs a 'links' or 'uid' value")
            link_rows = self._call("links", db, int(uid))
            return CSet(lift_elements(link_rows))
        if "fetch" in request:
            value = self._call("fetch", db, int(request["fetch"]),
                               request.get("path") or None)
            return from_python(value) if not _is_cpl(value) else value
        if "select" in request:
            if request.get("uids"):
                uids = self._call("query_uids", db, str(request["select"]))
                return CSet(uids)
            values = self._call("query", db, str(request["select"]),
                                request.get("path") or None)
            lifted = [value if _is_cpl(value) else from_python(value) for value in values]
            # A path ending on a collection (e.g. ...id..giim) yields one set per
            # entry; the driver returns their union so generators iterate the ids
            # themselves, as in the paper's ASN-IDs example.
            if lifted and all(isinstance(value, (CSet,)) or
                              type(value).__name__ in ("CBag", "CList") for value in lifted):
                flattened = []
                for value in lifted:
                    flattened.extend(value)
                lifted = flattened
            if self.lazy:
                return TokenStream(iter(lifted), kind="set")
            return CSet(lifted)
        raise DriverError(
            f"Entrez driver {self.name!r} needs a 'select', 'fetch' or 'links' request, "
            f"got {sorted(request)}"
        )

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


def _is_cpl(value: object) -> bool:
    from ...core.values import CBag, CList, CSet, Record, Unit, Variant

    return isinstance(value, (Record, Variant, CSet, CBag, CList, Unit, str, int, float, bool))
