"""An Entrez-like retrieval service over ASN.1 entries.

The real Entrez "simply selects ASN.1 values through pre-computed indexes; no
pruning or field selection from values can be performed".  This module
reproduces that interface:

* entries live in *divisions* (``na`` — nucleic acid / GenBank, ``aa`` —
  protein, ``ml`` — MEDLINE), stored as ASN.1 **text** plus their numeric UID;
* selection is by boolean combinations of ``index value`` pairs over
  pre-computed hash indexes (accession, organism, keyword, chromosome, ...);
* precomputed **neighbour links** (the NA-Links of the paper) connect a UID to
  records describing similar entries;
* the service answers with CPL values: it parses each selected entry's text,
  and with a path only what the path selects
  (:func:`repro.asn1.parser.parse_value_with_path`, the paper's pruning at
  the ASN.1 driver), so the Kleisli driver takes each reply as it is.

The query syntax for :meth:`EntrezDivision.select`::

    query  := clause ("AND" clause)*  ("OR" also accepted between clauses)
    clause := index value             e.g.  accession M81409
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..core import types as T
from ..core.errors import ASN1Error
from .parser import parse_value, parse_value_with_path
from .path import PathExpression, parse_path
from .printer import print_value

__all__ = ["EntrezEntry", "LinkSet", "EntrezDivision", "EntrezServer"]


class EntrezEntry:
    """One stored entry: a UID, its ASN.1 text, and its indexable attributes."""

    __slots__ = ("uid", "text", "attributes")

    def __init__(self, uid: int, text: str, attributes: Dict[str, Sequence[str]]):
        self.uid = uid
        self.text = text
        # attribute name -> list of values this entry is indexed under
        self.attributes = {key: list(values) for key, values in attributes.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EntrezEntry(uid={self.uid})"


class LinkSet:
    """Precomputed neighbour links from one entry to others (NA-Links)."""

    __slots__ = ("uid", "links")

    def __init__(self, uid: int):
        self.uid = uid
        # Each link is a dict: target uid, target division, score, organism...
        self.links: List[Dict[str, object]] = []

    def add(self, target_uid: int, division: str, score: float,
            organism: str = "", title: str = "") -> None:
        self.links.append({
            "uid": target_uid,
            "db": division,
            "score": score,
            "organism": organism,
            "title": title,
        })

    def __len__(self) -> int:
        return len(self.links)


class EntrezDivision:
    """One division (database) of the server: entries + indexes + links."""

    def __init__(self, name: str, entry_type: T.Type):
        self.name = name
        self.entry_type = entry_type
        self.entries: Dict[int, EntrezEntry] = {}
        self.indexes: Dict[str, Dict[str, Set[int]]] = {}
        self.links: Dict[int, LinkSet] = {}
        self._next_uid = 1

    # -- loading ------------------------------------------------------------------

    def add_entry(self, value: object, attributes: Dict[str, Sequence[str]],
                  uid: Optional[int] = None) -> int:
        """Store a CPL value as ASN.1 text, indexing it under ``attributes``."""
        if uid is None:
            uid = self._next_uid
        self._next_uid = max(self._next_uid, uid + 1)
        text = print_value(value)
        entry = EntrezEntry(uid, text, attributes)
        self.entries[uid] = entry
        for index_name, values in attributes.items():
            index = self.indexes.setdefault(index_name, {})
            for index_value in values:
                index.setdefault(str(index_value).lower(), set()).add(uid)
        return uid

    def add_link(self, source_uid: int, target_uid: int, division: str,
                 score: float, organism: str = "", title: str = "") -> None:
        self.links.setdefault(source_uid, LinkSet(source_uid)).add(
            target_uid, division, score, organism, title)

    # -- the Entrez interface --------------------------------------------------------

    def select(self, query: str) -> List[int]:
        """Evaluate a boolean index query and return matching UIDs (sorted)."""
        if not query.strip():
            return sorted(self.entries)
        tokens = query.split()
        result: Optional[Set[int]] = None
        operator = "AND"
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.upper() in ("AND", "OR"):
                operator = token.upper()
                index += 1
                continue
            if index + 1 >= len(tokens):
                raise ASN1Error(f"malformed Entrez query {query!r}: index without a value")
            index_name, value = token, tokens[index + 1]
            index += 2
            matches = self._lookup(index_name, value)
            if result is None:
                result = matches
            elif operator == "AND":
                result &= matches
            else:
                result |= matches
        return sorted(result or set())

    def _lookup(self, index_name: str, value: str) -> Set[int]:
        index = self.indexes.get(index_name)
        if index is None:
            raise ASN1Error(
                f"division {self.name!r} has no pre-computed index {index_name!r} "
                f"(available: {sorted(self.indexes)})"
            )
        return set(index.get(value.lower(), set()))

    def fetch_text(self, uid: int) -> str:
        try:
            return self.entries[uid].text
        except KeyError:
            raise ASN1Error(f"division {self.name!r} has no entry with uid {uid}")

    def fetch(self, uid: int, path: Optional[PathExpression] = None) -> object:
        """Fetch an entry as a CPL value, optionally pruning with ``path`` during the parse."""
        text = self.fetch_text(uid)
        if path is None:
            return parse_value(text, self.entry_type)
        return parse_value_with_path(text, self.entry_type, path)

    def neighbours(self, uid: int) -> List[Dict[str, object]]:
        """Return the precomputed link records for ``uid`` (NA-Links)."""
        link_set = self.links.get(uid)
        if link_set is None:
            return []
        return [dict(link) for link in link_set.links]

    def __len__(self) -> int:
        return len(self.entries)


class EntrezServer:
    """A set of divisions plus the call-level interface the driver talks to."""

    def __init__(self, name: str = "NCBI"):
        self.name = name
        self.divisions: Dict[str, EntrezDivision] = {}
        #: The most recent requests (a bounded window, not a history).
        self.request_log: Deque[Dict[str, object]] = deque(maxlen=256)

    def create_division(self, name: str, entry_type: T.Type) -> EntrezDivision:
        division = EntrezDivision(name, entry_type)
        self.divisions[name] = division
        return division

    def division(self, name: str) -> EntrezDivision:
        try:
            return self.divisions[name]
        except KeyError:
            raise ASN1Error(f"Entrez server {self.name!r} has no division {name!r}")

    # -- request interface used by the Kleisli driver ----------------------------------

    def query(self, db: str, select: str, path: Optional[str] = None) -> List[object]:
        """Select entries by index query and return (optionally pruned) values."""
        self.request_log.append({"db": db, "select": select, "path": path})
        division = self.division(db)
        parsed_path = parse_path(path) if path else None
        results = []
        for uid in division.select(select):
            results.append(division.fetch(uid, parsed_path))
        return results

    def query_uids(self, db: str, select: str) -> List[int]:
        self.request_log.append({"db": db, "select": select, "uids": True})
        return self.division(db).select(select)

    def fetch(self, db: str, uid: int, path: Optional[str] = None) -> object:
        self.request_log.append({"db": db, "uid": uid, "path": path})
        parsed_path = parse_path(path) if path else None
        return self.division(db).fetch(uid, parsed_path)

    def links(self, db: str, uid: int) -> List[Dict[str, object]]:
        self.request_log.append({"db": db, "uid": uid, "links": True})
        return self.division(db).neighbours(uid)
