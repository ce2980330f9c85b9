"""The flat-file driver: FASTA, EMBL, GCG and tab-delimited files.

Request vocabulary::

    {"format": "fasta", "file": "/path/to/file.fa"}
    {"format": "fasta", "text": ">x\\nACGT"}          -- inline text instead of a file
    {"format": "embl", ...} / {"format": "gcg", ...} / {"format": "tabular", ...}
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ...core.errors import DriverError
from ...core.values import Record
from ...formats.embl import embl_to_cpl, read_embl
from ...formats.fasta import fasta_to_cpl, read_fasta
from ...formats.gcg import read_gcg
from ...formats.tabular import read_tabular
from .base import Driver, DriverFunction

__all__ = ["FlatFileDriver"]


class FlatFileDriver(Driver):
    """Reads formatted files into CPL values."""

    capabilities = frozenset({"formats"})

    def __init__(self, name: str = "Files", root: Optional[str] = None):
        super().__init__(name)
        self.root = root

    def execute_batch(self, requests):
        """Native batched fetch: each distinct file is read once per batch.

        A chunk of Scan requests frequently targets the same flat file with
        different parse parameters; caching the raw text for the duration of
        the batch turns K reads of one file into one, while results keep
        request order and per-request shape (``Driver.execute_batch``'s
        contract).
        """
        text_cache: Dict[str, str] = {}
        results = []
        for request in requests:
            self.request_count += 1
            request = dict(request)
            if "text" not in request and "file" in request:
                path = str(request["file"])
                if path not in text_cache:
                    text_cache[path] = self._load_text(request)
                request["text"] = text_cache[path]
            results.append(self._execute(request))
        return results

    def _execute(self, request: Dict[str, object]):
        text = self._load_text(request)
        format_name = str(request.get("format", "fasta")).lower()
        if format_name == "fasta":
            return fasta_to_cpl(read_fasta(text))
        if format_name == "embl":
            return embl_to_cpl(read_embl(text))
        if format_name == "gcg":
            record = read_gcg(text)
            return Record({"name": record.name, "length": record.length,
                           "checksum": record.checksum, "comment": record.comment,
                           "sequence": record.sequence})
        if format_name == "tabular":
            return read_tabular(text)
        raise DriverError(f"flat-file driver does not understand format {format_name!r}")

    def _load_text(self, request: Dict[str, object]) -> str:
        if "text" in request:
            return str(request["text"])
        if "file" not in request:
            raise DriverError("flat-file request needs a 'file' path or inline 'text'")
        path = str(request["file"])
        if self.root is not None and not os.path.isabs(path):
            path = os.path.join(self.root, path)
        if not os.path.exists(path):
            raise DriverError(f"flat file {path!r} does not exist")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()

    def cpl_functions(self) -> List[DriverFunction]:
        return [
            DriverFunction(f"{self.name}-Read", {}, argument_is_record=True,
                           doc="read a formatted file: [format = \"fasta\", file = ...]"),
        ]
