"""GCG (Wisconsin package) single-sequence format.

A GCG file has free-text comment lines, then a divider line ending in ``..``
that carries the name, length and checksum, then numbered sequence lines::

    perforin gene, human
    M81409  Length: 120  Check: 4556  ..

         1  acgtacgtac gtacgtacgt ...
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..core.errors import FormatError

__all__ = ["GcgRecord", "read_gcg", "write_gcg", "gcg_checksum"]


class GcgRecord(NamedTuple):
    name: str
    length: int
    checksum: int
    comment: str
    sequence: str


_DIVIDER_RE = re.compile(
    r"^\s*(\S+)\s+Length:\s*(\d+)\s+(?:.*?)Check:\s*(\d+)\s+\.\.\s*$"
)


def gcg_checksum(sequence: str) -> int:
    """The classic GCG checksum: position-weighted character sum modulo 10000."""
    total = 0
    for index, char in enumerate(sequence.upper()):
        total += ((index % 57) + 1) * ord(char)
    return total % 10000


def read_gcg(text: str) -> GcgRecord:
    """Parse a single-sequence GCG file."""
    comment_lines = []
    divider = None
    sequence_parts = []
    for line in text.splitlines():
        if divider is None:
            match = _DIVIDER_RE.match(line)
            if match:
                divider = match
                continue
            if line.strip():
                comment_lines.append(line.strip())
            continue
        cleaned = "".join(ch for ch in line if ch.isalpha())
        sequence_parts.append(cleaned.upper())
    if divider is None:
        raise FormatError("GCG file has no divider line (ending in '..')")
    name, length, checksum = divider.group(1), int(divider.group(2)), int(divider.group(3))
    sequence = "".join(sequence_parts)
    if length != len(sequence):
        raise FormatError(
            f"GCG length mismatch: divider says {length}, sequence has {len(sequence)}"
        )
    actual = gcg_checksum(sequence)
    if checksum != actual:
        raise FormatError(f"GCG checksum mismatch: divider says {checksum}, computed {actual}")
    return GcgRecord(name, length, checksum, " ".join(comment_lines), sequence)


def write_gcg(name: str, sequence: str, comment: str = "") -> str:
    """Render a sequence as a GCG file (with a correct checksum)."""
    sequence = sequence.upper()
    lines = []
    if comment:
        lines.append(comment)
        lines.append("")
    lines.append(f"{name}  Length: {len(sequence)}  Check: {gcg_checksum(sequence)}  ..")
    lines.append("")
    position = 1
    for start in range(0, len(sequence), 50):
        chunk = sequence[start:start + 50].lower()
        grouped = " ".join(chunk[i:i + 10] for i in range(0, len(chunk), 10))
        lines.append(f"{position:>8}  {grouped}")
        position += 50
    return "\n".join(lines) + "\n"
