"""EMBL flat-file format (the two-letter line-code format, e.g. ``ID``, ``DE``, ``SQ``)."""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Union

from ..core.values import CList, CSet, Record

__all__ = ["EmblRecord", "read_embl", "write_embl", "embl_to_cpl"]


class EmblRecord(NamedTuple):
    identifier: str
    description: str
    organism: str
    keywords: List[str]
    references: List[str]
    sequence: str


def read_embl(text: str) -> List[EmblRecord]:
    return list(iter_embl(text))


def iter_embl(text: str) -> Iterator[EmblRecord]:
    identifier = ""
    description_parts: List[str] = []
    organism = ""
    keywords: List[str] = []
    references: List[str] = []
    sequence_parts: List[str] = []
    in_sequence = False
    seen_any = False

    def build() -> EmblRecord:
        return EmblRecord(identifier, " ".join(description_parts), organism,
                          list(keywords), list(references), "".join(sequence_parts).upper())

    for line_number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("//"):
            if seen_any:
                yield build()
            identifier, organism = "", ""
            description_parts, keywords, references, sequence_parts = [], [], [], []
            in_sequence = False
            seen_any = False
            continue
        code, _, body = line.partition("   ")
        code = line[:2]
        body = line[5:].strip() if len(line) > 5 else ""
        if code == "ID":
            identifier = body.split(";")[0].split()[0] if body else ""
            seen_any = True
        elif code == "DE":
            description_parts.append(body)
            seen_any = True
        elif code == "OS":
            organism = body
            seen_any = True
        elif code == "KW":
            keywords.extend(k.strip() for k in body.rstrip(".").split(";") if k.strip())
            seen_any = True
        elif code == "RT":
            references.append(body.strip('"').rstrip(";").strip('"'))
            seen_any = True
        elif code == "SQ":
            in_sequence = True
            seen_any = True
        elif in_sequence and line.startswith("  "):
            sequence_parts.append("".join(ch for ch in body if ch.isalpha()))
    if seen_any:
        yield build()


def write_embl(records: Iterable[Union[EmblRecord, Record]]) -> str:
    blocks: List[str] = []
    for record in records:
        if isinstance(record, Record):
            record = EmblRecord(
                str(record.get("identifier", "")),
                str(record.get("description", "")),
                str(record.get("organism", "")),
                [str(k) for k in record.get("keywords", CList())],
                [str(r) for r in record.get("references", CList())],
                str(record.get("sequence", "")),
            )
        lines = [f"ID   {record.identifier}; SV 1; linear; DNA; STD; HUM; {len(record.sequence)} BP."]
        if record.description:
            lines.append(f"DE   {record.description}")
        if record.organism:
            lines.append(f"OS   {record.organism}")
        if record.keywords:
            lines.append("KW   " + "; ".join(record.keywords) + ".")
        for reference in record.references:
            lines.append(f'RT   "{reference}";')
        lines.append(f"SQ   Sequence {len(record.sequence)} BP;")
        for start in range(0, len(record.sequence), 60):
            lines.append("     " + record.sequence[start:start + 60].lower())
        lines.append("//")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def embl_to_cpl(records: Iterable[EmblRecord]) -> CList:
    """Lift EMBL records into CPL values (keywords become a set, as in the Publication type)."""
    return CList(
        Record({
            "identifier": record.identifier,
            "description": record.description,
            "organism": record.organism,
            "keywd": CSet(record.keywords),
            "references": CList(record.references),
            "sequence": record.sequence,
        })
        for record in records
    )
