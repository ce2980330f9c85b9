"""A GenBank-shaped Entrez server.

GenBank entries are ASN.1 ``Seq-entry`` values; Entrez exposes them through
pre-computed indexes and neighbour links.  :func:`build_genbank` generates
Seq-entries whose accessions line up with the GDB loci from
:func:`repro.bio.gdb.build_gdb`, plus homologous entries from other organisms
(derived by mutating the human sequences), and computes NA-Links between them
with the Smith–Waterman/k-mer machinery — the same pipeline NCBI ran with
BLAST to precompute its links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.values import CSet, Record, Variant
from .gdb import accession_for_locus
from .sequences import SequenceGenerator
from .similarity import similarity_search

if TYPE_CHECKING:
    from ..asn1.entrez import EntrezServer
    from ..asn1.typespec import Asn1Schema

__all__ = ["SEQ_ENTRY_SPEC", "build_genbank", "seq_entry_schema"]

# The (abridged) Seq-entry type used by the reproduction, in ASN.1 notation.
SEQ_ENTRY_SPEC = """
Seq-entry ::= SEQUENCE {
    accession VisibleString,
    title VisibleString,
    organism VisibleString,
    chromosome VisibleString,
    seq SEQUENCE {
        id SET OF CHOICE { giim INTEGER, genbank VisibleString, local VisibleString },
        length INTEGER,
        data VisibleString
    },
    keywd SET OF VisibleString
}
"""

_ORGANISMS = ["Mus musculus", "Rattus norvegicus", "Gallus gallus", "Danio rerio",
              "Drosophila melanogaster", "Saccharomyces cerevisiae"]

_GENE_WORDS = ["perforin", "immunoglobulin lambda", "myoglobin", "CYP2D6", "BCR",
               "NF2 tumor suppressor", "catechol-O-methyltransferase", "crystallin",
               "PDGF beta", "SOX10 transcription factor"]


def seq_entry_schema() -> Asn1Schema:
    """Parse and return the Seq-entry schema."""
    from ..asn1.typespec import parse_asn1_schema

    return parse_asn1_schema(SEQ_ENTRY_SPEC, name="ncbi-seq")


def build_genbank(locus_ids: List[int], homologues_per_entry: int = 2,
                  sequence_length: int = 300,
                  generator: Optional[SequenceGenerator] = None,
                  compute_links: bool = True,
                  min_link_score: int = 40) -> EntrezServer:
    """Build an Entrez server whose ``na`` division covers the given GDB loci.

    For every locus id a human Seq-entry is generated (accession
    ``accession_for_locus(id)``); for each, ``homologues_per_entry`` entries
    from other organisms are derived by mutating its sequence.  When
    ``compute_links`` is true, NA-Links are precomputed by running the
    similarity search of each human entry against the non-human entries —
    exactly the role BLAST plays for NCBI.
    """
    from ..asn1.entrez import EntrezServer

    generator = generator or SequenceGenerator(seed=2202)
    schema = seq_entry_schema()
    entry_type = schema.cpl_type("Seq-entry")
    server = EntrezServer("NCBI")
    division = server.create_division("na", entry_type)

    human_entries: Dict[int, Tuple[str, str]] = {}     # uid -> (accession, sequence)
    other_entries: Dict[int, Tuple[str, str, str]] = {}  # uid -> (accession, organism, sequence)
    next_giim = 5000

    for locus_id in locus_ids:
        accession = accession_for_locus(locus_id)
        gene = generator.choice(_GENE_WORDS)
        sequence = generator.random_sequence(sequence_length)
        next_giim += 1
        value = _seq_entry(accession, f"Human {gene} gene", "Homo sapiens", "22",
                           next_giim, sequence, keywords=[gene, "chromosome 22"])
        # The entry's Entrez UID is its giim identifier, so NA-Links can be
        # keyed directly by the ids the ASN-IDs path extraction returns.
        uid = division.add_entry(value, {
            "accession": [accession],
            "organism": ["Homo sapiens"],
            "chromosome": ["22"],
            "keyword": [gene],
        }, uid=next_giim)
        human_entries[uid] = (accession, sequence)

        for index in range(homologues_per_entry):
            organism = generator.choice(_ORGANISMS)
            derived = generator.mutate(sequence, substitution_rate=0.10, indel_rate=0.02)
            next_giim += 1
            homolog_accession = f"X{locus_id * 10 + index}"
            homolog = _seq_entry(homolog_accession, f"{organism} {gene} homolog", organism,
                                 "", next_giim, derived, keywords=[gene])
            homolog_uid = division.add_entry(homolog, {
                "accession": [homolog_accession],
                "organism": [organism],
                "keyword": [gene],
            }, uid=next_giim)
            other_entries[homolog_uid] = (homolog_accession, organism, derived)

    if compute_links:
        _precompute_links(server, human_entries, other_entries, min_link_score)
    return server


def _seq_entry(accession: str, title: str, organism: str, chromosome: str,
               giim: int, sequence: str, keywords: List[str]) -> Record:
    return Record({
        "accession": accession,
        "title": title,
        "organism": organism,
        "chromosome": chromosome,
        "seq": Record({
            "id": CSet([Variant("giim", giim), Variant("genbank", accession)]),
            "length": len(sequence),
            "data": sequence,
        }),
        "keywd": CSet(keywords),
    })


def _precompute_links(server: EntrezServer, human_entries, other_entries,
                      min_link_score: int) -> None:
    division = server.division("na")
    library = {str(uid): sequence for uid, (_, _, sequence) in other_entries.items()}
    for uid, (accession, sequence) in human_entries.items():
        hits = similarity_search(sequence, library, min_score=min_link_score)
        for hit in hits:
            target_uid = int(hit.subject_id)
            target_accession, organism, _ = other_entries[target_uid]
            division.add_link(uid, target_uid, "na", float(hit.score),
                              organism=organism,
                              title=f"{organism} homolog of {accession}")
