"""The "Center for Chromosome 22" scenario.

One call builds every data source the paper's prototype integrates, sized as
requested, so examples, integration tests and benchmarks all start from the
same wiring:

* a GDB-shaped relational database (loci, map locations, GenBank references),
* a GenBank-shaped Entrez server with human chromosome-22 Seq-entries, their
  non-human homologues and precomputed NA-Links,
* an ACE database of clones/contigs referencing the loci (object identity),
* the Publication set from the introduction,
* a FASTA library of the human sequences (for the BLAST-style driver).

Importing this module loads none of those substrates: the relational engine
loads inside :func:`~repro.bio.gdb.build_gdb`, the ASN.1 machinery inside
:func:`~repro.bio.genbank.build_genbank`, ACE and the flat-file formats
inside :func:`build_chromosome22`; the dataset names their classes only in
annotations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..core._fields import Fields
from ..core.values import CSet
from .gdb import build_gdb, accession_for_locus
from .genbank import build_genbank
from .publications import build_publications
from .sequences import SequenceGenerator

if TYPE_CHECKING:
    from ..ace.database import AceDatabase
    from ..asn1.entrez import EntrezServer
    from ..formats.fasta import FastaRecord
    from ..relational import Database

__all__ = ["Chromosome22Dataset", "build_chromosome22"]


class Chromosome22Dataset(Fields):
    """Everything the Center-for-Chromosome-22 examples need, in one object."""

    gdb: Database
    genbank: EntrezServer
    acedb: AceDatabase
    publications: CSet
    fasta_library: List[FastaRecord] = []

    def chromosome22_locus_ids(self) -> List[int]:
        """Locus ids of chromosome-22 loci that carry a GenBank reference."""
        rows = self.gdb.sql(
            "select locus.locus_id from locus, object_genbank_eref "
            "where locus.locus_id = object_genbank_eref.object_id "
            "and locus.chromosome = '22'"
        )
        return sorted(row["locus_id"] for row in rows)


def build_chromosome22(locus_count: int = 120, chromosome22_fraction: float = 0.35,
                       homologues_per_entry: int = 2, sequence_length: int = 240,
                       publication_count: int = 150,
                       compute_links: bool = True,
                       seed: int = 22) -> Chromosome22Dataset:
    """Build the full multi-source scenario (deterministic for a given seed)."""
    generator = SequenceGenerator(seed)
    gdb = build_gdb(locus_count, chromosome22_fraction, generator=generator)

    chr22_rows = gdb.sql(
        "select locus.locus_id from locus, object_genbank_eref "
        "where locus.locus_id = object_genbank_eref.object_id "
        "and locus.chromosome = '22'"
    )
    chr22_ids = sorted(row["locus_id"] for row in chr22_rows)
    genbank = build_genbank(chr22_ids, homologues_per_entry=homologues_per_entry,
                            sequence_length=sequence_length, generator=generator,
                            compute_links=compute_links)

    acedb = _build_acedb(gdb, generator)
    publications = build_publications(publication_count, generator=generator)
    fasta_library = _build_fasta_library(genbank)
    return Chromosome22Dataset(gdb, genbank, acedb, publications, fasta_library)


def _build_acedb(gdb: Database, generator: SequenceGenerator) -> AceDatabase:
    """An ACE database of clones and contigs referencing GDB loci by symbol."""
    from ..ace.database import AceDatabase
    from ..ace.model import AceObject, AceObjectRef

    acedb = AceDatabase("chr22-ace")
    loci = gdb.sql("select locus_id, locus_symbol, chromosome from locus where chromosome = '22'")
    contig_count = max(1, len(loci) // 8)
    for contig_index in range(contig_count):
        contig = AceObject("Contig", f"ctg22_{contig_index + 1}")
        contig.add("Chromosome", "22")
        contig.add("Length_kb", generator.randint(100, 900))
        acedb.add_object(contig)
    for row in loci:
        locus_obj = AceObject("Locus", row["locus_symbol"])
        locus_obj.add("GDB_id", row["locus_id"])
        locus_obj.add("Genbank_ref", accession_for_locus(row["locus_id"]))
        contig_name = f"ctg22_{generator.randint(1, contig_count)}"
        locus_obj.add("Contig", AceObjectRef("Contig", contig_name))
        acedb.add_object(locus_obj)

        clone = AceObject("Clone", f"cos{row['locus_id']}")
        clone.add("Locus", AceObjectRef("Locus", row["locus_symbol"]))
        clone.add("Library", generator.choice(["LL22NC01", "LL22NC03", "ICRFc108"]))
        acedb.add_object(clone)
    return acedb


def _build_fasta_library(genbank: EntrezServer) -> List[FastaRecord]:
    from ..formats.fasta import FastaRecord

    division = genbank.division("na")
    records: List[FastaRecord] = []
    for uid in sorted(division.entries):
        value = division.fetch(uid)
        accession = value.project("accession")
        title = value.project("title")
        sequence = value.project("seq").project("data")
        records.append(FastaRecord(str(accession), str(title), str(sequence)))
    return records
