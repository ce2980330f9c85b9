"""A GDB-shaped relational database.

GDB (the Genome Data Base at Johns Hopkins) is the paper's relational source:
"a central repository of information on physical and genetic maps of all human
chromosomes", accessed through Sybase.  The Loci22 query joins three of its
tables::

    locus(locus_id, locus_symbol, chromosome)
    object_genbank_eref(object_id, genbank_ref, object_class_key)
    locus_cyto_location(locus_cyto_location_id, loc_cyto_chrom_num, loc_cyto_band_start)

:func:`build_gdb` populates those tables (plus indexes and statistics) with
synthetic loci spread across chromosomes, a configurable share of which sit on
chromosome 22 and carry GenBank accession references.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .sequences import SequenceGenerator

if TYPE_CHECKING:
    from ..relational import Database

__all__ = ["build_gdb", "GDB_BANDS"]

# Cytogenetic bands used for chromosome 22 loci (as shown in the paper's Figure 1 form).
GDB_BANDS = [
    "22q11.1", "22q11.2", "22q12.1", "22q12.2", "22q12.3",
    "22q13.1", "22q13.2", "22q13.31", "22q13.32", "22q13.33",
]

_OTHER_CHROMOSOMES = [str(number) for number in range(1, 22)] + ["X", "Y"]


def build_gdb(locus_count: int = 500, chromosome22_fraction: float = 0.3,
              generator: Optional[SequenceGenerator] = None,
              with_indexes: bool = True) -> Database:
    """Build and populate a GDB-shaped database.

    ``locus_count`` loci are generated; roughly ``chromosome22_fraction`` of
    them land on chromosome 22 with a cytogenetic band from :data:`GDB_BANDS`,
    and every chromosome-22 locus gets a GenBank accession reference of the
    form ``M8xxxx`` (matching the accessions :func:`repro.bio.genbank.build_genbank`
    indexes).
    """
    from ..relational import Database

    generator = generator or SequenceGenerator(seed=2201)
    database = Database("GDB")

    locus = database.create_table_from_spec(
        "locus",
        {"locus_id": "int", "locus_symbol": "string", "chromosome": "string"},
        primary_key=["locus_id"],
    )
    genbank_ref = database.create_table_from_spec(
        "object_genbank_eref",
        {"object_id": "int", "genbank_ref": "string", "object_class_key": "int"},
    )
    cyto = database.create_table_from_spec(
        "locus_cyto_location",
        {"locus_cyto_location_id": "int", "loc_cyto_chrom_num": "string",
         "loc_cyto_band_start": "string"},
    )

    for locus_id in range(1, locus_count + 1):
        on_22 = generator.random() < chromosome22_fraction
        chromosome = "22" if on_22 else generator.choice(_OTHER_CHROMOSOMES)
        symbol = f"D{chromosome}S{locus_id}"
        locus.insert({"locus_id": locus_id, "locus_symbol": symbol, "chromosome": chromosome})
        band = generator.choice(GDB_BANDS) if on_22 else f"{chromosome}q{generator.randint(11, 25)}"
        cyto.insert({
            "locus_cyto_location_id": locus_id,
            "loc_cyto_chrom_num": chromosome,
            "loc_cyto_band_start": band,
        })
        # object_class_key 1 = "locus has a GenBank sequence entry".
        if on_22 or generator.random() < 0.4:
            genbank_ref.insert({
                "object_id": locus_id,
                "genbank_ref": accession_for_locus(locus_id),
                "object_class_key": 1,
            })

    if with_indexes:
        locus.create_hash_index("locus_id")
        locus.create_hash_index("chromosome")
        genbank_ref.create_hash_index("object_id")
        cyto.create_hash_index("locus_cyto_location_id")
        cyto.create_hash_index("loc_cyto_chrom_num")
    database.analyze()
    return database


def accession_for_locus(locus_id: int) -> str:
    """The GenBank accession number associated with a GDB locus id."""
    return f"M{81000 + locus_id}"
