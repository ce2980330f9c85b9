"""The "impossible" DOE query (Section 3 of the paper / Figure 1).

*Find information on the known DNA sequences on human chromosome 22, as well
as information on homologous sequences from other organisms.*

The script builds the Center-for-Chromosome-22 scenario (a GDB-shaped
relational database, a GenBank-shaped Entrez server with precomputed
similarity links, an ACE database, a FASTA library), registers the drivers
with a CPL session, and then runs the paper's three definitions:

* ``Loci22``   — accession numbers of known chromosome-22 DNA sequences (GDB);
* ``ASN-IDs``  — Entrez sequence ids for an accession number (GenBank + path);
* the DOE query itself, whose answer is a *nested relation* pairing each locus
  with its non-human homologues (via NA-Links).

It also shows the optimizer at work: the three-generator Loci22 comprehension
is shipped to the relational driver as a single SQL query, on its own and when
the DOE query uses it as the source of its loop over Entrez; and, once the
two servers sit behind a slow link, that loop goes to GenBank in two batched
stages (ASN-IDs for every locus, then NA-Links for every id), each in batches
of the plan's remote cap, as many batches at once as the narrower server
declared it can take: 5 round trips where one request per locus took 75.

Run with::

    python examples/doe_query_chr22.py [--loci 120] [--band 22q11.2]
"""

import argparse

from repro import Session
from repro.bio.chromosome22 import build_chromosome22
from repro.kleisli.drivers import EntrezDriver, RelationalDriver

LOCI22 = '''
define Loci22 == {[locus-symbol = x, genbank-ref = y] |
  [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
  [genbank_ref = \\y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
  [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}
'''

ASN_IDS = '''
define ASN-IDs == \\accession =>
  GenBank([db = "na", select = "accession " ^ accession, path = "Seq-entry.seq.id..giim"])
'''

DOE_QUERY = ('{[locus = locus, homologs = NA-Links(uid)] |'
             ' \\locus <- Loci22, \\uid <- ASN-IDs(locus.genbank-ref)}')

BAND_VIEW = '''
define loci-in-band == \\band =>
  {[locus-symbol = x, band = b, genbank-ref = y] |
    [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
    [genbank_ref = \\y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
    [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, loc_cyto_band_start = \\b, ...]
        <- GDB-Tab("locus_cyto_location"),
    b = band}
'''


def _session(gdb, genbank) -> Session:
    session = Session()
    session.register_driver(gdb)
    session.register_driver(genbank)
    for definition in (LOCI22, ASN_IDS, BAND_VIEW):
        session.run(definition)
    return session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--loci", type=int, default=120,
                        help="number of GDB loci to generate")
    parser.add_argument("--band", default="22q11.2",
                        help="cytogenetic band for the parameterised Figure-1 view")
    arguments = parser.parse_args()

    print(f"Building the chromosome-22 scenario ({arguments.loci} loci)...")
    data = build_chromosome22(locus_count=arguments.loci)

    session = _session(RelationalDriver("GDB", data.gdb),
                       EntrezDriver("GenBank", data.genbank))

    print("\n== Loci22: known DNA sequences on chromosome 22 (from GDB) ==")
    loci22 = session.query("Loci22")
    print(f"{len(loci22.value)} loci with GenBank references")
    print("Pushed-down plan:", loci22.optimized.pretty()[:200], "...")
    print("Scan requests issued:", session.engine.last_eval_statistics.scan_requests)

    print("\n== The DOE query: loci with their non-human homologues ==")
    doe = session.query(DOE_QUERY)
    answer = doe.value
    print("Optimized plan:", doe.optimized.pretty())
    print("Scan requests issued:", session.engine.last_eval_statistics.scan_requests,
          "(1 to GDB, then 2 per locus to GenBank)")
    rows = sorted(answer, key=lambda row: row.project("locus").project("locus-symbol"))
    for row in rows[:8]:
        locus = row.project("locus")
        homologs = row.project("homologs")
        organisms = sorted({link.project("organism") for link in homologs})
        print(f"  {locus.project('locus-symbol'):>10}  {locus.project('genbank-ref')}: "
              f"{len(homologs)} homologs  {organisms}")
    print(f"  ... {len(rows)} loci in total")

    print("\n== The same query over remote servers: requests in batches ==")
    remote = _session(
        RelationalDriver.with_latency("GDB", data.gdb, latency=0.002,
                                      max_concurrent_requests=16),
        EntrezDriver.with_latency("GenBank", data.genbank, latency=0.002,
                                  max_concurrent_requests=8))
    plan = remote.query(DOE_QUERY)
    assert plan.value == answer
    caps = {name: gate.cap for name, gate in remote.engine.driver_gates.items()}
    print(f"Declared caps: {caps}; the plan: {plan.optimized.pretty()[:60]} ...")
    drivers = remote.engine.drivers
    print("Requests:", remote.engine.last_eval_statistics.scan_requests,
          "in round trips:", {name: len(drivers[name].remote.log) for name in caps},
          "- most batches GenBank saw at once:",
          drivers["GenBank"].remote.log.max_concurrency())

    band = arguments.band
    band_rows = session.run(f'loci-in-band("{band}")')
    if not len(band_rows):
        # Pick a band that actually has loci in this synthetic dataset.
        bands = session.run('{c.loc_cyto_band_start | \\c <- GDB-Tab("locus_cyto_location"),'
                            ' c.loc_cyto_chrom_num = "22"}')
        band = sorted(bands)[0]
        band_rows = session.run(f'loci-in-band("{band}")')
    print(f"\n== Figure-1 style parameterised view: loci in band {band} ==")
    print(session.print_tabular(band_rows) or "(no loci in that band)")

    html = session.print_html(answer, title="Chromosome 22 sequences and homologs")
    print(f"\nHTML rendering of the nested answer: {len(html)} characters "
          "(session.print_html gives the Mosaic-era view)")


if __name__ == "__main__":
    main()
