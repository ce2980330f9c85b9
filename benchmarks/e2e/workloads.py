"""Seeded workload generator for the end-to-end benchmark.

Every input the program sees — bound tables, driver datasets, CPL text — is
made here from ``--seed``: the same seed gives byte-identical data and query
text, and a different seed gives different *content* of the same *size*, so
a metric reads the same whichever seed produced its inputs.  The program
receives only these values and strings; nothing below touches its internals
except ``term_fingerprint``, used at generation time to assert that the
``adhoc_cold`` queries really are structurally distinct.

Why each workload exists, and why it has the size it has, is recorded in
``README.md`` next to this file and, in one line, in :data:`WHY`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bio.chromosome22 import build_chromosome22
from repro.bio.gdb import build_gdb
from repro.bio.sequences import SequenceGenerator
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc.compile import term_fingerprint
from repro.kleisli.drivers import EntrezDriver, RelationalDriver

__all__ = ["NAMES", "CURSOR_WORKLOADS", "WHY", "Op", "Workload", "build"]

NAMES = ("doe_federated", "local_relational", "union_dedup", "wide_stream",
         "adhoc_cold")
#: The workloads that stream through ``open``/``fetch``: ``ttfr_p50_ms`` and
#: ``rows_per_s`` are metrics of these two only.
CURSOR_WORKLOADS = ("union_dedup", "wide_stream")

WHY = {
    "doe_federated": "the paper's DOE query over 2 ms drivers, 2 sessions: "
                     "driver wait is most of the time, so scheduling, batching "
                     "and caching show here only",
    "local_relational": "join, correlated aggregate and semi-join over bound "
                        "tables: eager-lowering CPU with no driver wait and "
                        "small results",
    "union_dedup": "cursor over a union of three overlapping projections, 6% "
                   "distinct: seen-set hashing through the chunked lowering",
    "wide_stream": "cursor over a light map of wide records: value codec, "
                   "framing and client decode dominate execution",
    "adhoc_cold": "thousands of structurally distinct small queries on one "
                  "session: parse, typecheck, optimize and lower on every op",
}

#: Source latency and concurrency cap of the two remote drivers.
DRIVER_LATENCY = 0.002
DRIVER_CONCURRENCY = 16

# The three definitions of ``examples/doe_query_chr22.py``, verbatim (the
# self-tests compare them with the example file).
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

#: ``build_chromosome22(locus_count=120)`` puts 37 loci with a GenBank
#: reference on chromosome 22 at the example's seed (22); every seed is
#: steered to a dataset of that size so the query does the same work.
DOE_LOCI = 120
DOE_CHR22_LOCI = 37

#: Operations per second and session on the 2-core box this was sized on,
#: when it is quiet, rounded down: a run of ``--seconds`` executes that many
#: times ``--seconds`` operations per session, whatever the machine's speed.
OPS_PER_SECOND = {"doe_federated": 3.5, "local_relational": 13.0,
                  "union_dedup": 30.0, "wide_stream": 14.0}

#: Sizes, chosen so one operation takes 30-250 ms on a 2-core box (README).
RELATIONAL_ROWS = 200
AGGREGATE_ROWS = 160
AGGREGATE_GROUPS = 40
UNION_ROWS = 4000
UNION_DISTINCT = 720
WIDE_ROWS = 4000
ADHOC_ROWS = 64
#: ``adhoc_cold`` queries generated per second of run length: a little
#: fewer than the program completes on a quiet 2-core box.  A run uses up
#: the pool, so the session ages by the same number of queries every time.
ADHOC_POOL_PER_SECOND = 200


@dataclass(frozen=True)
class Op:
    """One operation: its CPL parts, run in order and timed together."""

    key: str
    #: ``(label, CPL text)``; one part except ``local_relational``'s three.
    parts: Tuple[Tuple[str, str], ...]


@dataclass
class Workload:
    name: str
    #: ``"query"`` (one reply carries the value) or ``"cursor"``
    #: (``open`` then ``fetch`` until done).
    kind: str
    sessions: int
    ops: List[Op]
    #: Whether a session cycles through ``ops`` (else they are a pool that
    #: a run consumes once, front to back).
    cycle: bool
    warmup: List[Op]
    #: ``name -> (python data, list_as)`` bound into every session.
    bindings: Dict[str, Tuple[object, str]] = field(default_factory=dict)
    #: CPL ``define`` statements run in every session.
    defines: List[str] = field(default_factory=list)
    #: ``remote -> [(driver, declared latency)]``: fresh driver objects over
    #: the generated dataset, behind the simulated link or (for the oracle)
    #: directly.
    drivers: Callable[[bool], List[Tuple[object, Optional[float]]]] = \
        lambda remote: []
    fetch_batch: int = 256

    def op_count(self, seconds: float) -> int:
        """Operations a session runs in a section sized for ``seconds``
        (a pool workload: all of the pool, which :func:`build` sized)."""
        if not self.cycle:
            return len(self.ops)
        return max(10, round(OPS_PER_SECOND[self.name] * seconds))

    def op_stream(self) -> Iterator[Op]:
        if not self.cycle:
            return iter(self.ops)

        def forever() -> Iterator[Op]:
            while True:
                yield from self.ops
        return forever()


def build(name: str, seed: int, seconds: float = 10.0) -> Workload:
    """Generate workload ``name`` from ``seed``.

    ``seconds`` only sizes the ``adhoc_cold`` query pool; every other
    workload is the same for any run length.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; one of {', '.join(NAMES)}")
    # Each workload draws from its own stream, so adding a workload never
    # shifts another's inputs.
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seed, seconds)


# ---------------------------------------------------------------------------
# doe_federated
# ---------------------------------------------------------------------------

def doe_data_seed(seed: int) -> int:
    """The first of ``seed, seed + 1009, ...`` whose GDB has the example's
    37 chromosome-22 loci (a 2 ms probe each; the full build takes seconds)."""
    candidate = seed
    while True:
        gdb = build_gdb(DOE_LOCI, 0.35, generator=SequenceGenerator(candidate))
        rows = gdb.sql(
            "select locus.locus_id from locus, object_genbank_eref "
            "where locus.locus_id = object_genbank_eref.object_id "
            "and locus.chromosome = '22'")
        if len(rows) == DOE_CHR22_LOCI:
            return candidate
        candidate += 1009


def _doe_federated(rng: random.Random, seed: int, seconds: float) -> Workload:
    data = build_chromosome22(locus_count=DOE_LOCI, seed=doe_data_seed(seed))

    def drivers(remote: bool):
        if not remote:
            return [(RelationalDriver("GDB", data.gdb), None),
                    (EntrezDriver("GenBank", data.genbank), None)]
        return [(RelationalDriver.with_latency(
                    "GDB", data.gdb, latency=DRIVER_LATENCY,
                    max_concurrent_requests=DRIVER_CONCURRENCY), DRIVER_LATENCY),
                (EntrezDriver.with_latency(
                    "GenBank", data.genbank, latency=DRIVER_LATENCY,
                    max_concurrent_requests=DRIVER_CONCURRENCY), DRIVER_LATENCY)]

    op = Op("doe", (("doe", DOE_QUERY),))
    return Workload("doe_federated", "query", sessions=2, ops=[op], cycle=True,
                    warmup=[op] * 5, defines=[LOCI22, ASN_IDS], drivers=drivers)


# ---------------------------------------------------------------------------
# local_relational
# ---------------------------------------------------------------------------

JOIN_QUERY = (
    '{[sym = l.sym, acc = r.acc, band = c.band] | \\l <- LOCI, l.chrom = "22",'
    ' \\r <- REFS, r.locus = l.id, r.cls = 1, \\c <- CYTO, c.locus = r.locus}')
AGGREGATE_QUERY = (
    '{[k = o.k, n = count({x.v | \\x <- OBS, x.k = o.k}),'
    ' m = max({x.v | \\x <- OBS, x.k = o.k})] | \\o <- OBS}')
SEMIJOIN_QUERY = (
    '{l.sym | \\l <- LOCI, member(l.id, {r.locus | \\r <- REFS, r.cls = 2})}')


def _local_relational(rng: random.Random, seed: int, seconds: float) -> Workload:
    # The join structure is fixed by formula and the seed only relabels ids,
    # names and row order, so every seed has the same result cardinalities.
    rows = RELATIONAL_ROWS
    relabel = list(range(rows))
    rng.shuffle(relabel)
    tag = rng.randrange(10, 99)
    loci = [{"id": relabel[i], "sym": f"D{tag}S{relabel[i]}",
             "chrom": "22" if i % 3 == 0 else str(1 + i % 21)}
            for i in range(rows)]
    refs = [{"locus": relabel[(i * 7) % rows], "acc": f"M{tag}{10000 + i}",
             "cls": 1 + i % 2} for i in range(rows)]
    cyto = [{"locus": relabel[i], "band": f"22q{11 + i % 3}.{i % 4}"}
            for i in range(0, rows, 2)]
    values = [rng.randrange(1000) for _ in range(AGGREGATE_ROWS)]
    obs = [{"k": i % AGGREGATE_GROUPS, "v": values[i]}
           for i in range(AGGREGATE_ROWS)]
    for table in (loci, refs, cyto, obs):
        rng.shuffle(table)
    op = Op("relational", (("join", JOIN_QUERY),
                           ("aggregate", AGGREGATE_QUERY),
                           ("semijoin", SEMIJOIN_QUERY)))
    return Workload(
        "local_relational", "query", sessions=1, ops=[op], cycle=True,
        warmup=[op] * 5,
        bindings={"LOCI": (loci, "set"), "REFS": (refs, "set"),
                  "CYTO": (cyto, "set"), "OBS": (obs, "set")})


# ---------------------------------------------------------------------------
# union_dedup
# ---------------------------------------------------------------------------

# CPL has no infix union: a set literal of the three projections, flattened,
# is how a query says it, and it lowers to a fully streamed pipeline.
UNION_QUERY = (
    '{x | \\s <- {{[acc = a.acc, org = a.org] | \\a <- TA},'
    ' {[acc = b.acc, org = b.org] | \\b <- TB},'
    ' {[acc = c.acc, org = c.org] | \\c <- TC}}, \\x <- s}')


def _union_dedup(rng: random.Random, seed: int, seconds: float) -> Workload:
    organisms = ["human", "mouse", "rat", "yeast", "fly", "worm"]
    pool = [(f"U{rng.randrange(10, 99)}{index:05d}", rng.choice(organisms))
            for index in range(UNION_DISTINCT)]
    bindings = {}
    for position, name in enumerate(("TA", "TB", "TC")):
        # Table t leaves out every third pool entry, starting at t: each
        # projects 480 distinct records and together they cover all 720.
        own = [entry for index, entry in enumerate(pool)
               if index % 3 != position]
        picks = [own[i % len(own)] for i in range(UNION_ROWS)]
        rng.shuffle(picks)
        bindings[name] = ([{"acc": acc, "org": org, "src": name, "n": row}
                           for row, (acc, org) in enumerate(picks)], "set")
    op = Op("union", (("union", UNION_QUERY),))
    return Workload("union_dedup", "cursor", sessions=1, ops=[op], cycle=True,
                    warmup=[op] * 5, bindings=bindings)


# ---------------------------------------------------------------------------
# wide_stream
# ---------------------------------------------------------------------------

WIDE_QUERY = ('[| [id = r.id, acc = r.acc, org = r.org, len = r.len + 1,'
              ' gc = r.gc] | \\r <- WIDE |]')


def _wide_stream(rng: random.Random, seed: int, seconds: float) -> Workload:
    organisms = ["Homo sapiens", "Mus musculus", "Rattus norvegicus",
                 "Saccharomyces cerevisiae", "Drosophila melanogaster"]
    wide = [{"id": row, "acc": f"W{rng.randrange(100000, 999999)}",
             "org": rng.choice(organisms), "len": rng.randrange(200, 20000),
             "gc": rng.randrange(2000, 8000) / 10000}
            for row in range(WIDE_ROWS)]
    op = Op("wide", (("wide", WIDE_QUERY),))
    return Workload("wide_stream", "cursor", sessions=1, ops=[op], cycle=True,
                    warmup=[op] * 5, bindings={"WIDE": (wide, "list")})


# ---------------------------------------------------------------------------
# adhoc_cold
# ---------------------------------------------------------------------------

_GENE_FIELDS = ("id", "sym", "chrom", "pos", "score", "cls")
_CHROMS = ("1", "7", "11", "17", "22", "X")
_KINDS = ("mRNA", "EST", "STS", "genomic")
_ORGS = ("human", "mouse", "rat", "yeast", "fly")


class _Draws:
    """The seeded choices that tell one ad-hoc query from the next.

    Numeric constants come off shuffled decks of evenly spaced values, one
    deck per template and kind: every seed deals each template the same
    constants in another order, so selectivities — and with them result
    sizes and costs — add up the same whatever the seed.
    """

    _DECKS = {"position": range(0, 10000, 40), "score": range(0, 1000, 4),
              "length": range(0, 5000, 20), "shift": range(1, 1000, 4)}

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.template = 0
        self._decks: Dict[Tuple[int, str], List[int]] = {}

    def number(self, kind: str) -> int:
        deck = self._decks.get((self.template, kind))
        if not deck:
            deck = self._decks[self.template, kind] = list(self._DECKS[kind])
            self.rng.shuffle(deck)
        return deck.pop()

    def choice(self, options: Sequence) -> object:
        return self.rng.choice(options)

    def fields(self, var: str) -> str:
        """A record literal projecting a seeded subset of the gene fields."""
        chosen = self.rng.sample(_GENE_FIELDS, self.rng.randrange(2, 5))
        return "[" + ", ".join(f"{label} = {var}.{label}" for label in chosen) + "]"


_ADHOC_TEMPLATES: Sequence[Callable[[_Draws], str]] = (
    lambda d: (f"{{{d.fields('g')} | \\g <- G,"
               f" g.pos > {d.number('position')}}}"),
    lambda d: (f"{{[s = s, p = p + {d.number('shift')}] | [sym = \\s,"
               f" pos = \\p, chrom = \"{d.choice(_CHROMS)}\", ...] <- G,"
               f" p < {d.number('position')}}}"),
    lambda d: (f"{{[g = {d.fields('g')}, kind = h.kind] | \\g <- G,"
               f" \\h <- H, g.id = h.gene, h.len > {d.number('length')}}}"),
    lambda d: (f"count({{g.{d.choice(_GENE_FIELDS)} | \\g <- G,"
               f" g.score < {d.number('score')},"
               f" g.pos > {d.number('position')}}})"),
    lambda d: (f"{{[chrom = g.chrom, near = {{x.sym | \\x <- G,"
               f" x.chrom = g.chrom, x.pos > {d.number('position')}}}] |"
               f" \\g <- G, g.cls = {d.choice((1, 2, 3, 4))},"
               f" g.score > {d.number('score')}}}"),
    lambda d: (f"{{| if g.score > {d.number('score')}"
               f" then g.pos + {d.number('shift')}"
               f" else g.pos - {d.number('shift')} | \\g <- G |}}"),
    lambda d: (f"[| h.org ^ \"-{d.number('shift')}\" | \\h <- H,"
               f" h.len < {d.number('length')} |]"),
    lambda d: (f"{{g.sym | \\g <- G, g.score > {d.number('score')},"
               f" member(g.id, {{h.gene | \\h <- H,"
               f" h.len < {d.number('length')}}})}}"),
    lambda d: (f"sum({{| h.len + {d.number('shift')} | \\h <- H,"
               f" h.kind = \"{d.choice(_KINDS)}\","
               f" h.len > {d.number('length')} |}})"),
    lambda d: (f"{{<hit = [gene = h.gene, len = h.len * {d.choice(range(2, 9))}]>"
               f" | \\h <- H, h.len > {d.number('length')}}}"),
)


def _adhoc_pool(rng: random.Random, count: int) -> List[Op]:
    """``count`` queries, template by template in seeded rounds, every one
    with a term fingerprint of its own (so none can hit the compile cache)."""
    draws = _Draws(rng)
    order = list(range(len(_ADHOC_TEMPLATES)))
    fingerprints = set()
    pool: List[Op] = []
    while len(pool) < count:
        rng.shuffle(order)
        for index in order:
            draws.template = index
            text = _ADHOC_TEMPLATES[index](draws)
            fingerprint = term_fingerprint(
                desugar_expression(parse_expression(text)))
            if fingerprint in fingerprints:
                continue  # the same choices made twice: this round goes without
            fingerprints.add(fingerprint)
            pool.append(Op(f"adhoc{len(pool)}", (("adhoc", text),)))
    return pool[:count]


def _adhoc_cold(rng: random.Random, seed: int, seconds: float) -> Workload:
    # Evenly spaced values in seeded order: how many rows a predicate keeps
    # depends on its constant alone, so the mean result size is the same
    # for every seed.
    def spaced(step: int) -> List[int]:
        values = [row * step for row in range(ADHOC_ROWS)]
        rng.shuffle(values)
        return values

    position, score, length = spaced(156), spaced(15), spaced(78)
    owner = spaced(1)
    genes = [{"id": row, "sym": f"G{rng.randrange(1000, 9999)}_{row}",
              "chrom": _CHROMS[row % len(_CHROMS)], "pos": position[row],
              "score": score[row], "cls": 1 + row % 4}
             for row in range(ADHOC_ROWS)]
    hits = [{"ref": rng.randrange(100000), "gene": owner[row],
             "kind": _KINDS[row % len(_KINDS)], "len": length[row],
             "org": _ORGS[row % len(_ORGS)]} for row in range(ADHOC_ROWS)]
    rng.shuffle(genes)
    rng.shuffle(hits)
    count = 5 + max(50, int(ADHOC_POOL_PER_SECOND * seconds))
    pool = _adhoc_pool(rng, count)
    return Workload("adhoc_cold", "query", sessions=1, ops=pool[5:],
                    cycle=False, warmup=pool[:5],
                    bindings={"G": (genes, "set"), "H": (hits, "set")})


_BUILDERS = {
    "doe_federated": _doe_federated,
    "local_relational": _local_relational,
    "union_dedup": _union_dedup,
    "wide_stream": _wide_stream,
    "adhoc_cold": _adhoc_cold,
}
