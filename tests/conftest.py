"""Shared fixtures: small deterministic datasets and wired-up sessions."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest
from hypothesis import settings

from repro.bio.chromosome22 import build_chromosome22
from repro.bio.publications import build_publications
from repro.core.values import CList, CSet, Record, Variant
from repro.kleisli.drivers import AceDriver, BlastDriver, EntrezDriver, RelationalDriver
from repro.kleisli.session import Session

# Tier-1 is green or red by the code, not by what a local ``.hypothesis/``
# directory has seen: every property suite under tests/ (the wire, ingest and
# decorrelation round trips among them) draws the same examples on every run
# and replays nothing.  Known failures are pinned as explicit examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def chr22_dataset():
    """A small (but complete) Center-for-Chromosome-22 dataset, built once."""
    return build_chromosome22(locus_count=60, chromosome22_fraction=0.35,
                              homologues_per_entry=1, sequence_length=120,
                              publication_count=40, seed=22)


@pytest.fixture(scope="session")
def publications():
    """The Publication set from the paper's introduction (40 records)."""
    return build_publications(40)


@pytest.fixture()
def publication_session(publications):
    """A session with the publication set bound as DB (no external drivers)."""
    session = Session()
    session.bind("DB", publications)
    return session


@pytest.fixture()
def integrated_session(chr22_dataset):
    """A session with GDB, GenBank, ACE and BLAST drivers registered."""
    session = Session()
    session.register_driver(RelationalDriver("GDB", chr22_dataset.gdb))
    session.register_driver(EntrezDriver("GenBank", chr22_dataset.genbank))
    session.register_driver(AceDriver("ACE22", chr22_dataset.acedb))
    library = {record.identifier: record.sequence for record in chr22_dataset.fasta_library}
    session.register_driver(BlastDriver("BLAST", library))
    return session


def _record_run_contexts(monkeypatch, keep):
    """Call ``keep(context)`` on each ``EvalContext`` an engine makes."""
    from repro.kleisli.engine import KleisliEngine

    make_context = KleisliEngine._make_context

    def recording(self, *args, **kwargs):
        context = make_context(self, *args, **kwargs)
        keep(context)
        return context

    monkeypatch.setattr(KleisliEngine, "_make_context", recording)


@pytest.fixture()
def run_views(monkeypatch):
    """Weak references to every run's ``EvalContext`` (and so to its cached
    subqueries), taken with the cyclic collector off: a context still alive
    once its run is over is one that only a cyclic collection would free."""
    views = []
    _record_run_contexts(monkeypatch,
                         lambda context: views.append(weakref.ref(context)))
    gc.collect()
    gc.disable()
    try:
        yield views
    finally:
        gc.enable()


@pytest.fixture()
def run_caches(monkeypatch):
    """Each run's own dict of ``Cached`` values, in the order the runs
    started.  Holding a dict keeps its values, not its run's context."""
    caches = []
    _record_run_contexts(monkeypatch,
                         lambda context: caches.append(context.cache))
    return caches


@pytest.fixture()
def threads_besides_workers():
    """``count(*owners)``: the live threads that are no engine's worker.

    An owner is a ``KleisliEngine`` or a ``Scheduler`` (its ``_workers``
    set; ``None`` before its first remote loop).  Workers outlive a run on
    purpose, so the thread contract counts them apart: ``count`` requires
    each owner's workers to be idle (a worker is idle before its reply is
    read, so a finished run leaves none busy) and no more than its set's
    size, then counts every thread but workers.
    """
    def count(*owners) -> int:
        for owner in owners:
            workers = getattr(owner, "_workers", None)
            if workers is not None:
                assert workers.idle == workers.live, "a worker is busy after the run"
                assert workers.live <= workers.size
        return sum(1 for thread in threading.enumerate()
                   if thread.name != "kleisli-worker")

    return count


@pytest.fixture()
def tiny_publications():
    """Three hand-built publication records for precise assertions."""
    return CSet([
        Record({
            "title": "Structure of the human perforin gene",
            "authors": CList([Record({"name": "Lichtenheld", "initial": "MG"}),
                              Record({"name": "Podack", "initial": "ER"})]),
            "journal": Variant("controlled", Variant("medline-jta", "J Immunol")),
            "year": 1989,
            "keywd": CSet(["Exons", "Base Sequence"]),
        }),
        Record({
            "title": "Mapping the BCR region",
            "authors": CList([Record({"name": "Chen", "initial": "T"})]),
            "journal": Variant("uncontrolled", "Workshop Notes"),
            "year": 1992,
            "keywd": CSet(["Chromosome 22", "Physical Mapping"]),
        }),
        Record({
            "title": "Exon prediction methods",
            "authors": CList([Record({"name": "Davidson", "initial": "SB"})]),
            "journal": Variant("controlled", Variant("iso-jta", "Nucleic Acids Res.")),
            "year": 1992,
            "keywd": CSet(["Exons"]),
        }),
    ])


@pytest.fixture(scope="module")
def served():
    """One query server for a module's served paths (``tests/paths.py``)."""
    from paths import Served

    served = Served()
    yield served
    served.server.stop()
