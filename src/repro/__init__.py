"""repro — a reproduction of the Kleisli/CPL data transformation system.

*A Data Transformation System for Biological Data Sources*, Buneman, Davidson,
Hart, Overton and Wong, VLDB 1995.

The package is organised as the paper's system is:

* :mod:`repro.core` — CPL (the Collection Programming Language), the NRC monad
  algebra it is compiled to, and the rewrite-rule optimizer.
* :mod:`repro.kleisli` — the extensible query engine: sessions, drivers, token
  streams and the scheduler.
* :mod:`repro.relational`, :mod:`repro.asn1`, :mod:`repro.ace`,
  :mod:`repro.formats` — the external data-source substrates (a small
  relational engine standing in for Sybase/GDB, an ASN.1 + Entrez model
  standing in for GenBank, ACE, and the flat-file formats).
* :mod:`repro.bio` — synthetic Human-Genome-Project-shaped data generators and
  a small sequence-similarity implementation standing in for BLAST.
* :mod:`repro.net` — simulated remote-source latency and concurrency caps.

Quickstart::

    from repro import Session
    session = Session()
    session.bind("DB", [{"title": "...", "year": 1989, "keywd": {"Exons"}}])
    result = session.run('{ [title = t] | [title = \\\\t, year = 1989, ...] <- DB }')
"""

__version__ = "1.0.0"

from .core import (
    CSet,
    CBag,
    CList,
    Record,
    Variant,
    Ref,
    from_python,
    to_python,
)
from .kleisli.session import Session
from .kleisli.engine import KleisliEngine

__all__ = [
    "Session", "KleisliEngine",
    "CSet", "CBag", "CList", "Record", "Variant", "Ref",
    "from_python", "to_python",
    "__version__",
]
