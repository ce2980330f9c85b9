"""Kleisli data drivers.

"Once registered in Kleisli, the data drivers perform the task of logging into
a specific data source, sending queries in the native form for that source,
[and] returning results to Kleisli in internal Kleisli value syntax."  Each
driver here wraps one substrate:

* :class:`RelationalDriver` — SQL against :class:`repro.relational.Database`
  (the Sybase/GDB driver); the pushdown target of experiment E4.
* :class:`EntrezDriver` — index selection + path pruning against
  :class:`repro.asn1.entrez.EntrezServer` (the GenBank driver); experiment E5.
* :class:`AceDriver` — class scans and object fetches with object identity.
* :class:`FlatFileDriver` — FASTA / EMBL / GCG / tabular files.
* :class:`BlastDriver` — the sequence-analysis "application program".

The first two are what the paper's federated queries run on and are imported
with the package, but not their substrates: each names its server only in
annotations, so the relational engine loads when a ``Database`` is built and
the ASN.1 parser and Entrez server when an ``EntrezServer`` is.  A program
that serves only local queries loads neither.  ``AceDriver``,
``FlatFileDriver`` and ``BlastDriver`` (and the ACE, flat-file and
sequence-analysis substrates behind them) load on first use: ``from
repro.kleisli.drivers import AceDriver`` imports :mod:`.ace` then, and a
program that never names them never pays for them.
"""

from .base import Driver, DriverFunction
from .relational import RelationalDriver
from .entrez import EntrezDriver

__all__ = [
    "Driver", "DriverFunction",
    "RelationalDriver", "EntrezDriver", "AceDriver", "FlatFileDriver", "BlastDriver",
]

#: The drivers that load on first use, by the module that defines each.
_ON_FIRST_USE = {"AceDriver": "ace", "FlatFileDriver": "flatfile",
                 "BlastDriver": "blast"}


def __getattr__(name: str):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    driver = getattr(import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    globals()[name] = driver
    return driver
