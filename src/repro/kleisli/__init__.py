"""Kleisli: the extensible query system CPL runs on top of.

* :mod:`repro.kleisli.engine` — driver registry, compile/optimize/execute pipeline.
* :mod:`repro.kleisli.session` — the user-facing CPL session (``define``, queries,
  output formatting), the equivalent of the paper's CPL prompt.
* :mod:`repro.kleisli.tokens` — token streams: lazy, pipelined transfer of data
  between drivers and the evaluator.
* :mod:`repro.kleisli.drivers` — the data drivers (relational/Sybase, ASN.1/Entrez,
  ACE, flat files, BLAST-style application programs).
* :mod:`repro.kleisli.scheduler` — the one scheduler for remote requests: a
  bounded, order-preserving window, pinned at a declared server cap or
  narrowed by an undeclared server's rejections.
* :mod:`repro.kleisli.cache` — the inner-subquery result cache.
* :mod:`repro.kleisli.statistics` — statically registered statistics about
  remote sources (the paper found on-the-fly statistics impractical).
"""

from .engine import KleisliEngine
from .session import Session
from .tokens import TokenStream

__all__ = ["KleisliEngine", "Session", "TokenStream"]
