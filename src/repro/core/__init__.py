"""Core of the reproduction: the CPL language, the NRC algebra, and the optimizer.

This package is the paper's primary contribution.  The usual import surface:

* :mod:`repro.core.types` — the nested type system (sets, bags, lists,
  records, variants, references),
* :mod:`repro.core.values` — the corresponding value model,
* :mod:`repro.core.cpl` — parser, type inference and desugarer for CPL,
* :mod:`repro.core.nrc` — the monad algebra, its evaluator and rewrite engine,
* :mod:`repro.core.optimizer` — the paper's rule sets (monadic rules,
  pushdown, joins, caching, parallelism, projections).
"""

from . import types
from .errors import (
    ReproError,
    CPLSyntaxError,
    CPLTypeError,
    EvaluationError,
    DriverError,
)
from .records import Record, RecordDirectory
from .values import CSet, CBag, CList, Variant, Ref, Unit, UNIT_VALUE, from_python, to_python

__all__ = [
    "types",
    "ReproError", "CPLSyntaxError", "CPLTypeError", "EvaluationError", "DriverError",
    "Record", "RecordDirectory",
    "CSet", "CBag", "CList", "Variant", "Ref", "Unit", "UNIT_VALUE",
    "from_python", "to_python",
]
