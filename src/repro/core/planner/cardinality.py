"""Cardinality estimation over optimized NRC terms.

"Several of the rules for join optimizations require statistics about the
size of files ..." — the statistics registry holds the per-source numbers;
this module *propagates* them structurally through an optimized term, so the
planner can reason about whole pipelines, not just their leaves:

* a ``Scan`` contributes the registered (driver, collection) cardinality;
* an ``Ext`` multiplies its source estimate by the per-element output of its
  body (a filter shape ``if cond then {e} else {}`` contributes its
  selectivity, a plain singleton contributes one);
* a ``Union`` adds its operands (an upper bound for set kind);
* a loop over a ``probe`` of an on-the-fly index (the indexed join) takes the
  probe as a scalar call: one match per outer row, the equality selectivity.

Estimates are deliberately coarse — the planner needs *orders of magnitude*
(pick a chunk size, gate a spill), not exact counts — but they obey
one invariant the property tests pin: adding a filter can only shrink an
estimate (selectivities are at most 1), so plan choices degrade
monotonically with selectivity rather than oscillating.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..errors import TermTooDeepError
from ..nrc import ast as A
from ..values import iter_collection

__all__ = ["CardinalityEstimator", "scan_collection", "collect_scans"]

#: Request keys that name the collection a Scan draws from, in the order the
#: engine has always probed them (table for relational drivers, class for
#: object stores, db for flat-file/Entrez divisions).
SCAN_COLLECTION_KEYS = ("table", "class", "db")


def scan_collection(request: Mapping[str, object]) -> str:
    """The collection name a Scan request addresses (``""`` if unnamed)."""
    for key in SCAN_COLLECTION_KEYS:
        value = request.get(key)
        if value:
            return str(value)
    return ""


def collect_scans(expr: A.Expr) -> Tuple[Tuple[str, str], ...]:
    """Every ``(driver, collection)`` pair scanned anywhere in ``expr``."""
    pairs: Dict[Tuple[str, str], None] = {}     # insertion-ordered, distinct
    try:
        _collect_scans(expr, pairs)
    except RecursionError:
        raise TermTooDeepError("term nests too deeply to plan") from None
    return tuple(pairs)


def _collect_scans(node: A.Expr, pairs: Dict[Tuple[str, str], None]) -> None:
    if isinstance(node, A.Scan):
        pairs[(node.driver, scan_collection(node.request))] = None
    for child in node.children():
        _collect_scans(child, pairs)


class CardinalityEstimator:
    """Structural row-count estimates for collection-valued NRC terms.

    ``statistics`` is anything with the
    :class:`~repro.kleisli.statistics.SourceStatisticsRegistry` read
    interface (``cardinality(driver, collection)`` and
    ``DEFAULT_CARDINALITY``); the estimator never mutates it.
    """

    #: Fraction of elements assumed to survive a filter (``if c then {e}
    #: else {}``) when nothing better is known.  Must be <= 1.0: the
    #: monotonicity property (filtering never grows an estimate) rests on it.
    FILTER_SELECTIVITY = 0.5

    def __init__(self, statistics):
        self.statistics = statistics

    def _default(self) -> float:
        return float(getattr(self.statistics, "DEFAULT_CARDINALITY", 1000))

    def estimate(self, expr: A.Expr) -> float:
        """Estimated element count of ``expr`` iterated as a collection.

        Scalar-producing nodes estimate as one element (what iterating them
        through the stream backends yields); unknown node types fall back to
        the registry default, exactly like an unregistered source.
        """
        node_type = type(expr)
        if node_type is A.Const:
            try:
                return float(len(list(iter_collection(expr.value))))
            except Exception:
                return 1.0
        if node_type is A.Empty:
            return 0.0
        if node_type is A.Singleton:
            return 1.0
        if node_type is A.Scan:
            return float(self.statistics.cardinality(
                expr.driver, scan_collection(expr.request)))
        if node_type is A.Cached:
            return self.estimate(expr.expr)
        if node_type is A.Let:
            return self.estimate(expr.body)
        if node_type is A.Union:
            # Exact for bag/list; an upper bound for set kind (duplicates
            # collapse) — upper bounds are the safe direction for sizing
            # buffers and blocks.
            return self.estimate(expr.left) + self.estimate(expr.right)
        if node_type is A.IfThenElse:
            if isinstance(expr.else_branch, A.Empty):
                # The desugarer's filter shape: selectivity times the
                # surviving branch.
                return self.FILTER_SELECTIVITY * self.estimate(expr.then_branch)
            return max(self.estimate(expr.then_branch),
                       self.estimate(expr.else_branch))
        if node_type is A.BindScan:  # one record per source element
            return self.estimate(expr.source)
        if isinstance(expr, A.Ext):  # includes ParallelExt
            return self.estimate(expr.source) * self.estimate(expr.body)
        if node_type is A.Fold:
            return 1.0
        if node_type in (A.PrimCall, A.Project, A.RecordExpr, A.VariantExpr,
                         A.Lam, A.Apply, A.Deref, A.Case):
            return 1.0
        # A Var (whose binding the planner cannot see) or an unknown node
        # type: assume the registry default, like an unregistered source.
        return self._default()
