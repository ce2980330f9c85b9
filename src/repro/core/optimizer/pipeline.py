"""The optimizer pipeline: the paper's rule sets in their configured order.

"Optimization of queries is done entirely at compile time using rewrite
rules ... new rules can be specified by the designer of the system and grouped
into rule sets along with an indication of how they are to be applied."

:class:`OptimizerPipeline` assembles a :class:`~repro.core.nrc.rewrite.RewriteEngine`
from the stage rule sets; :class:`OptimizerConfig` exposes one switch per stage
so the ablation benchmarks can turn individual optimizations off.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Mapping, Optional, Tuple

from .._fields import Fields
from ..errors import TermTooDeepError
from ..nrc import ast as A
from ..nrc.rewrite import RewriteEngine, RewriteStats, RuleSet
from ..nrc.rules_monadic import monadic_rule_set
from .caching import make_caching_rule_set
from .introduction import ScanSpec, make_introduction_rule_set
from .joins import make_join_rule_set
from .parallel import make_bind_join_rule_set, make_parallel_rule_set
from .pushdown_path import make_path_pushdown_rule_set
from .pushdown_sql import make_sql_pushdown_rule_set

__all__ = ["OptimizerConfig", "OptimizerPipeline"]


class OptimizerConfig(Fields):
    """Per-stage switches (all on by default, as in the paper's system)."""

    monadic: bool = True
    sql_pushdown: bool = True
    path_pushdown: bool = True
    #: Key recognition only (:mod:`.joins`).  The join plans themselves — the
    #: probe, the hoisted inner side — are built by the ``caching`` stage:
    #: with that off a local join runs as the nested loop it was written as,
    #: its inner source evaluated once per outer row.
    local_joins: bool = True
    caching: bool = True
    parallelism: bool = True
    #: The paper's "say five": the width of a loop over a remote server that
    #: declared no ``max_concurrent_requests``.  A declared cap is the width.
    parallel_max_workers: int = 5
    #: Consult the cost-based planner (when one is wired) for physical
    #: knobs — parallel introduction, chunk policy.  Off, every knob is the
    #: fixed historical constant (the ablation baseline).
    #: Note the planner is *conservative by construction*: with zero
    #: registered/observed statistics it reproduces the constants exactly,
    #: so this switch only matters for informed workloads.
    planning: bool = True

    @classmethod
    def disabled(cls) -> "OptimizerConfig":
        """A configuration with every optimization off (the unoptimized baseline)."""
        return cls(monadic=False, sql_pushdown=False, path_pushdown=False,
                   local_joins=False, caching=False, parallelism=False)


class OptimizerPipeline:
    """Builds and runs the staged rewrite engine."""

    def __init__(self,
                 function_registry: Optional[Mapping[str, ScanSpec]] = None,
                 capabilities: Optional[Mapping[str, FrozenSet[str]]] = None,
                 is_remote_driver: Optional[Callable[[str], bool]] = None,
                 config: Optional[OptimizerConfig] = None,
                 extra_rule_sets: Tuple[RuleSet, ...] = (),
                 planner=None):
        self.function_registry = dict(function_registry or {})
        self.capabilities = dict(capabilities or {})
        self.is_remote_driver = is_remote_driver or (lambda driver: False)
        self.config = config or OptimizerConfig()
        self.extra_rule_sets = tuple(extra_rule_sets)
        #: The cost-based planner whose compile-time hook gates the
        #: parallel introduction (duck-typed: anything with
        #: ``parallel_workers(expr)``).  ``None`` keeps every knob constant.
        self.planner = planner if self.config.planning else None
        #: What each server declared it handles at once (the planner's
        #: ``concurrency_of``): a declaration, not a cost choice, so it
        #: decides whether a parallel loop is fixed or moving even with
        #: ``planning`` off.
        self.concurrency_of = getattr(planner, "concurrency_of", None)
        #: Which drivers ship a batch in one round trip (the planner's
        #: ``batches_natively``): a declaration too, so it decides whether a
        #: remote loop becomes a bind join even with ``planning`` off.
        self.batches_natively = getattr(planner, "batches_natively", None)
        self.engine = self._build_engine()

    def _build_engine(self) -> RewriteEngine:
        config = self.config
        rule_sets = []
        if self.function_registry:
            rule_sets.append(make_introduction_rule_set(self.function_registry))
        if config.monadic:
            rule_sets.append(monadic_rule_set())
        if config.sql_pushdown and self.capabilities:
            rule_sets.append(make_sql_pushdown_rule_set(self.capabilities))
        if config.path_pushdown and self.capabilities:
            rule_sets.append(make_path_pushdown_rule_set(self.capabilities))
        planner = self.planner
        if config.local_joins:
            rule_sets.append(make_join_rule_set())
        if config.caching:
            rule_sets.append(make_caching_rule_set())
        if config.parallelism and self.batches_natively is not None:
            rule_sets.append(make_bind_join_rule_set(
                self.is_remote_driver, self.batches_natively,
                config.parallel_max_workers,
                concurrency_of=self.concurrency_of))
        if config.parallelism:
            rule_sets.append(make_parallel_rule_set(
                self.is_remote_driver,
                config.parallel_max_workers,
                concurrency_of=self.concurrency_of,
                workers_for=None if planner is None
                else planner.parallel_workers))
        rule_sets.extend(self.extra_rule_sets)
        return RewriteEngine(rule_sets)

    def rebuild(self) -> None:
        """Re-assemble the engine (after registering more drivers or rules)."""
        self.engine = self._build_engine()

    def optimize(self, expr: A.Expr,
                 stats: Optional[RewriteStats] = None) -> A.Expr:
        """Apply every configured stage to ``expr``."""
        try:
            return self.engine.rewrite(expr, stats)
        except RecursionError:
            raise TermTooDeepError(
                "term nests too deeply to optimize") from None

    def explain(self, expr: A.Expr):
        """Optimize and also return per-stage before/after traces."""
        return self.engine.explain(expr)
