"""The Kleisli optimizer: the paper's rule sets wired into one pipeline.

Stages (Section 4), in the order the pipeline applies them:

1. **Driver introduction** — applications of registered driver functions become
   :class:`~repro.core.nrc.ast.Scan` nodes the later stages can rewrite.
2. **Monadic normalisation** — R1 vertical fusion, R2 horizontal fusion,
   R3 filter promotion, R4 projection reduction, plus the monad laws.
3. **Pushdown** — selections, projections and joins migrate into SQL for
   drivers that speak SQL; projections and variant selections migrate into
   path expressions for the ASN.1 driver.
4. **Local joins** — in a remaining cross-source nested loop, the equality
   that can key an index moves in front of the filters that hide it.
5. **Caching** — inside a loop, subqueries that do not depend on it are
   wrapped in ``Cached`` (the blocked join's inner side), and a correlated
   loop over one that does not probes an index built once (the indexed join).
6. **Parallelism** — inner loops that issue remote requests become bounded
   parallel loops.
"""

from .pipeline import OptimizerPipeline, OptimizerConfig
from .introduction import ScanSpec, make_introduction_rule_set
from .pushdown_sql import make_sql_pushdown_rule_set
from .pushdown_path import make_path_pushdown_rule_set
from .joins import make_join_rule_set
from .caching import make_caching_rule_set
from .parallel import ParallelExt, make_parallel_rule_set

__all__ = [
    "OptimizerPipeline", "OptimizerConfig",
    "ScanSpec", "make_introduction_rule_set",
    "make_sql_pushdown_rule_set", "make_path_pushdown_rule_set",
    "make_join_rule_set", "make_caching_rule_set",
    "ParallelExt", "make_parallel_rule_set",
]
