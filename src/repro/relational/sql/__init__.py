"""The SQL subset understood by the relational substrate.

Grammar (roughly)::

    SELECT [DISTINCT] select_list
    FROM table [alias] ("," table [alias])*
    [WHERE predicate (AND predicate)*]
    [ORDER BY column [ASC|DESC] ("," column [ASC|DESC])*]
    [LIMIT n]

with predicates ``column op constant``, ``column op column``, ``column IN
(constants)``, ``column LIKE pattern`` (``%`` and ``_`` wildcards), ``column
IS [NOT] NULL`` and ``column IS [NOT] DISTINCT FROM operand``.  A comparison,
IN or join key with a NULL operand never holds; ``IS [NOT] DISTINCT FROM``
treats NULL as a value equal only to NULL.  This covers the
SQL the paper's optimizer generates when pushing CPL selections, projections
and joins to the server (the Loci22 example), with a planner that uses indexes
and statistics the way a real server would.
"""

from .parser import parse_sql
from .executor import execute_sql
from .planner import plan_query, explain_query

__all__ = ["parse_sql", "execute_sql", "plan_query", "explain_query"]
