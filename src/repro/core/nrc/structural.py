"""Structural recursion: the paradigm comprehensions are derived from.

Section 2 of the paper notes that comprehension syntax *"is derived from a
more powerful programming paradigm on collection types, that of structural
recursion"*, and that this more general form of computation *"allows the
expression of aggregate functions such as summation, as well as functions such
as transitive closure, that cannot be expressed through comprehensions
alone."*

This module supplies the pieces of that paradigm the reproduction exposes:

* :func:`fold_value` — Python-level structural recursion over any CPL
  collection (the run-time counterpart of the :class:`~repro.core.nrc.ast.Fold`
  NRC node, which CPL programs reach with ``fold(\\acc => \\x => e, init, coll)``).
* Well-definedness spot checks — structural recursion over a *set* is only
  well defined when the combining function is insensitive to element order and
  to duplicates; over a *bag*, to order only.  :func:`check_fold_well_defined`
  performs the commutativity / duplicate-insensitivity checks on sample data
  (the property cannot be decided in general, so the system checks the inputs
  it is actually given, mirroring how [6] treats the preconditions).
* :func:`transitive_closure` — the paper's canonical example of a query beyond
  comprehensions, used e.g. to chase chains of homology or containment links.
* :func:`group_by` / :func:`nest` / :func:`unnest` — the value-level
  restructuring operations behind the keyword-inversion example of Section 2.
* :func:`proven_collection_kind` — the static *kind proof* over (optimized)
  NRC terms: which collection class a term's value is guaranteed to have,
  decided from the term structure alone.  The streaming backend uses it to
  lower ``Union`` as a chained pipeline (skipping ``union_like``'s run-time
  operand class check only where the proof makes it redundant).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..errors import EvaluationError
from ..records import Record
from ..values import CBag, CList, CSet, iter_collection
from . import ast as A

__all__ = [
    "fold_value",
    "check_fold_well_defined",
    "is_order_insensitive",
    "is_duplicate_insensitive",
    "transitive_closure",
    "group_by",
    "nest",
    "unnest",
    "proven_collection_kind",
    "register_kind_prover",
]


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

def fold_value(function: Callable[[object, object], object], init: object,
               collection: object) -> object:
    """Structural recursion over a CPL collection, at the Python level.

    ``function`` takes ``(accumulator, element)`` and returns the new
    accumulator.  Elements are visited in the collection's iteration order;
    callers folding over sets or bags should make sure the function is
    insensitive to that order (see :func:`check_fold_well_defined`).
    """
    if not isinstance(collection, (CSet, CBag, CList)):
        raise EvaluationError(
            f"fold expects a collection, got {type(collection).__name__}"
        )
    accumulator = init
    for element in collection:
        accumulator = function(accumulator, element)
    return accumulator


def is_order_insensitive(function: Callable[[object, object], object], init: object,
                         samples: Sequence[object]) -> bool:
    """Spot-check that folding ``samples`` in reversed order gives the same result.

    A necessary condition for a fold over a *bag* (and a set) to be well
    defined.  Like all property spot checks this can only refute, not prove.
    """
    samples = list(samples)
    forward = _fold_list(function, init, samples)
    backward = _fold_list(function, init, list(reversed(samples)))
    return forward == backward


def is_duplicate_insensitive(function: Callable[[object, object], object], init: object,
                             samples: Sequence[object]) -> bool:
    """Spot-check that re-inserting an element does not change the result.

    The extra condition a fold over a *set* needs beyond order insensitivity
    (sets identify duplicates; the fold must too).
    """
    samples = list(samples)
    if not samples:
        return True
    plain = _fold_list(function, init, samples)
    duplicated = _fold_list(function, init, samples + [samples[0]])
    return plain == duplicated


def check_fold_well_defined(function: Callable[[object, object], object], init: object,
                            collection: object) -> List[str]:
    """Return a list of well-definedness violations observed on ``collection``.

    An empty list means no violation was observed (not a proof).  Lists never
    produce violations — folding a list is always well defined.
    """
    issues: List[str] = []
    if isinstance(collection, CList):
        return issues
    samples = list(iter_collection(collection))
    if not is_order_insensitive(function, init, samples):
        issues.append("combining function is sensitive to element order")
    if isinstance(collection, CSet) and not is_duplicate_insensitive(function, init, samples):
        issues.append("combining function is sensitive to duplicate insertion")
    return issues


def _fold_list(function: Callable[[object, object], object], init: object,
               items: Iterable[object]) -> object:
    accumulator = init
    for item in items:
        accumulator = function(accumulator, item)
    return accumulator


# ---------------------------------------------------------------------------
# Transitive closure
# ---------------------------------------------------------------------------

def transitive_closure(relation: object) -> CSet:
    """Transitive closure of a binary relation.

    ``relation`` is a set (or bag or list) of two-field records — e.g.
    ``{[from = "a", to = "b"], ...}`` — or of two-element lists.  The result is
    the set of records, with the *same* field labels as the input, relating
    every element to everything reachable from it.  Semi-naive iteration keeps
    the work proportional to the edges actually added.
    """
    pairs, labels = _relation_pairs(relation)
    closure = set(pairs)
    frontier = set(pairs)
    successors: Dict[object, set] = {}
    for source, target in pairs:
        successors.setdefault(source, set()).add(target)
    while frontier:
        additions = set()
        for source, middle in frontier:
            for target in successors.get(middle, ()):
                candidate = (source, target)
                if candidate not in closure:
                    additions.add(candidate)
        for source, target in additions:
            successors.setdefault(source, set()).add(target)
        closure |= additions
        frontier = additions
    return CSet(_pair_value(labels, source, target) for source, target in closure)


def _relation_pairs(relation: object) -> Tuple[List[Tuple[object, object]], Tuple[str, ...]]:
    if not isinstance(relation, (CSet, CBag, CList)):
        raise EvaluationError(
            f"transitive closure expects a collection, got {type(relation).__name__}"
        )
    pairs: List[Tuple[object, object]] = []
    labels: Tuple[str, ...] = ()
    for element in relation:
        if isinstance(element, Record):
            if len(element.labels) != 2:
                raise EvaluationError(
                    "transitive closure expects records with exactly two fields, "
                    f"got fields {element.labels!r}"
                )
            labels = element.labels
            pairs.append(element.values)
        elif isinstance(element, CList) and len(element) == 2:
            pairs.append((element[0], element[1]))
        else:
            raise EvaluationError(
                "transitive closure expects two-field records or two-element lists, "
                f"got {type(element).__name__}"
            )
    return pairs, labels


def _pair_value(labels: Tuple[str, ...], source: object, target: object) -> object:
    if labels:
        return Record({labels[0]: source, labels[1]: target})
    return CList([source, target])


# ---------------------------------------------------------------------------
# Grouping and nesting
# ---------------------------------------------------------------------------

def group_by(collection: object, key: Callable[[object], object]) -> Dict[object, List[object]]:
    """Group the elements of a collection by ``key`` (a Python callable)."""
    groups: Dict[object, List[object]] = {}
    for element in iter_collection(collection):
        groups.setdefault(key(element), []).append(element)
    return groups


def nest(collection: object, group_label: str, *by_labels: str) -> CSet:
    """The nested-relational ``nest`` operator over a set of records.

    Records that agree on ``by_labels`` are merged into one record carrying
    those fields plus ``group_label``, a set of the remaining sub-records —
    the restructuring the paper's keyword-inversion example performs with a
    comprehension.
    """
    if not by_labels:
        raise EvaluationError("nest requires at least one grouping field")
    groups: Dict[Tuple[object, ...], List[Record]] = {}
    for element in iter_collection(collection):
        if not isinstance(element, Record):
            raise EvaluationError("nest expects a collection of records")
        key = tuple(element.project(label) for label in by_labels)
        groups.setdefault(key, []).append(element.without_fields(*by_labels))
    result = []
    for key, members in groups.items():
        fields = dict(zip(by_labels, key))
        fields[group_label] = CSet(members)
        result.append(Record(fields))
    return CSet(result)


def unnest(collection: object, group_label: str) -> CSet:
    """The inverse of :func:`nest`: flatten a set-valued field back into rows."""
    result = []
    for element in iter_collection(collection):
        if not isinstance(element, Record):
            raise EvaluationError("unnest expects a collection of records")
        nested = element.project(group_label)
        outer = element.without_fields(group_label)
        for inner in iter_collection(nested):
            if isinstance(inner, Record):
                merged = dict(outer.items())
                merged.update(inner.items())
                result.append(Record(merged))
            else:
                result.append(outer.with_fields(**{group_label: inner}))
    return CSet(result)


# ---------------------------------------------------------------------------
# Static collection-kind inference (the kind proof)
# ---------------------------------------------------------------------------
#
# ``proven_collection_kind(term)`` returns "set" | "bag" | "list" when the
# term's value is *guaranteed* (whenever evaluation succeeds) to be the
# corresponding collection class, and ``None`` when no such guarantee exists.
# The proof is purely structural:
#
# * constructors and loop operators (``Empty``, ``Singleton``, ``Ext`` and
#   registered subclasses) build their result with
#   ``make_collection(kind, ...)``, so their declared kind IS the run-time
#   class;
# * the transparent spine (``Let`` bodies, ``IfThenElse`` with agreeing
#   branches) propagates the proof;
# * ``Union`` is proven only when both operands are, with the same kind
#   (a proven *mismatch* is deliberately unproven: the eager path raises at
#   run time, and a fallback keeps that behavior);
# * everything whose value is supplied from outside the term — ``Var``,
#   ``Const``, ``Scan`` (a driver may answer with any class, or a lazy
#   cursor), ``Cached`` (its entry may be a build side's spilled rows, or
#   another subquery's under the same caller-named key), function
#   application, primitives — is unproven.
#
# Soundness matters more than completeness here: a false "proven" would let
# the streaming backend chain a union without ``union_like``'s operand class
# check and silently accept terms ``execute`` rejects; a false "unproven"
# merely costs an eager section.

_KIND_PROVERS: Dict[Type[A.Expr], Callable[[A.Expr], Optional[str]]] = {}


def register_kind_prover(node_type: Type[A.Expr]):
    """Register a static kind prover for an AST node type (extension hook).

    Same exact-type dispatch discipline as the compiler registries in
    :mod:`repro.core.nrc.compile`: a subclass (e.g. ``ParallelExt``) is not
    silently proven as its base class — it registers its own prover or stays
    unproven.  The registered function maps the node to a collection kind
    (``"set"``/``"bag"``/``"list"``) or ``None``.
    """

    def decorator(function):
        _KIND_PROVERS[node_type] = function
        return function

    return decorator


def proven_collection_kind(expr: A.Expr) -> Optional[str]:
    """The statically proven collection kind of ``expr``, or ``None``.

    ``k`` (not ``None``) means: if evaluating ``expr`` returns at all, the
    value is an instance of the kind-``k`` collection class.  ``None`` means
    no guarantee — not that the value is *not* a collection.
    """
    prover = _KIND_PROVERS.get(type(expr))
    if prover is None:
        return None
    return prover(expr)


@register_kind_prover(A.Empty)
@register_kind_prover(A.Singleton)
@register_kind_prover(A.Ext)
@register_kind_prover(A.BindScan)
def _prove_declared_kind(expr) -> Optional[str]:
    return expr.kind


@register_kind_prover(A.Union)
def _prove_union(expr: A.Union) -> Optional[str]:
    if (proven_collection_kind(expr.left) == expr.kind
            and proven_collection_kind(expr.right) == expr.kind):
        return expr.kind
    return None


@register_kind_prover(A.Let)
def _prove_let(expr: A.Let) -> Optional[str]:
    return proven_collection_kind(expr.body)


@register_kind_prover(A.IfThenElse)
def _prove_if(expr: A.IfThenElse) -> Optional[str]:
    kind = proven_collection_kind(expr.then_branch)
    if kind is not None and proven_collection_kind(expr.else_branch) == kind:
        return kind
    return None
