"""The CPL session: the user-facing layer of the system.

A :class:`Session` is what the paper's biologist-facing views are built on: it
parses CPL, type-checks it against the declared types of registered sources,
desugars to NRC, hands the term to the Kleisli engine for optimization and
evaluation, and formats results (CPL value syntax, HTML, tab-delimited).

Optimizing at compile time pays only if compile time is not paid on every
arrival: a session reuses a query text's *prepared form* until something it
depends on changes (see :class:`Session`).  ``run``, ``query`` and ``stream``
take the run options of :class:`~repro.kleisli.engine.QueryOptions` and add
the session's defaults.

Typical use::

    session = Session()
    session.register_driver(RelationalDriver("GDB", gdb_database))
    session.register_driver(EntrezDriver("GenBank", entrez_server))
    session.run('define Loci22 == ...')
    result = session.run('{ [locus = l, homologs = NA-Links(u)] | \\l <- Loci22, ... }')
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import types as T
from ..core.cpl import ast as S
from ..core.cpl.desugar import desugar_expression, desugar_statement
from ..core.cpl.parser import parse, parse_expression
from ..core.cpl.printer import render_html, render_tabular, render_value
from ..core.cpl.typecheck import TypeChecker
from ..core.errors import CPLTypeError, ReproError
from ..core.nrc import ast as A
from ..core.optimizer import OptimizerConfig
from ..core.values import from_python
from .drivers.base import Driver
from .engine import ExecutionMode, KleisliEngine, _CompileCache
from .governance import MemoryBudget

__all__ = ["Session", "QueryResult"]

#: How many prepared query forms a session keeps (least recently used out).
PREPARED_FORM_LIMIT = 64


class QueryResult:
    """The value of a query plus the compile/run artefacts a caller may inspect."""

    def __init__(self, value: object, nrc: A.Expr, optimized: A.Expr,
                 inferred_type: Optional[T.Type]):
        self.value = value
        self.nrc = nrc
        self.optimized = optimized
        self.inferred_type = inferred_type

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"QueryResult({self.value!r})"


class Session:
    """A CPL session over a Kleisli engine.

    :meth:`query` and :meth:`stream` parse, type-check, desugar, expand and
    optimize a text once: its *prepared form* (inferred type, expanded NRC,
    optimized term) is kept in a per-session LRU of
    :data:`PREPARED_FORM_LIMIT` under ``(text, optimize, typecheck, session
    epoch, engine epoch)``.  The session epoch moves on :meth:`bind`,
    :meth:`define_type` and every ``define``; the engine's
    (:attr:`KleisliEngine.epoch`) on a driver's (un)registration and on a
    statistic the rule sets read — a cardinality, a declared latency,
    availability, a restore, an observed latency crossing the remote
    threshold, but not a routine latency sample.  Planning, the compile-LRU
    lookup and the run happen on every send, so the plan follows the
    statistics.
    A reused form rewrites nothing: ``engine.last_rewrite_stats`` is the
    last optimization's.  :meth:`run` still takes each statement afresh: a
    program is not a query form.
    """

    def __init__(self, engine: Optional[KleisliEngine] = None,
                 optimizer_config: Optional[OptimizerConfig] = None,
                 typecheck: bool = True,
                 execution_mode: Optional[object] = None,
                 on_source_failure: Optional[str] = None,
                 memory_limit: Optional[int] = None):
        self.engine = engine if engine is not None else KleisliEngine(optimizer_config)
        self.typecheck = typecheck
        #: Session default for how a run executes: ``None`` defers to the
        #: engine's mode.  The engine, and every other session on it, keeps
        #: its own.  Per-call overrides win.
        self._execution_mode = (None if execution_mode is None
                                else ExecutionMode.coerce(execution_mode))
        #: Session default for what a federated run does when a source stays
        #: down after retries: ``None`` defers to the engine's policy,
        #: ``"fail"`` propagates, ``"degrade"`` completes with typed
        #: partial-result warnings.  Per-call overrides win.
        self.on_source_failure = on_source_failure
        #: The session-wide memory quota: every governed run this session
        #: starts charges a per-run child of this budget, so concurrent
        #: queries share the cap and a finished run's usage flows back.
        #: ``None`` (the default) leaves runs ungoverned unless a per-call
        #: budget (or an engine pool) says otherwise.
        self.memory_budget: Optional[MemoryBudget] = None
        if memory_limit is not None:
            self.set_memory_limit(memory_limit)
        self.values: Dict[str, object] = {}
        # ``define f == e`` makes f a *synonym* for e (the paper's wording), so
        # definitions are stored as NRC expressions and expanded into queries
        # before optimization — that is what lets the optimizer see through
        # Loci22 / ASN-IDs in the DOE query and push work to the drivers.
        self.definitions: Dict[str, A.Expr] = {}
        self.type_checker = TypeChecker()
        # Bumped after the change it records, never before: a send that
        # reads the new epoch must also see the new state.
        self._epoch = 0
        self._forms = _CompileCache(PREPARED_FORM_LIMIT)
        # The streams this session handed out that something still holds,
        # for close(); weak, so no stream unregisters.  The lock keeps
        # close()'s snapshot from racing an add on another thread.
        self._streams_lock = threading.Lock()
        self._streams = weakref.WeakSet()
        self._register_existing_driver_functions()

    # -- registration ------------------------------------------------------------

    def register_driver(self, driver: Driver, latency: Optional[float] = None,
                        source_types: Optional[Dict[str, T.Type]] = None) -> Driver:
        """Register a driver with the engine and bind its CPL functions.

        ``source_types`` optionally declares the CPL result type of each driver
        function for the type checker (e.g. the Publication type for an
        Entrez division).
        """
        self.engine.register_driver(driver, latency=latency)
        self._bind_driver_functions(driver)
        for name, ty in (source_types or {}).items():
            self.type_checker.bind_value_type(name, ty)
        return driver

    def _register_existing_driver_functions(self) -> None:
        for driver in self.engine.drivers.values():
            self._bind_driver_functions(driver)

    def _bind_driver_functions(self, driver: Driver) -> None:
        for function in driver.cpl_functions():
            # A callable fallback so that applications the optimizer does not
            # convert into Scan nodes still evaluate.
            def call(argument, _driver=driver, _function=function):
                return _driver.execute(_function.build_request(argument))

            self.values[function.name] = call
            # Give the function a permissive type so typechecking of queries
            # that call it does not fail (drivers may declare better types via
            # ``source_types``).
            if self.type_checker.environment.lookup(function.name) is None:
                self.type_checker.bind_value_type(
                    function.name, T.FunctionType(T.fresh_type_var(), T.fresh_type_var()))

    def bind(self, name: str, value: object, cpl_type: Optional[T.Type] = None,
             list_as: str = "list") -> object:
        """Bind a Python or CPL value in the session environment.

        Plain Python data (dicts, lists, sets, scalars) is lifted into CPL
        values; ``cpl_type`` (or an inferred type) is declared to the checker.
        """
        lifted = from_python(value, list_as=list_as)
        self.values[name] = lifted
        if cpl_type is None:
            from ..core.values import infer_type

            try:
                cpl_type = infer_type(lifted)
            except ReproError:
                cpl_type = None
        if cpl_type is not None:
            self.type_checker.bind_value_type(name, cpl_type)
        self._epoch += 1
        return lifted

    def define_type(self, name: str, cpl_type: T.Type) -> None:
        """Declare the type of a name without binding a value (e.g. a driver function)."""
        self.type_checker.bind_value_type(name, cpl_type)
        self._epoch += 1

    # -- running CPL ----------------------------------------------------------------

    def run(self, source: str, optimize: bool = True, **options):
        """Run a CPL program (one or more statements); return the last query's value.

        ``options`` are the run options of
        :class:`~repro.kleisli.engine.QueryOptions`, applied to each
        statement's run with the session's defaults: its failure policy and
        its quota (:meth:`set_memory_limit`).
        A statement is governed and profiled on its *optimized* term, so the
        auto-spill decision and ``last_profile.estimated_rows`` are those of
        :meth:`query` and :meth:`stream` for the same text.
        """
        program = parse(source)
        result = None
        for statement in program.statements:
            result = self._run_statement(statement, optimize,
                                         self._with_defaults(options))
        return result

    def query(self, source: str, optimize: bool = True,
              **options) -> QueryResult:
        """Run a single CPL expression and return the full :class:`QueryResult`
        (``options`` as in :meth:`run`)."""
        inferred, nrc, optimized = self._prepare(source, optimize)
        value = self.engine.execute(optimized, self.values, optimize=False,
                                    **self._with_defaults(options))
        return QueryResult(value, nrc, optimized, inferred)

    # -- governance ---------------------------------------------------------------

    def set_memory_limit(self, limit: Optional[int]) -> None:
        """Install (or clear, with ``None``) the session-wide memory quota.

        The quota parents into the engine's pool when one is configured, so
        a charge is admitted only if the query, the session *and* the engine
        all have room.  Replacing the quota affects runs started afterwards;
        in-flight runs keep charging the budget they were admitted under.
        """
        if limit is None:
            self.memory_budget = None
            return
        self.memory_budget = MemoryBudget(
            limit, label="session", parent=self.engine.governor.pool)

    def _with_defaults(self, options: Dict[str, object]) -> Dict[str, object]:
        """A call's run options with the session's defaults applied; the rest
        go to the engine as given, and the engine checks them all.

        No ``on_source_failure`` or ``mode`` → the session's (``None``: the
        engine's).
        No ``memory_budget`` → the session quota (or ``None``: ungoverned).
        A per-call ``int`` under a session quota caps this one query *inside*
        the quota; a caller-built :class:`MemoryBudget` is trusted as-is.
        """
        options = dict(options)
        if options.get("on_source_failure") is None:
            options["on_source_failure"] = self.on_source_failure
        if options.get("mode") is None:
            options["mode"] = self._execution_mode
        budget = options.get("memory_budget")
        if budget is None:
            options["memory_budget"] = self.memory_budget
        elif (self.memory_budget is not None
                and not isinstance(budget, MemoryBudget)):
            options["memory_budget"] = MemoryBudget(
                int(budget), label="query", parent=self.memory_budget)
        return options

    def stream(self, source: str, optimize: bool = True,
               **options) -> Iterator[object]:
        """Run a query with pipelined (lazy) result delivery (``options`` as
        in :meth:`run`).

        In compiled mode the optimized term is lowered to a chunked
        generator pipeline, so *any* query shape — nested comprehensions,
        filters, parallel remote loops, join probes — yields elements as
        they are produced; time-to-first-result does not wait for sources
        to drain.  :attr:`last_eval_statistics` reports the run, including
        ``stream_fallbacks`` for sections that had to run eagerly.

        What comes back is :meth:`KleisliEngine.stream`'s generator, which
        settles the run however it ends; closing it early releases every
        cursor the pipeline opened.  The session remembers it weakly, for
        :meth:`close`.
        """
        optimized = self._prepare(source, optimize)[2]
        stream = self.engine.stream(optimized, self.values, optimize=False,
                                    **self._with_defaults(options))
        with self._streams_lock:
            self._streams.add(stream)
        return stream

    def close(self) -> None:
        """End the session: close every stream it handed out that something
        still holds (closing a drained one does nothing), then the quota.

        Only *this* session's cursors are released (each stream's cursors
        live in its own run's ``EvalScope``); the engine — and every other
        session multiplexed onto it — is untouched.  Each run returns its
        charges through its own budget child before the quota closes, so
        nothing is released into the pool twice.  The query service calls
        this when a client disconnects, cleanly or not.
        """
        with self._streams_lock:
            streams = list(self._streams)
        for stream in streams:
            try:
                stream.close()
            except Exception:  # pragma: no cover - best-effort release
                pass
        # Return any quota the session still holds to the engine pool; the
        # per-run children have already settled, so this is belt-and-braces
        # against a leaked charge pinning pool capacity after disconnect.
        if self.memory_budget is not None:
            self.memory_budget.close()

    @property
    def last_eval_statistics(self):
        """The :class:`~repro.core.nrc.eval.EvalStatistics` of the last run."""
        return self.engine.last_eval_statistics

    @property
    def last_warnings(self) -> List[object]:
        """Typed :class:`~repro.core.errors.SourceDegradedWarning` records of
        the last run started on this thread (empty = complete results).

        Reads the engine's *thread-local* statistics, so on a shared engine
        another session's concurrent run cannot clobber the answer.
        """
        statistics = self.engine.thread_eval_statistics()
        return list(statistics.warnings) if statistics is not None else []

    @property
    def last_profile(self):
        """The :class:`~repro.obs.profile.QueryProfile` of the last observed
        run started on this thread, or ``None`` (unobserved runs record
        nothing — the zero-recorder contract)."""
        return self.engine.thread_profile()

    def explain(self, source: str) -> Tuple[A.Expr, List[Tuple[str, str]]]:
        """Return the optimized NRC form of a query and per-stage rewrite traces."""
        nrc = self._prepare(source, optimize=False)[1]
        optimized, _, traces = self.engine.optimizer.explain(nrc)
        return optimized, traces

    def _run_statement(self, statement: S.Statement, optimize: bool,
                       options: Dict[str, object]):
        if isinstance(statement, S.Define):
            if self.typecheck:
                try:
                    self.type_checker.define(statement.name, statement.expr)
                except CPLTypeError:
                    # Definitions over un-typed driver functions are allowed;
                    # queries over properly declared sources still get checked.
                    pass
            _, _, nrc = desugar_statement(statement)
            self.definitions[statement.name] = self._expand(nrc)
            self._epoch += 1
            return None
        if self.typecheck and isinstance(statement, S.ExprStatement):
            self._infer(statement.expr)
        _, _, nrc = desugar_statement(statement)
        return self.engine.execute(self._expand(nrc), self.values,
                                   optimize=optimize, **options)

    def _expand(self, nrc: A.Expr, depth: int = 20) -> A.Expr:
        """Substitute defined synonyms into ``nrc`` (non-recursive definitions only)."""
        current = nrc
        for _ in range(depth):
            free = A.free_variables(current)
            pending = [name for name in free if name in self.definitions]
            if not pending:
                return current
            for name in pending:
                current = A.substitute(current, name, self.definitions[name])
        return current

    def _prepare(self, source: str, optimize: bool
                 ) -> Tuple[Optional[T.Type], A.Expr, A.Expr]:
        """The front half of :meth:`query` and :meth:`stream`: the text's
        prepared form, reused while its key holds (see the class docstring)."""
        key = (source, optimize, self.typecheck, self._epoch, self.engine.epoch)
        form = self._forms.get(key)
        if form is None:
            expression = parse_expression(source)
            inferred = self._infer(expression)
            nrc = self._expand(desugar_expression(expression))
            form = (inferred, nrc, self.engine.compile(nrc) if optimize else nrc)
            self._forms.put(key, form)
        return form

    def _infer(self, expression: S.SExpr) -> Optional[T.Type]:
        if not self.typecheck:
            return None
        try:
            return self.type_checker.infer(expression)
        except CPLTypeError:
            # Sources without declared types (driver functions, raw binds) make
            # full checking impossible; evaluation still proceeds, matching the
            # paper's "static type information is ... useful" (not mandatory).
            return None

    # -- output formatting --------------------------------------------------------------

    def print_value(self, value: object, width: int = 100) -> str:
        """Render a value in CPL value syntax."""
        return render_value(value, width=width)

    def print_html(self, value: object, title: str = "CPL query result") -> str:
        """Render a value as an HTML page (nested tables for nested relations)."""
        return render_html(value, title)

    def print_tabular(self, value: object, separator: str = "\t") -> str:
        """Render a flat relation as delimited text."""
        return render_tabular(value, separator)
