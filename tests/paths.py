"""One path matrix: every way a query runs, held against the interpreter.

:func:`outcomes` runs a CPL text (a ``str``) or an NRC term on each path and
returns each path's :class:`Outcome`: a type-exact value (:func:`exact`) or
the error class.  :func:`assert_agree` holds each against the oracle, the
interpreter on the *unoptimized* subject:

* ``interpret`` — the oracle;
* ``query`` — ``Session.query`` (``engine.execute`` for a term);
* ``stream`` — a drained ``Session.stream`` (``engine.stream``);
* ``chunks of one`` — that stream under ``ChunkPolicy(max_chunk=1)``;
* ``spilled`` — a stream whose seen-set spills from its first element;
* ``served query``, ``served n=1``, ``served n=256`` — a ``query`` op, and a
  cursor fetched one and 256 rows at a time, through the module's ``served``
  fixture: a CPL text only, as no wire op takes a term.

A drained stream has no collection of its own: its elements are read as the
oracle's kind, without a dedup, so a duplicate a set stage lets through
shows.  With ``ordered=False`` sets and bags compare without order.
"""

from typing import NamedTuple
from unittest import mock

from repro.core.errors import RemoteQueryError
from repro.core.nrc.compile import ChunkPolicy
from repro.core.records import Record
from repro.core.values import CBag, CList, CSet, Variant
from repro.kleisli import spill
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session
from repro.server import KleisliClient, KleisliServer

LOCAL_PATHS = ("interpret", "query", "stream", "chunks of one", "spilled")
CPL_PATHS = LOCAL_PATHS + ("served query", "served n=1", "served n=256")


class Outcome(NamedTuple):
    form: tuple         # ("value", exact form) or ("error", class name)
    error: object       # the exception raised, or None
    statistics: object  # the run's EvalStatistics; None when served
    on: object          # the session or engine it ran on; None when served


def exact(value, ordered=True):
    """A form equal exactly when two CPL values are the same value: scalar
    classes told apart (``True`` is not ``1`` is not ``1.0``), floats by
    ``repr`` (NaN equals NaN, ``-0.0`` is not ``0.0``), every collection in
    its iteration order (a set's first-occurrence order included)."""
    kind = type(value)
    if kind is Record:
        return ("record", value.directory.labels,
                tuple(exact(field, ordered) for field in value.values))
    if kind in (CSet, CBag, CList):
        return _collection(kind.__name__, value, ordered)
    if kind is Variant:
        return ("variant", exact(value.tag), exact(value.value, ordered))
    if kind is float:
        return ("float", repr(value))
    return (kind.__name__, value)


def _collection(kind, elements, ordered):
    forms = tuple(exact(element, ordered) for element in elements)
    if not ordered and kind != "CList":
        forms = tuple(sorted(forms, key=repr))
    return (kind, forms)


class Served:
    """One server for a module: each new connection's session binds the
    current example's tables and drivers."""

    def __init__(self):
        self.tables, self.drivers, self.typecheck = {}, (), True
        self.server = KleisliServer(session_setup=self._setup).start()

    def _setup(self, session):
        session.typecheck = self.typecheck
        for driver in self.drivers:
            session.register_driver(driver)
        for name, value in self.tables.items():
            session.bind(name, value)


class _SpillingAtOnce(spill.SpillManager):
    def __init__(self):
        super().__init__(memory_elements=1)


def _spilling(run):
    """``run()`` with every run's seen-set spilling from its first element."""
    with mock.patch.object(spill, "SpillManager", _SpillingAtOnce):
        return run()


def _outcome(run, on, kind, ordered):
    error = None
    try:
        value = run()
        if type(value) is not list:
            form = ("value", exact(value, ordered))
        elif kind is None and len(value) == 1:      # a streamed scalar
            form = ("value", exact(value[0], ordered))
        else:
            form = ("value", _collection(kind or "stream", value, ordered))
    except Exception as raised:  # the class is the observable
        error = raised
        form = ("error", raised.error_type if isinstance(raised, RemoteQueryError)
                else type(raised).__name__)
    return Outcome(form, error, None if on is None else on.last_eval_statistics, on)


def outcomes(subject, tables=None, *, on=None, drivers=(), served=None,
             optimize=True, ordered=True, paths=None, extra=None):
    """Each path's :class:`Outcome` for ``subject`` over ``tables``.

    ``on`` is the session (CPL text) or engine (NRC term) every path runs
    on, with ``drivers`` registered (a fresh one by default), or a function
    making a fresh one per path.  The paths but the oracle pass
    ``optimize``.  ``paths`` picks the paths to run beside the oracle (all by
    default); ``extra`` adds the caller's, ``label -> run(session or
    engine)``, whose value or drained list is held against the oracle too.
    """
    tables, text = dict(tables or {}), isinstance(subject, str)
    chosen = set(CPL_PATHS if paths is None else paths) | set(extra or ())

    def set_up(made):
        for driver in drivers:
            made.register_driver(driver)
        for name, value in tables.items() if text else ():
            made.bind(name, value)
        return made

    shared = None if callable(on) else set_up(on or (Session() if text else KleisliEngine()))

    def target():
        return set_up(on()) if shared is None else shared

    def execute(runner, **options):
        return runner.query(subject, **options).value if text else runner.execute(
            subject, tables, **options)

    def stream(runner, **options):
        return list(runner.stream(subject, **options) if text else runner.stream(
            subject, tables, **options))

    oracle_on = target()
    oracle = _outcome(lambda: execute(oracle_on, optimize=False, mode="interpret"),
                      oracle_on, None, ordered)
    status, value = oracle.form
    kind = value[0] if status == "value" and value[0] in ("CSet", "CBag", "CList") else None
    results = {"interpret": oracle}
    for path, run in {
        "query": lambda runner: execute(runner, optimize=optimize),
        "stream": lambda runner: stream(runner, optimize=optimize),
        "chunks of one": lambda runner: stream(
            runner, optimize=optimize, chunk_policy=ChunkPolicy(max_chunk=1)),
        "spilled": lambda runner: _spilling(
            lambda: stream(runner, optimize=optimize, spill=True)),
        **(extra or {}),
    }.items():
        if path in chosen:
            path_on = target()
            results[path] = _outcome(lambda: run(path_on), path_on, kind, ordered)
    if text and served is not None:
        served.tables, served.drivers, served.typecheck = tables, drivers, oracle_on.typecheck
        with KleisliClient(served.server.address) as client:
            for path, run in {
                "served query": lambda: client.query(subject),
                "served n=1": lambda: list(client.stream(subject, batch=1)),
                "served n=256": lambda: list(client.stream(subject, batch=256)),
            }.items():
                if path in chosen:
                    results[path] = _outcome(run, None, kind, ordered)
    return results


def assert_agree(results):
    """Every path's outcome is the interpreter's."""
    expected = results["interpret"].form
    for path, outcome in results.items():
        assert outcome.form == expected, (path, outcome.form, expected)
