"""Exception hierarchy for the CPL/Kleisli reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch the whole family with one clause.  The sub-classes mirror the stages
of the system: lexing/parsing of CPL, type inference, NRC rewriting and
evaluation, driver interaction, and the external-format substrates.

Fault taxonomy (driver faults, as the resilience layer classifies them)
-----------------------------------------------------------------------

The paper's headline scenario federates flaky wide-area sources ("the server S
may only be able to handle a limited number of requests at a time"), so the
engine's resilience layer (:mod:`repro.kleisli.resilience`) needs a principled
split between faults worth retrying and faults that can only get worse:

========================== ============ ==============================================
error                      class        why
========================== ============ ==============================================
``RemoteSourceError``      retryable    cap rejection / transient server overload —
                                        the paper's "limited number of requests";
                                        backing off and retrying is the fix
``TransientDriverError``   retryable    a driver explicitly marking a fault as
                                        transient (connection reset, injected chaos)
``DriverTimeoutError``     retryable    a request exceeded its per-request budget;
                                        the server may simply have been slow once
``ConnectionError``/       retryable    the wire flaked, not the request
``TimeoutError`` (stdlib)
``DriverNotRegisteredError`` terminal   no retry conjures up a missing driver
``DeadlineExceededError``  terminal     the *query's* time budget is spent; retrying
                                        any single request cannot un-spend it
``CircuitOpenError``       terminal*    the breaker already proved the source down;
                                        fail fast (``*`` degradable: a federated
                                        union may drop the source instead, see
                                        :class:`SourceDegradedWarning`)
``DriverError`` (other)    terminal     malformed request / semantic failure — the
                                        same request will fail the same way again
========================== ============ ==============================================

:func:`is_retryable_fault` implements the table; anything not listed (type
errors, evaluation errors, arbitrary exceptions) is terminal.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CPLSyntaxError(ReproError):
    """Raised when CPL source text cannot be tokenised or parsed.

    Carries the offending line and column so sessions can point at the
    position in the query text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        if self.line:
            return f"{self.message} (line {self.line}, column {self.column})"
        return self.message


class CPLTypeError(ReproError):
    """Raised by the type checker when a CPL expression is ill-typed."""


class PatternError(ReproError):
    """Raised when a CPL pattern is malformed or cannot match its subject type."""


class NRCError(ReproError):
    """Raised for malformed NRC terms or illegal rewrite-engine configuration."""


class TermTooDeepError(NRCError):
    """A term nests more deeply than the optimizer, the compiler or
    :func:`~repro.core.nrc.compile.term_fingerprint` can walk (they recurse
    over the tree) — the typed form of Python's ``RecursionError``."""


class EvaluationError(ReproError):
    """Raised when evaluation of a well-formed NRC term fails at run time."""


class UnboundVariableError(EvaluationError):
    """Raised when evaluation encounters a variable with no binding."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class DriverError(ReproError):
    """Raised when a Kleisli driver cannot satisfy a request."""


class DriverNotRegisteredError(DriverError):
    """Raised when a query refers to a driver that has not been registered."""

    def __init__(self, name: str):
        super().__init__(f"no driver registered under the name {name!r}")
        self.name = name


class RemoteSourceError(DriverError):
    """Raised when a (simulated) remote source rejects or drops a request.

    Classified **retryable**: the paper's cap rejection ("may only be able to
    handle a limited number of requests at a time") is exactly the fault
    backoff-and-retry exists for.
    """


class TransientDriverError(DriverError):
    """A driver fault explicitly marked transient (retryable).

    Drivers raise this — instead of the terminal :class:`DriverError` — for
    faults where re-issuing the same request can plausibly succeed: dropped
    connections, mid-transfer resets, injected chaos faults.
    """


class DriverTimeoutError(TransientDriverError):
    """A driver request exceeded its per-request time budget.

    Raised by the resilience layer (not by drivers) when a request's
    round-trip overran :attr:`~repro.kleisli.resilience.RetryPolicy.request_timeout`;
    retryable — one slow answer does not prove the source down.
    """

    def __init__(self, driver: str, elapsed: float, budget: float):
        super().__init__(
            f"driver {driver!r} request took {elapsed:.3f}s "
            f"(budget {budget:.3f}s)")
        self.driver = driver
        self.elapsed = elapsed
        self.budget = budget


class DeadlineExceededError(DriverError):
    """The *query-level* deadline budget is spent (terminal).

    Unlike a per-request timeout, a deadline bounds the whole evaluation:
    once it passes, no retry of any individual request can bring the query
    home in time, so the resilience layer stops retrying and surfaces this.
    """

    def __init__(self, driver: str, overrun: float = 0.0):
        super().__init__(
            f"query deadline exceeded while requesting from driver {driver!r}")
        self.driver = driver
        self.overrun = overrun


class CircuitOpenError(DriverError):
    """The driver's circuit breaker is open: the source is presumed down.

    Terminal for the individual call — the breaker exists precisely to stop
    hammering a failing source — but *degradable*: under
    ``on_source_failure="degrade"`` a federated union drops the source's
    contribution and records a :class:`SourceDegradedWarning` instead of
    failing the query.
    """

    def __init__(self, driver: str, retry_after: float = 0.0):
        super().__init__(
            f"circuit breaker for driver {driver!r} is open"
            + (f"; next probe in ~{retry_after:.2f}s" if retry_after > 0 else ""))
        self.driver = driver
        self.retry_after = retry_after


class QueryGovernanceError(ReproError):
    """Base class for the query-lifecycle governance faults.

    Governance faults are *verdicts about the query*, not about any one
    driver request: retrying a request cannot un-cancel a query or un-spend
    its memory budget, so both subclasses are terminal for the resilience
    layer (listed in :data:`TERMINAL_FAULTS`).
    """


class QueryCancelledError(QueryGovernanceError):
    """The query's :class:`~repro.kleisli.governance.CancellationToken` was
    cancelled; raised at the next cooperative checkpoint (chunk boundary,
    eager loop head, pre-driver-dispatch).

    The raising checkpoint always sits inside the run's
    :class:`~repro.core.nrc.eval.EvalScope`, so propagation releases every
    cursor the run opened — a cancelled query leaks nothing.
    """

    def __init__(self, reason: str = "query cancelled"):
        super().__init__(reason)
        self.reason = reason


class MemoryBudgetExceededError(QueryGovernanceError):
    """A materialization point asked for more than the query's
    :class:`~repro.kleisli.governance.MemoryBudget` (or one of its
    session/engine ancestors) allows, and no spill backend was attached.

    Terminal: the query's memory appetite does not shrink on retry.  With a
    spill backend attached (plan-gated up front), the same query degrades to
    slower-but-correct disk-backed execution instead of raising this.
    """

    def __init__(self, label: str, requested: int, limit: int, used: int):
        super().__init__(
            f"memory budget {label!r} exceeded: {requested} bytes requested, "
            f"{used} of {limit} in use")
        self.label = label
        self.requested = requested
        self.limit = limit
        self.used = used


#: Exception classes the resilience layer may retry with backoff.
RETRYABLE_FAULTS = (RemoteSourceError, TransientDriverError,
                    ConnectionError, TimeoutError)
#: Exception classes that are never retried, even though they subclass a
#: retryable base (checked first).
TERMINAL_FAULTS = (DriverNotRegisteredError, DeadlineExceededError,
                   CircuitOpenError, QueryCancelledError,
                   MemoryBudgetExceededError)


def is_retryable_fault(error: BaseException) -> bool:
    """The one classification every resilience decision routes through.

    Implements the fault-taxonomy table in the module docstring: cap
    rejections, explicitly-transient driver faults, per-request timeouts and
    stdlib connection/timeout errors are retryable; missing drivers, spent
    deadlines, open breakers, and every other fault are terminal.
    """
    if isinstance(error, TERMINAL_FAULTS):
        return False
    return isinstance(error, RETRYABLE_FAULTS)


class SourceDegradedWarning:
    """A typed record of one source dropped from a degraded federated run.

    NOT an exception: degradation is the *absence* of a failure.  When a
    query runs with ``on_source_failure="degrade"`` and a source stays down
    after retries (or its breaker is open), the run completes with partial
    results and one of these per dropped source in
    ``EvalStatistics.warnings`` — and, over the query service's wire
    protocol, in the response's ``warnings`` field — so partial results are
    always *announced*, never silent truncation.
    """

    __slots__ = ("driver", "error_type", "reason", "requests_dropped")

    def __init__(self, driver: str, error: BaseException,
                 requests_dropped: int = 1):
        self.driver = driver
        self.error_type = type(error).__name__
        self.reason = str(error)
        self.requests_dropped = requests_dropped

    def as_dict(self) -> dict:
        return {"driver": self.driver, "error_type": self.error_type,
                "reason": self.reason,
                "requests_dropped": self.requests_dropped}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"SourceDegradedWarning(driver={self.driver!r}, "
                f"error_type={self.error_type!r})")


class QueryServiceError(ReproError):
    """Base error for the multi-session query service (:mod:`repro.server`)."""


class ServerOverloadedError(QueryServiceError):
    """Raised when admission control rejects a request: the server is at its
    bounded in-flight query capacity and the admission policy chose (or was
    forced, after a queue timeout) to reject rather than queue.  The client
    may retry; the server remains fully operational."""


class RemoteQueryError(QueryServiceError):
    """A query failed on the *server* side; raised by the client.

    Carries the server-reported error class name so callers can distinguish
    a CPL syntax error from a driver failure without the server shipping
    exception objects over the wire.
    """

    def __init__(self, message: str, error_type: str = "ReproError"):
        super().__init__(message)
        self.error_type = error_type


class WireProtocolError(QueryServiceError):
    """Raised when a wire frame is malformed, oversized, or truncated."""


class PlanStoreError(ReproError):
    """Raised for plan-store *caller* misuse (unencodable values, bad
    configuration).  Never raised for corrupt or unreadable on-disk state:
    recovery is paranoid by design — bad storage degrades to skipped
    records and book entries, not exceptions."""


class SQLSyntaxError(ReproError):
    """Raised by the relational substrate when SQL text cannot be parsed."""


class SQLExecutionError(ReproError):
    """Raised when a parsed SQL statement cannot be executed against a database."""


class SchemaError(ReproError):
    """Raised for schema violations in the relational substrate."""


class ASN1Error(ReproError):
    """Base error for the ASN.1 substrate."""


class ASN1ParseError(ASN1Error):
    """Raised when ASN.1 text (type or value syntax) cannot be parsed."""


class PathSyntaxError(ASN1Error):
    """Raised when an Entrez path-extraction expression is malformed."""


class PathApplicationError(ASN1Error):
    """Raised when a path expression does not apply to the value it is run on."""


class ACEError(ReproError):
    """Base error for the ACE substrate."""


class ACEParseError(ACEError):
    """Raised when .ace text cannot be parsed."""


class FormatError(ReproError):
    """Raised by flat-file format readers/writers (FASTA, EMBL, GCG)."""
