"""The Kleisli query service: concurrent CPL sessions over one shared engine.

The paper runs Kleisli as a *server* process that many biologist-facing
clients (Mosaic forms, the CPL top level, application programs) talk to at
once.  This package reproduces that deployment shape on top of the library
layers built so far: a TCP front-end that multiplexes any number of client
sessions onto **one** shared :class:`~repro.kleisli.engine.KleisliEngine`.

Wire protocol
=============

One TCP connection per client session.  Messages are JSON objects framed by
:mod:`repro.net.framing` (4-byte big-endian length prefix + UTF-8 JSON,
frames capped at ``MAX_FRAME_BYTES``).  Requests carry an ``op``; responses
carry ``ok`` plus op-specific fields, or ``ok: false`` with ``error`` and a
typed ``error_type`` the client re-raises.  Ops:

========  ====================================================================
op        meaning
========  ====================================================================
hello     handshake: server name, protocol version, supported ops
run       run a CPL *program* (defines allowed); returns the last value
query     run one CPL *expression*; returns its value
open      start a streamed query; returns a cursor id (holds a query slot)
fetch     pull up to ``n`` elements from a cursor as one encoded list
          (``values``); ``done`` marks exhaustion
close     release a cursor early
view      dispatch a CGI-style view path + form via the view gateway
stats     service counters + ``engine.health()`` snapshot
bye       clean goodbye; the server closes the connection
========  ====================================================================

CPL values cross the wire in the tagged, lossless, order-preserving JSON
encoding of :mod:`repro.server.wire` — ``decode_value(encode_value(v)) == v``,
which is what lets the harness assert bit-identical parity between served
results and single-user execution.  Inside any collection a run of records
that share a directory is one column-major block, ``{"%": "rows", "labels":
[...], "n": k, "c": [[...], ...]}``: the labels cross once, then one
``k``-item list per label (``n`` is the row count, which a zero-field block
has no column to carry).  A ``fetch`` batch is itself one encoded CPL list
(``values`` is ``{"%": "list", ...}``, not a JSON array of separately
encoded rows), so cursors and ``run``/``query``/``view`` replies share that
path.  This is protocol version **3** (``hello`` reports it); version 2 sent
a block row by row and version 1 every record as its own ``record`` object,
and neither is spoken any more.

Session lifecycle
=================

Each accepted connection gets its own serving thread and its own
:class:`~repro.kleisli.session.Session` — so ``define``/``bind`` are
per-client, exactly like separate CPL top levels.  What is *shared* through
the engine, and therefore warm across all sessions, is everything PRs 2–5
made concurrency-safe: the compile cache, the per-driver statistics
registry the planner reads, and driver connections.  A disconnect —
clean ``bye``, socket death, or mid-stream abandonment — triggers
``Session.close()``, which closes only *that* session's live streams; each
run's cursors live in its own ``EvalScope``, so one client's exit can never
release another client's pipelines.

Backpressure
============

Query execution (``run``/``query``/``open``/``view``) must first be admitted
through a bounded pool of ``max_concurrent_queries`` slots.  ``run``/``query``
hold a slot for the duration of evaluation; an ``open`` cursor holds its slot
until it is drained or closed — open cursors *are* in-flight queries, so slow
consumers exert real backpressure.  When the pool is exhausted the policy
decides: ``admission="queue"`` waits up to ``queue_timeout`` seconds for a
slot, ``admission="reject"`` refuses immediately.  Either way a refusal is a
*typed* ``ServerOverloadedError`` response, never a failure of the session —
the client may simply retry.  Every successful admission reports how it got
in (``admission: "immediate" | "queued"``) so clients can observe pressure
building before rejections start.  A separate ``max_sessions`` cap bounds
concurrent connections; over-cap connects receive the same typed error as a
one-frame reply.
"""

from .service import PROTOCOL_VERSION, KleisliServer
from .client import KleisliClient
from .wire import decode_value, encode_value

__all__ = [
    "KleisliServer",
    "KleisliClient",
    "PROTOCOL_VERSION",
    "encode_value",
    "decode_value",
]
