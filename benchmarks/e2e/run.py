"""The end-to-end benchmark: client socket to last row, with a per-layer ledger.

One command prints every metric by name with its unit and checks every
operation's value against the interpreter::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--runs K]
                                  [--out FILE] [--quick]

It drives ``KleisliClient`` -> ``KleisliServer`` -> ``Session`` ->
``KleisliEngine`` -> drivers over a loopback socket, closed loop (a session
sends its next request when the previous reply is decoded), each workload in
a fresh subprocess.  Without ``--trace`` it is the *orchestrator*: every
selected workload is run with ``--trace 0`` for the end-to-end metrics and
with ``--trace 1`` for the per-layer ones, and one result JSON is written.

With ``--workload NAME --trace 0|1`` it is one *measured run* in this
process (the form ``BENCHMARK.json``'s command takes): it runs an untraced
section sized for ``--seconds`` seconds — and, with ``--trace 1``, a traced
one after it — and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``README.md`` in this directory is the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: What a client sees of the untraced section, with tracing off.  On the
#: shared box this was built on these do not repeat within a bound (README,
#: "Noise"), so they are per-layer metrics: reported, not gated.
HEADLINE = {
    "query_p50_ms": "ms",
    "throughput_qps": "1/s",
    "ttfr_p50_ms": "ms",
    "rows_per_s": "1/s",
}

#: Headline metrics of the cursor workloads only.  A measured run prints
#: them for every workload (``BENCHMARK.json`` has one metric list); the
#: orchestrator's result, and so ``compare.py``, leaves them out elsewhere.
CURSOR_ONLY = ("ttfr_p50_ms", "rows_per_s")

PER_LAYER = {
    **HEADLINE,
    "client.decode_self_ms": "ms",
    "client.query_tail_ms": "ms",
    "client.query_tail_pct": "%",
    "client.age_drift_ratio": "ratio",
    "framing.self_ms": "ms",
    "framing.bytes_per_op": "bytes",
    "framing.frames_per_op": "count",
    "service.dispatch_self_ms": "ms",
    "service.queued_share": "ratio",
    "wire.encode_self_ms": "ms",
    "wire.rows_encoded_per_op": "count",
    "session.self_ms": "ms",
    "cpl.parse_self_ms": "ms",
    "cpl.typecheck_self_ms": "ms",
    "cpl.desugar_self_ms": "ms",
    "optimizer.self_ms": "ms",
    "optimizer.rewrites_per_op": "count",
    "planner.fingerprint_self_ms": "ms",
    "planner.plan_self_ms": "ms",
    "compile.lower_self_ms": "ms",
    "compile.cache_hit_share": "ratio",
    "engine.execute_self_ms": "ms",
    "engine.ext_iterations_per_op": "count",
    "engine.scan_elements_per_op": "count",
    "engine.fallbacks_per_op": "count",
    "drivers.requests_per_op": "count",
    "drivers.busy_sum_ms": "ms",
    "drivers.wait_cover_ms": "ms",
    "drivers.overlap_ratio": "ratio",
    "shape.join_ms": "ms",
    "shape.aggregate_ms": "ms",
    "shape.semijoin_ms": "ms",
    "ledger.root_ms": "ms",
    "ledger.unattributed_share": "ratio",
    "ledger.tracing_overhead_share": "ratio",
    "harness.datagen_s": "s",
    "harness.oracle_s": "s",
    "harness.first_op_ms": "ms",
}

#: Span names whose self time makes up each ``*_self_ms`` metric.
LAYER_SPANS = {
    "client.decode_self_ms": ("client.query", "client.open", "client.fetch"),
    "framing.self_ms": ("framing.send", "framing.recv", "framing.encode_frame"),
    # What no wrapped layer accounts for: the root's own time (harness loop),
    # the round trip (socket transit, thread wake-up) and the server's
    # dispatch and admission.
    "service.dispatch_self_ms": ("op", "client.request", "service.handle"),
    "wire.encode_self_ms": ("wire.encode",),
    "session.self_ms": ("session.query", "session.stream"),
    "cpl.parse_self_ms": ("cpl.parse",),
    "cpl.typecheck_self_ms": ("cpl.typecheck",),
    "cpl.desugar_self_ms": ("cpl.desugar",),
    "optimizer.self_ms": ("optimizer.compile",),
    "planner.fingerprint_self_ms": ("planner.fingerprint",),
    "planner.plan_self_ms": ("planner.plan",),
    "compile.lower_self_ms": ("compile.lower",),
    "engine.execute_self_ms": ("engine.execute", "engine.stream", "engine.next"),
    "drivers.wait_cover_ms": ("drivers.execute", "drivers.execute_batch"),
}

#: How many times a run sets up (server, sessions, definitions, warm-up)
#: and how many fresh interpreters it times importing the program in;
#: ``setup_s`` is the sum of the two medians.
SETUP_REPEATS = 5
#: Operations a traced section traces.  It runs at least twice as many: the
#: untraced ones in between give the latency the tracing overhead is
#: measured against.
TRACED_OPS = 30


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------

def program_source() -> Path:
    source = REPO / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"run.py: no program to benchmark at {source}")
    return source


def build_program() -> None:
    """Byte-compile the program, as installing it does.

    A fresh checkout has no ``__pycache__``, and whether importing writes
    one depends on the environment (``PYTHONDONTWRITEBYTECODE``): without
    this step ``setup_s`` and ``peak_rss_mb`` would measure Python's
    compiler in some environments and not in others.  Another process does
    it, to leave this one's memory alone; up-to-date files are skipped, and
    a file that does not compile is reported and left to the import.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(program_source())], timeout=600)


def import_program() -> float:
    """Import what a run uses of the program; seconds it took."""
    source = program_source()
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    started = time.perf_counter()
    import repro.bio.chromosome22  # noqa: F401
    import repro.kleisli.drivers  # noqa: F401
    import repro.kleisli.session  # noqa: F401
    import repro.server  # noqa: F401
    return time.perf_counter() - started


def probe_imports(count: int) -> List[float]:
    """Import time in ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, str(HERE / "run.py"),
                               "--probe-imports"], capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def session_setup(workload, session) -> None:
    """What every session starts with: the bound tables and definitions."""
    for name, (value, list_as) in workload.bindings.items():
        session.bind(name, value, list_as=list_as)
    for definition in workload.defines:
        session.run(definition)


class Served:
    """A started server over a fresh engine, and its connected sessions."""

    def __init__(self, workload, sessions: int, recorder=None) -> None:
        from repro.kleisli.engine import KleisliEngine
        from repro.server import KleisliClient, KleisliServer

        self.engine = KleisliEngine()
        for driver, latency in workload.drivers(True):
            self.engine.register_driver(driver, latency=latency)
        if recorder is not None:
            import tracing
            tracing.wrap_drivers(recorder, self.engine)
        self.server = KleisliServer(
            self.engine,
            session_setup=lambda session: session_setup(workload, session))
        self.server.start()
        self.clients = []
        try:
            for _ in range(sessions):
                self.clients.append(KleisliClient(self.server.address))
        except BaseException:
            self.close()
            raise

    def driver_requests(self) -> int:
        return sum(driver.request_count
                   for driver in self.engine.drivers.values())

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------

class Sample(NamedTuple):
    key: str
    #: Seconds from sending the first part to decoding the last value.
    latency: float
    #: Seconds from sending the first part to the first decoded row.
    ttfr: float
    rows: int
    parts: Tuple[float, ...]
    queued: bool
    #: Canonical digest of the decoded values (see :func:`digest`); ``None``
    #: when the operation raised.
    digest: object
    error: Optional[str] = None
    #: Per-layer values of a traced operation (:func:`layer_row`).
    layers: Optional[Dict[str, float]] = None


def run_op(client, workload, op) -> Tuple[float, float, Tuple[float, ...], list]:
    """Run ``op``'s parts in order; ``(latency, ttfr, part latencies,
    values)``.

    A ``query`` part's first row has arrived when its reply is decoded; a
    ``cursor`` part's when the first non-empty fetch is.
    """
    values = []
    parts = []
    first_row = None
    begin = time.perf_counter()
    for _, text in op.parts:
        started = time.perf_counter()
        if workload.kind == "query":
            value = client.query(text)
            arrived = time.perf_counter()
        else:
            cursor = client.open(text)
            value = []
            arrived = None
            done = False
            while not done:
                reply = client.fetch(cursor, workload.fetch_batch)
                value.extend(reply["values"])
                if arrived is None and value:
                    arrived = time.perf_counter()
                done = reply["done"]
        finished = time.perf_counter()
        if first_row is None:
            first_row = (arrived if arrived is not None else finished) - begin
        parts.append(finished - started)
        values.append(value)
    return time.perf_counter() - begin, first_row, tuple(parts), values


_SCALARS = frozenset((bool, int, float, str, bytes, type(None)))


def canon(value: object) -> object:
    """A hashable form equal exactly when two CPL values are the same:
    type-exact on scalars (``True`` is not ``1``, ``1`` is not ``1.0``),
    order-insensitive on sets and bags, order-sensitive on lists."""
    from repro.core.values import CBag, CList, CSet, Record, Variant

    kind = type(value)
    if kind is Record:
        kinds = tuple(map(type, value.values))
        if _SCALARS.issuperset(kinds):  # a flat row: no per-field recursion
            return (value.directory.labels, value.values, kinds)
        return (value.directory.labels, tuple(map(canon, value.values)))
    if kind is CSet:
        return ("set", frozenset(map(canon, value)))
    if kind is CBag:
        return ("bag", frozenset(Counter(map(canon, value)).items()))
    if kind is CList:
        return ("list", tuple(map(canon, value)))
    if kind is Variant:
        return ("variant", value.tag, canon(value.value))
    return (kind.__name__, value)


def digest(kind: str, values: Sequence[object], expected: bool = False) -> object:
    """What is kept of an operation's values to compare with the oracle's.

    A ``query`` value is compared whole.  A ``cursor``'s rows are compared
    as a multiset, and in order too when the oracle's value is a list; the
    row count catches a set streamed with duplicates.
    """
    from repro.core.values import CList

    if kind == "query":
        return hash(tuple(canon(value) for value in values))
    summary = []
    for rows in values:
        elements = tuple(canon(row) for row in rows)
        ordered = hash(elements)
        if expected and type(rows) is not CList:
            ordered = None
        summary.append((len(elements), ordered,
                        hash(frozenset(Counter(elements).items()))))
    return summary


def digests_agree(actual, expected) -> bool:
    if not isinstance(expected, list):
        return actual == expected
    return len(actual) == len(expected) and all(
        count == want_count and bag == want_bag
        and (want_order is None or order == want_order)
        for (count, order, bag), (want_count, want_order, want_bag)
        in zip(actual, expected))


def row_count(value: object) -> int:
    try:
        return len(value)
    except TypeError:
        return 1


# ---------------------------------------------------------------------------
# The per-layer row of one traced operation
# ---------------------------------------------------------------------------

def layer_row(ledger, counts: Dict[str, float], requests: int) -> Dict[str, float]:
    if sum(ledger.self_ns.values()) != ledger.root_ns:
        raise AssertionError("span self times do not add up to the root span")
    row = {metric: sum(ledger.self_ns.get(name, 0) for name in names) / 1e6
           for metric, names in LAYER_SPANS.items()}
    busy = 0
    if row["drivers.wait_cover_ms"]:
        names = {span.id: span.name for span in ledger.spans}
        busy = sum(span.end - span.start for span in ledger.spans
                   if span.name.startswith("drivers.")
                   and not names[span.parent].startswith("drivers."))
    row["drivers.busy_sum_ms"] = busy / 1e6
    cover = row["drivers.wait_cover_ms"]
    row["drivers.overlap_ratio"] = busy / 1e6 / cover if cover else 0.0
    row["drivers.requests_per_op"] = requests
    row["framing.bytes_per_op"] = counts.get("framing.bytes", 0)
    row["framing.frames_per_op"] = ledger.calls.get("framing.send", 0)
    row["wire.rows_encoded_per_op"] = ledger.calls.get("wire.encode", 0)
    row["optimizer.rewrites_per_op"] = counts.get("optimizer.rewrites", 0)
    row["engine.ext_iterations_per_op"] = counts.get("engine.ext_iterations", 0)
    row["engine.scan_elements_per_op"] = counts.get("engine.scan_elements", 0)
    row["engine.fallbacks_per_op"] = counts.get("engine.fallbacks", 0)
    row["compile.cache_hits"] = counts.get("compile.cache_hits", 0)
    row["compile.cache_misses"] = counts.get("compile.cache_misses", 0)
    row["ledger.root_ms"] = ledger.root_ns / 1e6
    row["ledger.unattributed_share"] = (
        row["service.dispatch_self_ms"] / row["ledger.root_ms"])
    return row


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(percentile, value)``.  With too few samples for that, the median."""
    ordered = sorted(samples)
    if len(ordered) <= 20:
        return 50.0, statistics.median(ordered)
    below = len(ordered) - 10
    return 100.0 * below / len(ordered), ordered[below - 1]


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------

class SessionLog:
    """What one session's loop recorded."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        #: What killed the loop, if anything did (a harness bug, not a
        #: failed operation); re-raised by the main thread.
        self.crash: Optional[BaseException] = None


def session_loop(client, workload, ops: Iterator, deadline: float,
                 log: SessionLog, served: Served, recorder,
                 trace_every: int) -> None:
    """One session's closed loop until ``ops`` is used up (or the time is)."""
    import tracing
    from repro.core.errors import WireProtocolError

    traced_op = None if recorder is None else recorder.wrap(tracing.ROOT, run_op)
    index = 0
    try:
        while time.perf_counter() < deadline:
            op = next(ops, None)
            if op is None:
                return
            index += 1
            tracing_this = recorder is not None and index % trace_every == 0
            layers = None
            try:
                if tracing_this:
                    requests = served.driver_requests()
                    recorder.begin()
                    try:
                        latency, ttfr, parts, values = traced_op(client, workload, op)
                    finally:
                        spans, counts = recorder.end()
                    layers = layer_row(tracing.ledger(spans), counts,
                                       served.driver_requests() - requests)
                else:
                    latency, ttfr, parts, values = run_op(client, workload, op)
            except Exception as error:  # noqa: BLE001 - a failed op, counted
                log.samples.append(Sample(op.key, 0.0, 0.0, 0, (), False,
                                          None, f"{type(error).__name__}: {error}"))
                if isinstance(error, (OSError, WireProtocolError)):
                    return  # the connection is gone; nothing more can succeed
                continue
            log.samples.append(Sample(
                op.key, latency, ttfr, sum(row_count(value) for value in values),
                parts, client.last_admission == "queued",
                digest(workload.kind, values), None, layers))
    except BaseException as error:  # noqa: BLE001 - handed to the main thread
        log.crash = error


def oracle(workload, ops) -> Dict[str, object]:
    """Expected digest per operation key, from the interpreter.

    A separate ``Session(execution_mode="interpret")`` over the same bound
    data and zero-latency drivers: never the compiled path, never the wire
    (and no type inference, which a value does not need).  A fresh session
    every few hundred queries keeps the oracle from ageing.
    """
    from repro.kleisli.session import Session

    expected = {}
    session = None
    for count, op in enumerate(ops):
        if count % 256 == 0:
            session = Session(execution_mode="interpret", typecheck=False)
            for driver, _ in workload.drivers(False):
                session.register_driver(driver)
            session_setup(workload, session)
        values = [session.query(text).value for _, text in op.parts]
        expected[op.key] = digest(workload.kind, values, expected=True)
    return expected


def set_up(workload, sessions: int, recorder, repeats: int):
    """Start a server, connect and warm up, ``repeats`` times over.

    Returns the last server (still running), the seconds each set-up took
    and the latency of the very first, cold, operation in ms.
    """
    samples = []
    first_op_ms = None
    for repeat in range(repeats):
        started = time.perf_counter()
        served = Served(workload, sessions, recorder)
        try:
            for index, op in enumerate(workload.warmup):
                latency = run_op(served.clients[index % sessions], workload, op)[0]
                if first_op_ms is None:
                    first_op_ms = latency * 1e3
        except BaseException:
            served.close()
            raise
        samples.append(time.perf_counter() - started)
        if repeat < repeats - 1:
            served.close()
    return served, samples, first_op_ms


class Section(NamedTuple):
    """One timed section: what each session recorded, and the wall time
    from the first session's start to the last session's end."""

    logs: List[SessionLog]
    wall_s: float

    def samples(self) -> List[Sample]:
        return [sample for log in self.logs for sample in log.samples]


def timed_section(workload, served: Served, count: int, cap_s: float,
                  recorder=None, trace_every: int = 0) -> Section:
    """Every session of ``served`` runs ``count`` operations in a closed loop
    (a pool workload: the sessions share its first ``count``).

    A fixed count, not a fixed time, so that counters and the memory
    high-water mark do not depend on the machine's speed; ``cap_s`` only
    ends a section the machine has made absurdly long.
    """
    logs = [SessionLog() for _ in served.clients]
    pool = None if workload.cycle else islice(workload.op_stream(), count)
    gc.collect()
    timed_from = time.perf_counter()
    threads = [threading.Thread(
        target=session_loop,
        args=(client, workload, pool or islice(workload.op_stream(), count),
              timed_from + cap_s, log, served, recorder, trace_every))
        for client, log in zip(served.clients, logs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - timed_from
    for log in logs:
        if log.crash is not None:
            raise log.crash
    return Section(logs, wall_s)


def measured_run(args) -> int:
    """Build, set up, run the untraced section and — with ``--trace 1`` —
    a traced one on one session; check every value; print the metrics."""
    build_program()
    import_samples = [import_program()]
    import tracing
    import workloads

    started = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, args.seconds)
    datagen_s = time.perf_counter() - started
    count = workload.op_count(args.seconds)
    cap_s = 3 * args.seconds

    repeats = 1
    if not args.trace:  # setup_s is an end-to-end metric
        repeats = SETUP_REPEATS
        import_samples += probe_imports(SETUP_REPEATS - 1)
    served, setup_samples, first_op_ms = set_up(workload, workload.sessions,
                                                None, repeats)
    try:
        plain = timed_section(workload, served, count, cap_s)
    finally:
        served.close()
    # Read the high-water mark before the oracle adds the harness's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sections = [plain]
    if args.trace:
        recorder = tracing.Recorder()
        uninstall = tracing.install(recorder)
        try:
            # One session: one operation is traced at a time.
            served, _, _ = set_up(workload, 1, recorder, 1)
            try:
                traced_count = 2 * TRACED_OPS if workload.cycle else count
                sections.append(timed_section(
                    workload, served, traced_count, cap_s, recorder,
                    max(2, traced_count // TRACED_OPS)))
            finally:
                served.close()
        finally:
            uninstall()

    samples = [sample for section in sections for sample in section.samples()]
    by_key = {op.key: op for op in workload.ops}
    started = time.perf_counter()
    expected = oracle(workload, [by_key[key] for key in
                                 dict.fromkeys(sample.key for sample in samples)])
    oracle_s = time.perf_counter() - started

    def correct(log: SessionLog) -> List[Sample]:
        return [sample for sample in log.samples if sample.error is None
                and digests_agree(sample.digest, expected[sample.key])]

    good_sessions = [[correct(log) for log in section.logs]
                     for section in sections]
    failed = len(samples) - sum(len(good) for section in good_sessions
                                for good in section)
    for sample in samples:
        if sample.error is not None:
            print(f"failed op {sample.key}: {sample.error}", file=sys.stderr)
    if not all(good for section in good_sessions for good in section):
        print("run.py: a session completed no correct operation", file=sys.stderr)
        return 1
    if args.trace:
        values = headline_metrics(good_sessions[0], plain.wall_s)
        values.update(ledger_metrics(workload, good_sessions[0],
                                     good_sessions[1][0]))
        values.update({"harness.datagen_s": datagen_s,
                       "harness.oracle_s": oracle_s,
                       "harness.first_op_ms": first_op_ms})
        units = PER_LAYER
        if args.dump:
            dump_spans(Path(args.dump), workload.name, recorder.last,
                       good_sessions[1][0])
    else:
        values = {"setup_s": statistics.median(import_samples)
                  + statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


def headline_metrics(good_sessions: List[List[Sample]],
                     wall_s: float) -> Dict[str, float]:
    """From the correct operations of all sessions of the untraced section
    and its wall time."""
    good = [sample for session in good_sessions for sample in session]
    return {
        "query_p50_ms": statistics.median(s.latency for s in good) * 1e3,
        "throughput_qps": len(good) / wall_s,
        "ttfr_p50_ms": statistics.median(s.ttfr for s in good) * 1e3,
        "rows_per_s": sum(s.rows for s in good) / wall_s,
    }


def ledger_metrics(workload, good_sessions: List[List[Sample]],
                   traced_session: List[Sample]) -> Dict[str, float]:
    """Latency statistics of the untraced section; medians over the traced
    section's traced operations of their :func:`layer_row`."""
    traced = [s for s in traced_session if s.layers is not None]
    between = [s.latency for s in traced_session if s.layers is None]
    if not traced or not between:
        raise SystemExit("run.py: too few operations for a traced run; "
                         "raise --seconds")
    values = {name: statistics.median(s.layers[name] for s in traced)
              for name in traced[0].layers}
    hits = sum(s.layers["compile.cache_hits"] for s in traced)
    misses = sum(s.layers["compile.cache_misses"] for s in traced)
    values["compile.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    between_p50 = statistics.median(between)
    values["ledger.tracing_overhead_share"] = (
        statistics.median(s.latency for s in traced) - between_p50) / between_p50

    good = [sample for session in good_sessions for sample in session]
    values["client.query_tail_pct"], tail = tail_percentile(
        [s.latency for s in good])
    values["client.query_tail_ms"] = tail * 1e3
    drifts = []
    for session in good_sessions:
        tenth = max(1, len(session) // 10)
        drifts.append(statistics.median(s.latency for s in session[-tenth:])
                      / statistics.median(s.latency for s in session[:tenth]))
    values["client.age_drift_ratio"] = statistics.median(drifts)
    values["service.queued_share"] = sum(s.queued for s in good) / len(good)
    labels = [label for label, _ in workload.ops[0].parts]
    for shape in ("join", "aggregate", "semijoin"):
        values[f"shape.{shape}_ms"] = (
            statistics.median(s.parts[labels.index(shape)] for s in good) * 1e3
            if shape in labels else 0.0)
    return values


def dump_spans(path: Path, name: str, last_spans, good) -> None:
    """Write the last traced operation's spans and every traced
    operation's per-layer row, for reading a ledger by hand."""
    import tracing

    spans = tracing.ledger(last_spans).spans
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "workload": name,
            "last_traced_op": [span._asdict() for span in spans],
            "rows": [s.layers for s in good if s.layers is not None],
        }, handle)


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------

def run_worker(workload: str, seed: int, seconds: float, trace: int,
               dump: Optional[Path]) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if dump is not None:
        command += ["--dump", str(dump)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: {workload} (trace {trace}) printed no result "
                         f"(exit code {done.returncode})")
    return json.loads(lines[-1])


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (needs two values and
    a median that is not zero)."""
    if len(values) < 2 or not statistics.median(values):
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def orchestrate(args) -> int:
    import_program()
    import workloads

    names = [args.workload] if args.workload else list(workloads.NAMES)
    seconds = max(1.0, args.seconds / 10) if args.quick else args.seconds
    results_dir = HERE / "results"
    result = {"benchmark": "e2e", "seed": args.seed, "runs": args.runs,
              "seconds": seconds, "quick": args.quick, "workloads": {}}
    failed_total = 0
    for name in names:
        entry = {"why": workloads.WHY[name], "ops_attempted": [],
                 "ops_failed": [], "end_to_end": {}, "per_layer": {}}
        for run in range(args.runs):
            seed = args.seed + run
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                dump = (results_dir / f"{name}.spans.json"
                        if trace and run == args.runs - 1 else None)
                reply = run_worker(name, seed, seconds, trace, dump)
                for metric, reading in reply["metrics"].items():
                    if (metric in CURSOR_ONLY
                            and name not in workloads.CURSOR_WORKLOADS):
                        continue
                    slot = entry[section].setdefault(
                        metric, {"unit": reading["unit"], "values": []})
                    slot["values"].append(reading["value"])
                if trace == 0:
                    entry["ops_attempted"].append(reply["attempted"])
                    entry["ops_failed"].append(reply["failed"])
                failed_total += reply["failed"]
        for section in ("end_to_end", "per_layer"):
            for slot in entry[section].values():
                slot["median"] = statistics.median(slot["values"])
        result["workloads"][name] = entry
        report(name, entry, args.quick)

    out = Path(args.out) if args.out else results_dir / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nresult written to {out}")
    if failed_total:
        print(f"FAILED: {failed_total} operations failed or returned a wrong value")
        return 1
    return 0


def report(name: str, entry: dict, quick: bool) -> None:
    label = "  [QUICK: smoke run, numbers not comparable]" if quick else ""
    print(f"\n== {name}{label}\n   {entry['why']}")
    print(f"   ops attempted {entry['ops_attempted']}  failed {entry['ops_failed']}")
    for section in ("end_to_end", "per_layer"):
        print(f"  -- {section}")
        for metric, slot in entry[section].items():
            line = f"   {metric:<32}{slot['median']:>14.4f} {slot['unit']}"
            share = spread(slot["values"])
            if share is not None:
                line += f"   (IQR/median {share:.3f} over {len(slot['values'])} runs)"
            print(line)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=22)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="do ONE measured run in this process: 0 prints "
                             "the end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--runs", type=int, default=1,
                        help="orchestrator: runs per workload, seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--out", help="orchestrator: result JSON path "
                                      "(default: results/latest.json)")
    parser.add_argument("--quick", action="store_true",
                        help="orchestrator: a tenth of the run length, "
                             "for smoke use only")
    parser.add_argument("--dump", help="traced run: write the last traced "
                                       "operation's spans here")
    parser.add_argument("--probe-imports", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_imports:
        print(import_program())
        return 0
    if args.seconds is None:
        with open(REPO / "BENCHMARK.json") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return measured_run(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
