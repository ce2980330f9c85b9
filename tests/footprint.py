"""What long-lived values hold, one measurement each, asserted on by a
tier-1 test and printed by CI's end-to-end smoke step: a client's decoded
replies (``tests/server/test_wire.py``) and ``adhoc_cold``'s term
fingerprints (``tests/nrc/test_fingerprint_equivalence.py``).

Run from the repository root with ``src``, ``benchmarks/e2e`` and ``tests``
on ``PYTHONPATH``; ``workloads`` is ``benchmarks/e2e/workloads.py``.
"""

import gc
import json
import pathlib
import tracemalloc

from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc.compile import term_fingerprint
from repro.net.framing import encode_frame
from repro.server import KleisliClient, KleisliServer
from repro.server.wire import decode_value


def traced(make):
    """``(held, result)``: ``make()``'s result and the bytes ``tracemalloc``
    traces for what it keeps, everything else it built dropped.  A full
    collection before and after empties the interpreter's free lists, which
    would hide or keep the pass's own garbage; the collector's callbacks are
    off meanwhile (the test runner's keep a float total of collection
    time)."""
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()
        gc.callbacks.extend(callbacks)


def decoded_wide_replies(workloads, seed=22):
    """``(held, replies)``: the values decoded from ``wide_stream``'s fetch
    replies at ``seed``, each framed and parsed as the client does, and the
    bytes ``tracemalloc`` traces for them (the frames are not counted)."""
    workload = workloads.build("wide_stream", seed=seed, seconds=1)

    def bind(session):
        for name, (rows, list_as) in workload.bindings.items():
            session.bind(name, rows, list_as=list_as)

    with KleisliServer(session_setup=bind) as server, \
            KleisliClient(server.address) as client:
        cursor = client.open(workloads.WIDE_QUERY)
        frames, done = [], False
        while not done:
            reply = client.request({"op": "fetch", "cursor": cursor,
                                    "n": workload.fetch_batch})
            frames.append(encode_frame({"values": reply["values"]}))
            done = reply["done"]
    return traced(lambda: [decode_value(json.loads(frame[4:].decode("utf-8"))["values"])
                           for frame in frames])


def adhoc_fingerprints(workloads, seed=22):
    """``(held, fingerprints)``: the term fingerprints of ``adhoc_cold``'s
    warm-up and op texts at ``seed``, sized as the benchmark runs it
    (``run_seconds`` of ``BENCHMARK.json``), each made as
    ``workloads._adhoc_pool`` makes it, and the bytes ``tracemalloc``
    traces for them once their terms are dropped."""
    root = pathlib.Path(__file__).resolve().parents[1]
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    workload = workloads.build("adhoc_cold", seed=seed, seconds=seconds)
    texts = [text for op in workload.warmup + workload.ops for _, text in op.parts]
    return traced(lambda: [term_fingerprint(desugar_expression(parse_expression(text)))
                           for text in texts])
