"""What a client's decoded replies hold: one measurement, asserted on by
``tests/server/test_wire.py`` and printed by CI's end-to-end smoke step.

Run from the repository root with ``src``, ``benchmarks/e2e`` and ``tests``
on ``PYTHONPATH``; ``workloads`` is ``benchmarks/e2e/workloads.py``.
"""

import gc
import json
import tracemalloc

from repro.net.framing import encode_frame
from repro.server import KleisliClient, KleisliServer
from repro.server.wire import decode_value


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
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        replies = [decode_value(json.loads(frame[4:].decode("utf-8"))["values"])
                   for frame in frames]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, replies
