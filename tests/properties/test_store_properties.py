"""Property tests for the plan-store record codec.

Two contracts the durability layer rests on:

* **Round-trip identity** — a statistics record (cardinality triples and
  an observed-latency map) framed and read back is the record written,
  exactly;
* **Framing paranoia** — for an arbitrary run of framed records
  arbitrarily truncated, :func:`decode_record` never raises and the
  records it decodes frame by frame are a *prefix* of what was written,
  byte-for-byte: corruption can lose records, never mint them.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner.store import decode_record, encode_record

names = st.text(max_size=12)

statistics_states = st.fixed_dictionaries({
    "cardinalities": st.lists(
        st.tuples(names, names, st.integers(min_value=0, max_value=2**53))
        .map(list), max_size=4),
    "observed_latency": st.dictionaries(
        names, st.floats(min_value=0, max_value=1e3,
                         allow_nan=False, allow_infinity=False),
        max_size=4),
})


@given(state=statistics_states, ts=st.floats(min_value=0, max_value=4e9))
@settings(max_examples=100, deadline=None)
def test_statistics_record_roundtrip(state, ts):
    record = dict(state, kind="statistics", ts=ts)
    frame = encode_record(record)
    decoded, end = decode_record(frame)
    assert end == len(frame)
    assert decoded == json.loads(json.dumps(record)) == record


@given(
    states=st.lists(statistics_states, min_size=1, max_size=5),
    cut=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_truncated_frames_yield_byte_exact_prefix(states, cut):
    frames = [encode_record(dict(state, kind="statistics", ts=float(i)))
              for i, state in enumerate(states)]
    data = b"".join(frames)
    truncated = data[:min(cut, len(data))]
    records, offset = [], 0
    while True:
        record, offset = decode_record(truncated, offset)  # never raises
        if record is None:
            break
        records.append(record)
    # Prefix property: the recovered records are exactly the fully-
    # contained frames, in order — nothing invented, nothing reordered.
    whole, used = [], 0
    for i, frame in enumerate(frames):
        if used + len(frame) <= len(truncated):
            whole.append(i)
            used += len(frame)
        else:
            break
    assert [int(record["ts"]) for record in records] == whole
    assert offset == used
