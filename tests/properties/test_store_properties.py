"""Property tests for the plan-store journal codec.

Two contracts the durability layer rests on:

* **Round-trip identity** — a statistics record (cardinality triples and
  an observed-latency map) framed and read back is the record written,
  exactly;
* **Framing paranoia** — for an arbitrary journal of records arbitrarily
  truncated, the reader never raises and every record it returns is a
  *prefix* of what was written, byte-for-byte: corruption can lose
  records, never mint them.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner.store import encode_record, read_journal

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
    records, skipped = read_journal(frame)
    assert skipped == 0
    assert records == [json.loads(json.dumps(record))] == [record]


@given(
    states=st.lists(statistics_states, min_size=1, max_size=5),
    cut=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_truncated_journal_yields_byte_exact_prefix(states, cut):
    frames = [encode_record(dict(state, kind="statistics", ts=float(i)))
              for i, state in enumerate(states)]
    data = b"".join(frames)
    truncated = data[:min(cut, len(data))]
    records, skipped = read_journal(truncated)  # must never raise
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
    assert skipped == len(truncated) - used
