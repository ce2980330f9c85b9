"""Property tests for the plan-store journal codec.

Two contracts the durability layer rests on:

* **Round-trip identity** — ``decode(encode(x)) == x`` exactly, for every
  value shape a term fingerprint or observation state can contain (nested
  tuples, frozensets, bytes, the JSON scalars, and bool/int distinctness —
  JSON would silently conflate several of these without the tagged
  encoding);
* **Framing paranoia** — for an arbitrary journal of records arbitrarily
  truncated, the reader never raises and every record it returns is a
  *prefix* of what was written, byte-for-byte: corruption can lose
  records, never mint them.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner.store import (
    _decode_value,
    _encode_value,
    encode_record,
    read_journal,
)

# The leaf types term fingerprints and observation states are built from.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

# Nested containers: tuples anywhere, frozensets of hashable members.
fingerprint_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children),
        st.tuples(children, children),
        st.tuples(children, children, children),
        st.lists(children, max_size=3),
        st.frozensets(
            st.one_of(scalars, st.tuples(scalars, scalars)), max_size=4),
    ),
    max_leaves=25,
)


@given(value=fingerprint_values)
@settings(max_examples=200, deadline=None)
def test_value_codec_roundtrip_identity(value):
    encoded = _encode_value(value)
    # Must survive an actual JSON hop (that's what hits the disk).
    decoded = _decode_value(json.loads(json.dumps(encoded)))
    assert decoded == value
    assert type(decoded) is type(value)


observation_states = st.fixed_dictionaries({
    "cardinality": st.floats(min_value=0, max_value=1e12,
                             allow_nan=False, allow_infinity=False),
    "runs": st.integers(min_value=0, max_value=10_000),
})


@given(state=observation_states, ts=st.floats(min_value=0, max_value=4e9))
@settings(max_examples=100, deadline=None)
def test_feedback_record_roundtrip(state, ts):
    record = {"kind": "feedback", "ts": ts,
              "key": _encode_value(("Ext", ("Var", 0))), "obs": state}
    frame = encode_record(record)
    records, skipped = read_journal(frame)
    assert skipped == 0
    assert records == [json.loads(json.dumps(record))]


@given(
    states=st.lists(observation_states, min_size=1, max_size=5),
    cut=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_truncated_journal_yields_byte_exact_prefix(states, cut):
    frames = [encode_record({"kind": "feedback", "ts": float(i),
                             "key": ["t", "Ext", i], "obs": state})
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
    assert [record["key"][2] for record in records] == whole
    assert skipped == len(truncated) - used
