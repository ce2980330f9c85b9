"""Shared-engine state under concurrent use (the query service's substrate).

Many sessions multiplex onto ONE ``KleisliEngine`` — so the compile cache
and the evaluation scopes are hammered from N threads at once here, with
three invariants:

* **value parity** — every thread sees exactly the single-threaded value for
  every corpus shape (the differential corpus of ``test_stream_differential``);
* **counter consistency** — cache *activity* is deterministic even when the
  hit/miss split is not: every run performs the same lookups, so the summed
  deltas scale exactly with the number of runs (two threads may both miss on
  the same fingerprint and compile twice — that changes the split, never the
  sum);
* **scope hygiene** — once every thread has joined, no ``EvalScope`` is left
  live (a leaked scope is a leaked cursor set).
"""

import threading

import pytest

from test_stream_differential import _shapes
from test_stream_differential import _engine as _wired_engine

from repro.core.nrc.eval import EvalScope
from repro.core.values import iter_collection
from repro.kleisli.engine import ExecutionMode, KleisliEngine

THREADS = 8
ROUNDS = 3


def _run_corpus(engine, shapes, errors=None, expected=None, stream_every=0):
    """Execute every corpus shape once; optionally also stream and compare."""
    for index, (label, expr, bindings) in enumerate(shapes):
        try:
            value = engine.execute(expr, dict(bindings))
            if expected is not None and value != expected[label]:
                raise AssertionError(
                    f"{label}: {value!r} != {expected[label]!r}")
            if stream_every and index % stream_every == 0 and \
                    expected is not None:
                streamed = list(engine.stream(expr, dict(bindings)))
                reference = list(iter_collection(expected[label]))
                if streamed != reference:
                    raise AssertionError(
                        f"{label} (streamed): {streamed!r} != {reference!r}")
        except Exception as error:  # noqa: BLE001 - collected, not swallowed
            if errors is None:
                raise
            errors.append(f"{label}: {type(error).__name__}: {error}")
            return


def _streamable_shapes():
    """Shapes whose value is a collection (streaming a scalar query is not a
    corpus case)."""
    shapes = []
    probe = KleisliEngine()
    from test_stream_differential import RangeDriver

    probe.register_driver(RangeDriver())
    for label, expr, bindings in _shapes():
        value = probe.execute(expr, dict(bindings))
        try:
            iter_collection(value)
        except Exception:
            continue
        shapes.append((label, expr, bindings))
    return shapes


class TestSharedEngineConcurrency:
    def test_n_threads_see_single_threaded_values(self):
        engine = _wired_engine()
        shapes = _streamable_shapes()
        expected = {label: engine.execute(expr, dict(bindings))
                    for label, expr, bindings in shapes}
        baseline_scopes = EvalScope.live_count()
        errors = []

        def worker():
            for _ in range(ROUNDS):
                _run_corpus(engine, shapes, errors=errors,
                            expected=expected, stream_every=3)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, "\n".join(errors[:10])
        assert EvalScope.live_count() == baseline_scopes, \
            "evaluation scopes leaked by concurrent runs"

    def test_cache_activity_scales_exactly_with_runs(self):
        """Counter math: after a warm-up, one corpus round produces a fixed
        delta of compile-cache *gets* (hits+misses); N threads x R rounds
        must produce exactly N*R times that — anything else means a counter
        update was lost to a race."""
        engine = _wired_engine()
        shapes = [(label, expr, bindings)
                  for label, expr, bindings in _shapes()]
        # Warm up: caches filled.
        for _ in range(2):
            _run_corpus(engine, shapes)

        cache = engine._compiled_queries
        gets0 = cache.hits + cache.misses
        _run_corpus(engine, shapes)
        per_round_gets = (cache.hits + cache.misses) - gets0
        assert per_round_gets > 0, "corpus exercises the compile cache"

        gets0 = cache.hits + cache.misses
        threads = [threading.Thread(
            target=lambda: [_run_corpus(engine, shapes)
                            for _ in range(ROUNDS)])
            for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        runs = THREADS * ROUNDS
        assert (cache.hits + cache.misses) - gets0 == runs * per_round_gets, \
            "compile-cache lookup count drifted under concurrency"

    def test_concurrent_streams_on_one_engine_release_all_cursors(self):
        """Interleaved partially-consumed streams from many threads: every
        thread abandons some streams early; all cursors must be released."""
        from test_stream_differential import RangeDriver
        from repro.core.nrc import ast as A
        from repro.core.nrc import builder as B

        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        expr = B.ext("x", B.singleton(B.var("x"), "list"),
                     A.Scan("ranges", {"table": "t", "count": 50},
                            kind="list"), kind="list")
        baseline_scopes = EvalScope.live_count()
        errors = []

        def worker(seed):
            try:
                for round_number in range(6):
                    stream = engine.stream(expr, {})
                    taken = (seed + round_number) % 5
                    values = [next(stream) for _ in range(taken)]
                    assert values == list(range(taken))
                    if (seed + round_number) % 2:
                        stream.close()  # abandoned mid-way
                    else:
                        rest = list(stream)
                        assert values + rest == list(range(50))
            except Exception as error:  # noqa: BLE001
                errors.append(f"thread {seed}: {error}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, "\n".join(errors)
        assert EvalScope.live_count() == baseline_scopes
        assert engine.health()["live_scopes"] == baseline_scopes
