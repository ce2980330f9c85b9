"""The plain value classes: what they kept of being dataclasses.

``OptimizerConfig``, ``ScanSpec``, ``PhysicalPlan``, ``RetryPolicy``,
``CircuitBreakerPolicy``, ``QueryOptions`` and ``Chromosome22Dataset`` take
their fields by keyword or position with the same defaults, validate in
``__post_init__``, compare by value and print readably; the four frozen ones
hash and refuse assignment.
"""

import pytest

from repro.bio.chromosome22 import Chromosome22Dataset
from repro.core.optimizer import OptimizerConfig
from repro.core.optimizer.introduction import ScanSpec
from repro.core.planner import PhysicalPlan
from repro.core.nrc.compile import ChunkPolicy, ExecutionMode
from repro.kleisli.engine import QueryOptions
from repro.kleisli.resilience import CircuitBreakerPolicy, RetryPolicy

FROZEN = [PhysicalPlan, RetryPolicy, CircuitBreakerPolicy, QueryOptions]
MUTABLE = [OptimizerConfig, ScanSpec, Chromosome22Dataset]


def _instance(cls, **changes):
    if cls is ScanSpec:
        return ScanSpec("GDB", **changes)
    if cls is Chromosome22Dataset:
        return Chromosome22Dataset("gdb", "genbank", "acedb", "publications", **changes)
    return cls(**changes)


def test_fields_and_defaults_are_the_declared_ones():
    assert OptimizerConfig._fields == (
        "monadic", "sql_pushdown", "path_pushdown", "local_joins", "caching",
        "parallelism", "parallel_max_workers", "planning")
    assert OptimizerConfig().parallel_max_workers == 5
    assert OptimizerConfig.disabled() == OptimizerConfig(
        monadic=False, sql_pushdown=False, path_pushdown=False,
        local_joins=False, caching=False, parallelism=False)
    assert PhysicalPlan.default() == PhysicalPlan() and PhysicalPlan().is_default
    assert PhysicalPlan().remote_max_chunk == ChunkPolicy.REMOTE_MAX_CHUNK
    assert RetryPolicy().max_attempts == 3 and RetryPolicy().jitter is None
    assert CircuitBreakerPolicy().recovery_time == 30.0
    assert QueryOptions._fields == (
        "mode", "deadline", "on_source_failure", "cancellation",
        "memory_budget", "spill", "profile", "chunk_policy")
    assert QueryOptions._defaults == dict.fromkeys(QueryOptions._fields) | {
        "profile": False}
    assert QueryOptions(mode="interpret").mode is ExecutionMode.INTERPRET
    spec = ScanSpec("GDB", {"table": "locus"}, "table")
    assert (spec.driver, spec.request_template, spec.argument_key,
            spec.argument_is_record, spec.result_kind) == \
        ("GDB", {"table": "locus"}, "table", False, "set")


def test_a_list_or_dict_default_is_not_shared():
    first, second = ScanSpec("A"), ScanSpec("B")
    first.request_template["table"] = "locus"
    assert second.request_template == {}
    assert _instance(Chromosome22Dataset).fasta_library == []
    assert _instance(Chromosome22Dataset).fasta_library is not \
        _instance(Chromosome22Dataset).fasta_library


@pytest.mark.parametrize("cls", FROZEN + MUTABLE, ids=lambda cls: cls.__name__)
def test_equality_and_repr_are_by_value(cls):
    assert _instance(cls) == _instance(cls)
    # 7 is no execution mode: QueryOptions takes it as a deadline.
    field = next(name for name in cls._fields
                 if name in cls._defaults and name != "mode")
    changed = _instance(cls, **{field: 7})
    assert changed != _instance(cls)
    assert _instance(cls) != object()
    text = repr(changed)
    assert text.startswith(cls.__name__ + "(") and f"{field}=7" in text
    assert all(f"{name}=" in text for name in cls._fields)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_classes_hash_and_refuse_assignment(cls):
    instance = _instance(cls)
    assert hash(instance) == hash(_instance(cls))
    assert len({instance, _instance(cls)}) == 1
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(instance, field, 0)
    with pytest.raises(AttributeError):
        delattr(instance, field)
    assert instance == _instance(cls)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable_classes_assign_and_do_not_hash(cls):
    instance = _instance(cls)
    setattr(instance, cls._fields[-1], "changed")
    assert getattr(instance, cls._fields[-1]) == "changed"
    with pytest.raises(TypeError):
        hash(instance)


@pytest.mark.parametrize("policy", [
    lambda: RetryPolicy(max_attempts=0),
    lambda: RetryPolicy(backoff_base=-1.0),
    lambda: RetryPolicy(backoff_cap=-1.0),
    lambda: CircuitBreakerPolicy(failure_threshold=0),
    lambda: CircuitBreakerPolicy(recovery_time=-1.0),
    lambda: QueryOptions(on_source_failure="bogus"),
])
def test_post_init_validates(policy):
    with pytest.raises(ValueError):
        policy()


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError):
        OptimizerConfig(no_such_switch=True)
    with pytest.raises(TypeError):
        ScanSpec()                                     # ``driver`` has no default
    with pytest.raises(TypeError):
        ScanSpec("GDB", driver="GDB")                  # given twice
    with pytest.raises(TypeError):
        CircuitBreakerPolicy(1, 2.0, 3)                # one too many
