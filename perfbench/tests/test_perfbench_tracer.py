"""The tracing wrappers return what the wrapped call returns."""

import atexit
import pickle

import pytest

import tracer
from tracer import Recorder, traced


def test_wrapper_returns_the_same_object_and_records_a_span():
    rec = Recorder()
    payload = {"a": [1, 2]}
    wrapped = traced(rec, "layer.call", lambda x, y=0: payload,
                     lambda a, k, r: {"n": len(r)})
    assert wrapped(1, y=2) is payload
    [(name, start, end, span_id, parent, attrs)] = rec.spans
    assert name == "layer.call" and end >= start and parent is None
    assert attrs == {"n": 1}


def test_nested_calls_record_their_parent():
    rec = Recorder()
    inner = traced(rec, "inner", lambda: 5)
    outer = traced(rec, "outer", lambda: inner() + 1)
    assert outer() == 6
    by_name = {span[0]: span for span in rec.spans}
    assert by_name["inner"][4] == by_name["outer"][3]


def test_exceptions_pass_through_and_are_marked():
    rec = Recorder()

    def boom():
        raise KeyError("x")
    with pytest.raises(KeyError):
        traced(rec, "boom", boom, lambda a, k, r: {"never": True})()
    assert rec.spans[0][5] == {"error": True}
    assert rec.current() is None


def test_generator_wrapper_yields_and_returns_unchanged():
    rec = Recorder()

    def gen(n):
        for i in range(n):
            yield i * 10
        return "done"
    wrapped = traced(rec, "stream", gen)

    def consume():
        result = yield from wrapped(3)
        return result
    items = []
    g = consume()
    try:
        while True:
            items.append(next(g))
    except StopIteration as stop:
        assert stop.value == "done"
    assert items == [0, 10, 20]
    assert [s[0] for s in rec.spans] == ["stream"]


def test_generator_span_closes_when_consumer_breaks():
    rec = Recorder()
    wrapped = traced(rec, "stream", lambda: (yield from range(100)))
    for value in wrapped():
        if value == 2:
            break
    assert [s[0] for s in rec.spans] == ["stream"]


def test_methods_keep_self_and_return_value():
    rec = Recorder()

    class Store:
        def append(self, record):
            return (self, record)
    Store.append = traced(rec, "store.append", Store.append)
    store = Store()
    assert store.append("r") == (store, "r")


def test_installed_wrappers_keep_the_program_results(tmp_path):
    from repro.common.jsonutil import canonical_json
    from repro.sweep import runner
    from repro.sweep.grid import SweepSpec

    point = SweepSpec(n_instructions=300, cluster_counts=(2,)).expand()[0]
    payload = point.to_dict()
    before = runner.execute_point(payload)[0]
    saved = {name: getattr(runner, name) for name in
             ("execute_point", "generate_trace", "_worker_init")}
    from repro.engine import codegen, pipeline
    from repro.exec import frontier
    from repro.fabric import backends
    from repro.service import client
    from repro.sweep import store
    patched = [
        (codegen, "compile_kernel"), (pipeline.Pipeline, "run_record"),
        (frontier.FlushFrontier, "__init__"), (frontier.FlushFrontier, "complete"),
        (store.ResultStore, "__init__"), (store.ResultStore, "append"),
        (store.ResultStore, "merge"), (store.ResultStore, "read_record"),
        (client.ServiceClient, "submit"), (client.ServiceClient, "stream"),
        (client.ServiceClient, "result"), (client.ServiceClient, "_backoff"),
        (backends, "validate_record_bytes"), (backends.PeerBackend, "run_shard"),
    ]
    originals = [(owner, name, owner.__dict__[name]) for owner, name in patched]
    try:
        rec = tracer.install(str(tmp_path))
        atexit.unregister(rec.dump)
        runner.clear_trace_cache()
        after = runner.execute_point(payload)[0]
        assert canonical_json(after) == canonical_json(before)
        # Patched in where the pool looks it up, it still pickles by name.
        assert pickle.loads(pickle.dumps(runner.execute_point)) \
            is runner.execute_point
        names = {span[0] for span in rec.spans}
        assert {"runner.point", "engine.simulate",
                "workloads.trace_gen"} <= names
        results = store.ResultStore(str(tmp_path / "s.jsonl"))
        results.append(after)
        assert results.merge([after]) == 0
        assert results.read_record(after["key"]) == after
        assert rec.counters == {}
    finally:
        for name, value in saved.items():
            setattr(runner, name, value)
        for owner, name, value in originals:
            setattr(owner, name, value)
