"""In-memory span recorder and the wrappers a traced benchmark process uses.

A traced process (started through ``launch.py``) calls :func:`install`,
which wraps the public entry points of every layer where their callers
look them up.  Each wrapped call records one span: name, start, end, its
own id and the id of the span that was open on the same thread when it
began (its parent).  Spans stay in memory and are written to
``<span_dir>/spans-<pid>.json`` when the process ends: at interpreter exit
for the launched process, and for forked pool workers (which never run
``atexit``) at their multiprocessing exit or on the pool's SIGTERM.

The wrappers return the wrapped call's value unchanged and never touch what
the program writes to its store.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import signal
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

AttrFn = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []      # [name, start, end, id, parent, attrs]
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, push: bool = True) -> tuple:
        span_id = next(self._ids)
        parent = self.current()
        if push:
            self._stack().append(span_id)
        return span_id, parent, now()

    def close(self, name: str, token: tuple, attrs: Optional[dict] = None,
              pop: bool = True) -> None:
        end = now()
        span_id, parent, start = token
        if pop:
            stack = self._stack()
            if stack and stack[-1] == span_id:
                stack.pop()
        self.spans.append([name, start, end, span_id, parent, attrs])

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.counters.get(name, float("-inf")):
                self.counters[name] = value

    def dump(self, span_dir: str) -> str:
        path = os.path.join(span_dir, f"spans-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counters": self.counters}, fh)
        os.replace(tmp, path)
        return path


def traced(rec: Recorder, name: str, fn: Callable,
           attrs: Optional[AttrFn] = None) -> Callable:
    """Wrap ``fn`` so every call records a ``name`` span in ``rec``.

    ``attrs(args, kwargs, result)`` may attach a small dict to the span of a
    call that returned; it runs after the span's end time is taken.  A
    generator function gets a generator wrapper whose span covers the whole
    iteration; it is not the parent of spans opened by the consumer while
    it is suspended.
    ``functools.wraps`` keeps ``__module__``/``__qualname__``, so a wrapped
    module-level function still pickles by reference once it is patched in.
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            token = rec.open(push=False)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                rec.close(name, token, None, pop=False)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = rec.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(name, token, {"error": True})
            raise
        rec.close(name, token, attrs(args, kwargs, result) if attrs else None)
        return result
    return wrapper


def _patch(owner: Any, attr: str, rec: Recorder, name: str,
           attrs: Optional[AttrFn] = None) -> None:
    setattr(owner, attr, traced(rec, name, getattr(owner, attr), attrs))


def _counted(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(name)
        return fn(*args, **kwargs)
    return wrapper


def _trace_frontier(rec: Recorder, frontier_cls: type) -> None:
    """Span ``complete`` and the emit hook; count the time each completion
    waited in the buffer for earlier indexes, and the largest buffer."""
    pending: "weakref.WeakKeyDictionary[Any, Dict[int, float]]" = \
        weakref.WeakKeyDictionary()
    orig_init = frontier_cls.__init__
    orig_complete = frontier_cls.complete

    @functools.wraps(orig_init)
    def init(self, n_items, emit):
        completed_at: Dict[int, float] = {}
        traced_emit = traced(rec, "frontier.emit", emit)

        def emit_hook(index, payload):
            traced_emit(index, payload)
            done = completed_at.pop(index, None)
            if done is not None:
                rec.add("frontier.wait.s", now() - done)
        orig_init(self, n_items, emit_hook)
        pending[self] = completed_at

    @functools.wraps(orig_complete)
    def complete(self, index, payload):
        completed_at = pending.get(self)
        if completed_at is not None and not self.is_complete(index):
            completed_at.setdefault(index, now())
        emitted = orig_complete(self, index, payload)
        if completed_at is not None:
            rec.maximum("frontier.buffered.max", len(completed_at))
        return emitted

    frontier_cls.__init__ = init
    frontier_cls.complete = traced(rec, "frontier.complete", complete)


def install(span_dir: str) -> Recorder:
    """Wrap every layer's public entry points in this process and arrange
    for the spans to be written to ``span_dir`` when the process ends."""
    from repro.common.jsonutil import canonical_json
    from repro.engine import codegen, pipeline
    from repro.exec import frontier
    from repro.fabric import backends
    from repro.service import client
    from repro.sweep import runner, store

    rec = Recorder()

    _patch(runner, "generate_trace", rec, "workloads.trace_gen",
           lambda a, k, r: {"n": k.get("n_instructions", a[1] if len(a) > 1 else 0)})
    _patch(codegen, "compile_kernel", rec, "engine.compile")
    _patch(pipeline.Pipeline, "run_record", rec, "engine.simulate",
           lambda a, k, r: {"n": r["result"]["n_instructions"]})
    _patch(runner, "execute_point", rec, "runner.point",
           lambda a, k, r: {"attempt": a[0].get("_attempt", 1)})
    _trace_frontier(rec, frontier.FlushFrontier)

    rs = store.ResultStore
    _patch(rs, "__init__", rec, "store.open",
           lambda a, k, r: {"records": len(a[0])})
    _patch(rs, "append", rec, "store.append",
           lambda a, k, r: {"bytes": len(canonical_json(a[1]).encode()) + 1})
    _patch(rs, "merge", rec, "store.merge", lambda a, k, r: {"records": r or 0})
    _patch(rs, "read_record", rec, "store.read_record")

    sc = client.ServiceClient
    _patch(sc, "submit", rec, "service.submit")
    _patch(sc, "stream", rec, "service.stream")
    _patch(sc, "result", rec, "service.result")
    sc._backoff = _counted(rec, "service.request.retries", sc._backoff)

    _patch(backends, "validate_record_bytes", rec, "fabric.validate")
    _patch(backends.PeerBackend, "run_shard", rec, "fabric.shard",
           lambda a, k, r: {"peer": a[0].name})

    def on_term(signum, frame):
        rec.dump(span_dir)
        os._exit(0)

    def on_fork() -> None:
        # A forked child starts with a copy of the parent's spans and
        # open-span stack; it records only its own.
        rec.reset()

    def on_worker_start(_rec: Recorder) -> None:
        # A pool worker leaves through os._exit, after its exit finalizers
        # when it is told to stop ...
        multiprocessing.util.Finalize(None, rec.dump, (span_dir,),
                                      exitpriority=0)

    orig_worker_init = runner._worker_init

    @functools.wraps(orig_worker_init)
    def worker_init() -> None:
        # ... or on SIGTERM when the pool terminates it.  The runner's own
        # initializer resets SIGTERM to the default action; this handler
        # ends the worker just as that would, after writing its spans.
        orig_worker_init()
        signal.signal(signal.SIGTERM, on_term)

    runner._worker_init = worker_init
    os.register_at_fork(after_in_child=on_fork)
    multiprocessing.util.register_after_fork(rec, on_worker_start)
    atexit.register(rec.dump, span_dir)
    return rec
