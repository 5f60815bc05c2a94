"""Per-layer metrics from the spans of one traced grid run.

Spans come from every process of the run (benchmark-launched processes,
their pool workers, service peers), one ``spans-<pid>.json`` file each;
see ``tracer.py`` for the format.  A layer's ``.s`` metric is its spans'
*self time*: each span's duration minus the part of it that its child
spans cover, so nested layers are not counted twice.  Percentiles are of
whole-call durations.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate percentiles for a tail figure, lowest first.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

#: (name, unit) of every per-layer metric, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.trace_gen.calls", "count"),
    ("workloads.trace_gen.s", "s"),
    ("workloads.trace_gen.kinstr_per_s", "kinstr/s"),
    ("engine.compile.calls", "count"),
    ("engine.compile.s", "s"),
    ("engine.simulate.calls", "count"),
    ("engine.simulate.s", "s"),
    ("engine.simulate.kinstr_per_s", "kinstr/s"),
    ("runner.point.calls", "count"),
    ("runner.point.s", "s"),
    ("runner.point.p50_ms", "ms"),
    ("runner.point.p95_ms", "ms"),
    ("runner.trace_cache.hit_ratio", "frac"),
    ("runner.trace_cache.lookups", "count"),
    ("runner.worker_busy_frac", "frac"),
    ("runner.retries", "count"),
    ("frontier.wait.s", "s"),
    ("frontier.buffered.max", "count"),
    ("store.open.calls", "count"),
    ("store.open.s", "s"),
    ("store.append.calls", "count"),
    ("store.append.s", "s"),
    ("store.append.bytes", "bytes"),
    ("store.merge.calls", "count"),
    ("store.merge.s", "s"),
    ("store.merge.records", "count"),
    ("store.read_record.calls", "count"),
    ("store.read_record.s", "s"),
    ("service.submit.calls", "count"),
    ("service.submit.s", "s"),
    ("service.stream.s", "s"),
    ("service.result.calls", "count"),
    ("service.result.p50_ms", "ms"),
    ("service.result.p95_ms", "ms"),
    ("service.request.retries", "count"),
    ("fabric.shard.calls", "count"),
    ("fabric.shard.p50_s", "s"),
    ("fabric.shard.p75_s", "s"),
    ("fabric.validate.calls", "count"),
    ("fabric.validate.s", "s"),
    ("fabric.lease.expired", "count"),
    ("fabric.peer_busy_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
)


class Span:
    __slots__ = ("name", "start", "end", "id", "parent", "attrs", "pid")

    def __init__(self, name: str, start: float, end: float, span_id: int,
                 parent: Optional[int], attrs: Optional[dict] = None,
                 pid: int = 0) -> None:
        self.name, self.start, self.end = name, start, end
        self.id, self.parent, self.attrs, self.pid = span_id, parent, attrs, pid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=0):
        return (self.attrs or {}).get(key, default)


def tail_percentile(n: int, min_beyond: int = 10,
                    candidates: Sequence[float] = PERCENTILES) -> Optional[float]:
    """The highest candidate percentile that leaves at least ``min_beyond``
    of ``n`` samples beyond it (``None`` when even the median does not)."""
    best = None
    for p in candidates:
        if n - math.ceil(n * p / 100.0) >= min_beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """``(pid, span id) -> self time``: duration minus the union of the
    span's children's intervals within it."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append(
                (span.start, span.end))
    return {
        (s.pid, s.id): s.duration - covered(
            children.get((s.pid, s.id), ()), s.start, s.end)
        for s in spans
    }


def load_spans(span_dir: str) -> Tuple[List[Span], Dict[str, float]]:
    """Every span and the summed counters (maxima for ``*.max``) written
    to ``span_dir``."""
    spans: List[Span] = []
    counters: Dict[str, float] = {}
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        pid = data["pid"]
        spans.extend(Span(*row, pid=pid) for row in data["spans"])
        for name, value in data["counters"].items():
            if name.endswith(".max"):
                counters[name] = max(counters.get(name, value), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return spans, counters


def _busy_frac(groups: Dict[object, List[Span]], window_s: float) -> float:
    if not groups or window_s <= 0:
        return 0.0
    busy = sum(covered((s.start, s.end) for s in group)
               for group in groups.values())
    return busy / (len(groups) * window_s)


_EXPIRED = re.compile(r"(\d+) lease\(s\) expired")


def expired_leases(coordinator_stdout: str) -> int:
    """Expired-lease count from the fabric CLI's summary line (absent = 0)."""
    match = _EXPIRED.search(coordinator_stdout)
    return int(match.group(1)) if match else 0


def layer_metrics(spans: Sequence[Span], counters: Dict[str, float],
                  grid_s: float, lease_expired: int = 0) -> Dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead_frac``.

    ``grid_s`` is the traced run's wall time, the window the busy
    fractions are taken over.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name: str) -> List[Span]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return sum(own[(s.pid, s.id)] for s in group(name))

    def rate(name: str) -> float:
        seconds = self_s(name)
        n = sum(s.attr("n") for s in group(name))
        return n / seconds / 1000.0 if seconds > 0 else 0.0

    out: Dict[str, float] = {}
    for layer in ("workloads.trace_gen", "engine.compile", "engine.simulate",
                  "runner.point", "store.open", "store.append", "store.merge",
                  "store.read_record", "service.submit", "service.result",
                  "fabric.shard", "fabric.validate"):
        out[f"{layer}.calls"] = len(group(layer))
        out[f"{layer}.s"] = self_s(layer)
    out["workloads.trace_gen.kinstr_per_s"] = rate("workloads.trace_gen")
    out["engine.simulate.kinstr_per_s"] = rate("engine.simulate")

    points = group("runner.point")
    point_ms = [s.duration * 1e3 for s in points]
    out["runner.point.p50_ms"] = percentile(point_ms, 50)
    out["runner.point.p95_ms"] = percentile(point_ms, 95)
    # Every point looks its trace up once; a miss generates it.
    out["runner.trace_cache.lookups"] = len(points)
    out["runner.trace_cache.hit_ratio"] = (
        1.0 - len(group("workloads.trace_gen")) / len(points) if points else 0.0)
    by_pid: Dict[object, List[Span]] = {}
    for span in points:
        by_pid.setdefault(span.pid, []).append(span)
    out["runner.worker_busy_frac"] = _busy_frac(by_pid, grid_s)
    out["runner.retries"] = sum(1 for s in points if s.attr("attempt", 1) > 1)
    out["frontier.wait.s"] = counters.get("frontier.wait.s", 0.0)
    out["frontier.buffered.max"] = counters.get("frontier.buffered.max", 0)

    out["store.append.bytes"] = sum(s.attr("bytes") for s in group("store.append"))
    out["store.merge.records"] = sum(s.attr("records") for s in group("store.merge"))

    out["service.stream.s"] = self_s("service.stream")
    result_ms = [s.duration * 1e3 for s in group("service.result")]
    out["service.result.p50_ms"] = percentile(result_ms, 50)
    out["service.result.p95_ms"] = percentile(result_ms, 95)
    out["service.request.retries"] = counters.get("service.request.retries", 0)

    shards = group("fabric.shard")
    shard_s = [s.duration for s in shards]
    out["fabric.shard.p50_s"] = percentile(shard_s, 50)
    out["fabric.shard.p75_s"] = percentile(shard_s, 75)
    out["fabric.lease.expired"] = lease_expired
    by_peer: Dict[object, List[Span]] = {}
    for span in shards:
        by_peer.setdefault(span.attr("peer", None), []).append(span)
    out["fabric.peer_busy_frac"] = _busy_frac(by_peer, grid_s)
    return {name: out[name] for name, _unit in METRICS if name in out}


def layer_shares(spans: Sequence[Span]) -> Dict[str, float]:
    """Each span name's share of all recorded self time (the ``process``
    root span holds what no layer call covers: start-up, dispatch, idle)."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[(span.pid, span.id)]
    grand = sum(totals.values())
    return {name: t / grand for name, t in sorted(totals.items())} if grand else {}
