"""The benchmark's arithmetic: the tail-percentile rule and self time."""

import pytest

from layers import Span, covered, layer_metrics, percentile, self_times, \
    tail_percentile


@pytest.mark.parametrize("n, expected", [
    (45, 75),      # fabric shards: 11 beyond p75, 4 beyond p90
    (360, 95),     # paper grid points: 18 beyond p95, 3 beyond p99
    (240, 95),     # seed grid points: 12 beyond p95
    (100, 90),     # exactly 10 beyond p90
    (20, 50),      # exactly 10 beyond the median
    (19, None),    # not even the median has 10 beyond it
    (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([7.0], 95) == 7.0
    assert percentile([], 50) == 0.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)]) == 5
    assert covered([(1, 3), (2, 5)], lo=2.5, hi=4) == 1.5
    assert covered([(5, 4)]) == 0
    assert covered([]) == 0


def _span(name, start, end, span_id, parent=None, pid=1, attrs=None):
    return Span(name, start, end, span_id, parent, attrs, pid)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span("parent", 0.0, 10.0, 1),
        _span("a", 1.0, 3.0, 2, parent=1),
        _span("b", 2.0, 5.0, 3, parent=1),       # overlaps a
        _span("c", 9.0, 12.0, 4, parent=1),      # runs past its parent
        _span("grandchild", 1.5, 2.5, 5, parent=2),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 4.0 - 1.0)   # [1,5] and [9,10]
    assert own[(1, 2)] == pytest.approx(2.0 - 1.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(1, 5)] == pytest.approx(1.0)


def test_self_time_keeps_processes_apart():
    # Span ids are per process: a child in another process with the same
    # parent id must not be subtracted.
    spans = [_span("p", 0.0, 4.0, 1, pid=1),
             _span("q", 1.0, 2.0, 2, parent=1, pid=2)]
    assert self_times(spans)[(1, 1)] == pytest.approx(4.0)


def test_layer_metrics_split_simulate_from_compile():
    spans = [
        _span("runner.point", 0.0, 0.010, 1, pid=7, attrs={"attempt": 1}),
        _span("workloads.trace_gen", 0.000, 0.002, 2, parent=1, pid=7,
              attrs={"n": 5000}),
        _span("engine.simulate", 0.002, 0.009, 3, parent=1, pid=7,
              attrs={"n": 5000}),
        _span("engine.compile", 0.002, 0.004, 4, parent=3, pid=7),
        _span("runner.point", 0.010, 0.015, 5, pid=7, attrs={"attempt": 2}),
        _span("engine.simulate", 0.010, 0.015, 6, parent=5, pid=7,
              attrs={"n": 5000}),
    ]
    m = layer_metrics(spans, {"frontier.wait.s": 0.5}, grid_s=0.030)
    assert m["engine.simulate.calls"] == 2
    assert m["engine.simulate.s"] == pytest.approx(0.005 + 0.005)
    assert m["engine.simulate.kinstr_per_s"] == pytest.approx(10.0 / 0.010)
    assert m["engine.compile.s"] == pytest.approx(0.002)
    assert m["runner.point.s"] == pytest.approx(0.001)
    assert m["runner.trace_cache.hit_ratio"] == pytest.approx(0.5)
    assert m["runner.retries"] == 1
    assert m["runner.worker_busy_frac"] == pytest.approx(0.5)
    assert m["frontier.wait.s"] == 0.5
    assert m["service.result.calls"] == 0
    assert m["fabric.shard.calls"] == 0
