"""Span arithmetic, the tail-percentile rule and the tracer's patching."""

import pytest

from spans import Tracer, has_ancestor, self_times, tail


def span(name, start, end, parent=-1):
    return [name, start, end, parent, "0:0"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("op", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 15, 25, parent=1),  # grandchild: counted against "a" only
        span("c", 50, 70, parent=0),
    ]
    assert self_times(spans) == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_time_merges_overlapping_children():
    spans = [span("op", 0, 100), span("a", 10, 50, parent=0), span("b", 30, 60, parent=0)]
    assert self_times(spans)[0] == 100 - 50


def test_has_ancestor_walks_past_the_parent():
    spans = [span("fuzz.case", 0, 9), span("x", 1, 8, 0), span("scenarios.build", 2, 3, 1)]
    assert has_ancestor(spans, 2, "fuzz.case")
    assert not has_ancestor(spans, 0, "fuzz.case")


def test_tracer_records_nesting_and_restores_patches():
    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    original = Layer.__dict__["inner"]
    tracer = Tracer()
    with tracer:
        tracer.patch(Layer, "inner", "inner")
        tracer.patch(Layer, "outer", "outer")
        tracer.op_id = "0:0"
        assert Layer().outer() == 2
    assert Layer.__dict__["inner"] is original
    (outer, inner) = tracer.spans
    assert [outer[0], inner[0]] == ["outer", "inner"]
    assert inner[3] == 0 and outer[3] == -1
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = tail(list(range(1, 101)))
    assert (value, percentile) == (90, 90.0)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    value, percentile = tail([5.0] * 3 + list(range(8)))  # 11 samples
    assert value == 0 and percentile == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))
