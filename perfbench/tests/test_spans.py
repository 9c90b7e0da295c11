"""Span recording and self-time arithmetic."""

import numpy as np
import pytest

from perfbench.spans import CALL, INNER, ITER, REQUEST, SIM_ITER, Tracer, self_times, summarize


def _self(spans):
    start, end, parent = (np.array(column, dtype=float) for column in zip(*spans))
    return self_times(start, end, parent.astype(int)).tolist()


def test_nested_spans_subtract_only_direct_children():
    # parent [0, 10] > child [2, 5] > grandchild [3, 4]
    assert _self([(0, 10, -1), (2, 5, 0), (3, 4, 1)]) == pytest.approx([7, 2, 1])


def test_sibling_spans_both_subtract_from_the_parent():
    assert _self([(0, 10, -1), (1, 3, 0), (4, 6, 0)]) == pytest.approx([6, 2, 2])


def test_overlapping_siblings_count_their_union_once():
    assert _self([(0, 10, -1), (1, 5, 0), (3, 7, 0)]) == pytest.approx([4, 4, 4])


def test_child_time_outside_the_parent_is_clipped():
    assert _self([(0, 4, -1), (3, 6, 0)]) == pytest.approx([3, 3])


def test_sibling_order_in_the_arrays_does_not_matter():
    assert _self([(4, 6, 1), (0, 10, -1), (1, 3, 1)]) == pytest.approx([2, 6, 2])


class _Layer:
    def outer(self, tracer_hook):
        return tracer_hook()

    def inner(self):
        return 1

    def blocks(self, n):
        for size in range(1, n + 1):
            yield [0] * size

    def serve(self, request):
        return self.inner()


class _Request:
    request_id = 42


def _traced_layer():
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "test.outer", CALL)
    tracer.wrap(_Layer, "inner", "test.inner", INNER)
    tracer.wrap(_Layer, "blocks", "test.blocks", ITER, rows="test.rows")
    tracer.wrap(_Layer, "serve", "test.serve", REQUEST)
    return tracer


@pytest.fixture
def layer():
    saved = {name: _Layer.__dict__[name] for name in ("outer", "inner", "blocks", "serve")}
    yield _Layer()
    for name, function in saved.items():
        setattr(_Layer, name, function)


def test_wrapped_calls_record_parent_links_and_self_time(layer):
    tracer = _traced_layer()
    tracer.sim_depth = 1
    layer.outer(layer.inner)
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name"]] == ["test.outer", "test.inner"]
    assert spans["parent"].tolist() == [-1, 0]
    summary = summarize(tracer)
    outer, inner = summary["test.outer"], summary["test.inner"]
    assert outer["self_s"] == pytest.approx(outer["incl_s"] - inner["incl_s"])


def test_inner_spans_are_recorded_only_inside_a_simulator_pull(layer):
    tracer = _traced_layer()
    tracer.wrap(_Layer, "blocks", "test.sim", SIM_ITER)
    layer.inner()
    assert len(tracer.end) == 0
    for _ in layer.blocks(1):
        layer.inner()  # outside next(): not in the simulator scope
    assert [tracer.names[i] for i in tracer.arrays()["name"]] == ["test.sim", "test.blocks", "test.sim", "test.blocks"]


def test_iterator_spans_count_rows_per_pull(layer):
    tracer = _traced_layer()
    assert [len(block) for block in layer.blocks(3)] == [1, 2, 3]
    assert tracer.counts["test.rows"] == 6
    # three blocks plus the pull that raised StopIteration
    assert summarize(tracer)["test.blocks"]["calls"] == 4


def test_request_spans_stamp_the_request_id_on_their_children(layer):
    tracer = _traced_layer()
    tracer.sim_depth = 1
    layer.serve(_Request())
    layer.inner()
    assert tracer.arrays()["request"].tolist() == [42, 42, -1]


def test_a_disabled_tracer_records_nothing(layer):
    tracer = _traced_layer()
    tracer.disable()
    tracer.sim_depth = 1
    layer.outer(layer.inner)
    list(layer.blocks(2))
    assert len(tracer.end) == 0
