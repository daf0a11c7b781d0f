"""Self-time arithmetic and span bookkeeping of the tracer."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import (Span, Tracer, evolve_accounting, layer_metrics,
                     self_time, union_length)


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_union_of_disjoint_nested_and_touching_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0
    assert union_length([(0, 1), (1, 2)]) == 2.0
    assert union_length([(5, 7), (0, 2), (1, 3)]) == 5.0


def test_self_time_subtracts_children_overlapping_across_threads():
    parent = span(1, "analysis.run_sweep", 0.0, 10.0)
    # Two worker threads run points at the same time: [1, 4] and [2, 6]
    # overlap, so together they cover [1, 6]; [8, 12] is clipped to [8, 10].
    kids = [span(2, "p", 1.0, 4.0, 1), span(3, "p", 2.0, 6.0, 1),
            span(4, "p", 8.0, 12.0, 1)]
    assert self_time(parent, kids) == pytest.approx(3.0)
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [span(5, "p", 11.0, 13.0, 1)]) == 10.0


def test_evolve_accounting_adds_up_to_the_span():
    spans = [span(1, "numeric.split_step_evolve", 0.0, 10.0),
             span(2, "fft", 1.0, 3.0, 1), span(3, "nearfield.potential", 3.0, 4.0, 1),
             span(4, "fft", 4.0, 6.0, 1)]
    total, own, fft, pot = evolve_accounting(spans)
    assert (total, own, fft, pot) == (10.0, 5.0, 4.0, 1.0)
    m = layer_metrics(spans, {"numeric.steps": 2.0, "fft.flop": 8e9})
    assert m["numeric.self_ms_per_step"] == pytest.approx(2500.0)
    assert m["fft.calls"] == 2
    assert m["fft.ms_per_call"] == pytest.approx(2000.0)
    assert m["fft.gflop_per_s"] == pytest.approx(2.0)
    assert m["nearfield.potential.s"] == 1.0


def test_worker_thread_spans_hang_under_the_adopting_span():
    tracer = Tracer()
    barrier = threading.Barrier(3, timeout=10)

    def point(_):
        with tracer.span("scenario.run_sweep_point"):
            barrier.wait()
            with tracer.span("nearfield.coupling_profile"):
                time.sleep(0.05)

    with tracer.span("analysis.run_sweep", adopt=True) as sweep_id:
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(point, range(3)))
    with tracer.span("after"):
        pass

    by_id = {s.id: s for s in tracer.spans}
    points = [s for s in tracer.spans if s.name == "scenario.run_sweep_point"]
    assert len(points) == 3 and all(p.parent == sweep_id for p in points)
    for inner in (s for s in tracer.spans if s.name == "nearfield.coupling_profile"):
        assert by_id[inner.parent].name == "scenario.run_sweep_point"
    assert next(s for s in tracer.spans if s.name == "after").parent is None
    m = layer_metrics(tracer.spans, {})
    # The barrier makes the three points overlap for most of the sweep.
    assert m["analysis.run_sweep.parallelism"] > 2.0
    sweep = by_id[sweep_id]
    assert 0.0 <= self_time(sweep, points) <= sweep.duration
