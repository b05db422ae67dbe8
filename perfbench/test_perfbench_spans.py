"""Self time of nested spans and the per-layer table that adds up."""

import threading

import pytest
from spans import UNATTRIBUTED, Recorder, Span, layer_table, self_times


def _span(span_id, layer, start, end, parent=None):
    return Span(span_id=span_id, name=layer, layer=layer, start=start, end=end,
                parent_id=parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),   # overlaps a: the union counts once
        _span(4, "c", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_children_are_clipped_to_their_parent():
    spans = [_span(1, "p", 0.0, 2.0), _span(2, "c", 1.0, 5.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_layer_table_adds_up_to_the_wall_time():
    spans = [
        _span(1, "scheduler", 1.0, 9.0),
        _span(2, "fit", 2.0, 5.0, parent=1),
        _span(3, "fit", 6.0, 7.0, parent=1),
        _span(4, "store", 2.5, 3.0, parent=2),
    ]
    table = layer_table(spans, wall=12.0)
    assert table["scheduler"] == pytest.approx(4.0)
    assert table["fit"] == pytest.approx(3.5)
    assert table["store"] == pytest.approx(0.5)
    assert table[UNATTRIBUTED] == pytest.approx(4.0)
    assert sum(table.values()) == pytest.approx(12.0)


def test_recorder_links_parents_per_thread_and_shares_ids():
    rec = Recorder(run_id="run-1")

    def inner():
        return 7

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = rec.wrap(inner, "inner", "fit")
    wrapped_outer = rec.wrap(outer, "outer", "scheduler")
    assert wrapped_outer() == 8
    thread = threading.Thread(target=wrapped_inner)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer_span,) = by_name["outer"]
    nested, other_thread = sorted(by_name["inner"], key=lambda s: s.parent_id is None)
    assert nested.parent_id == outer_span.span_id
    assert other_thread.parent_id is None  # no cross-thread parent
    assert {s.run_id for s in rec.spans} == {"run-1"}
    assert outer_span.start <= nested.start <= nested.end <= outer_span.end


def test_request_id_is_inherited_by_child_spans():
    rec = Recorder(run_id="r")
    with rec.span("handler", "serve.handler", request_id="req-9"):
        with rec.span("predict_rows", "serve.predict_rows"):
            pass
    assert {s.request_id for s in rec.spans} == {"req-9"}


def test_a_raising_call_is_recorded_and_unwinds_the_stack():
    rec = Recorder(run_id="r")

    def boom():
        raise KeyError("missing")

    wrapped = rec.wrap(boom, "boom", "store")
    with pytest.raises(KeyError):
        wrapped()
    with rec.span("after", "store"):
        pass
    failed, after = rec.spans
    assert failed.attrs["error"] == "KeyError"
    assert after.parent_id is None
