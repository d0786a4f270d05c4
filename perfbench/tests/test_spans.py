"""Self time, request adoption and cross-thread hand-over of spans."""

import threading

import pytest

from spans import Tracer, descendants, parents, self_times


def span(span_id, start, end, parent=None, rid=None, name="x"):
    return {
        "id": span_id, "name": name, "start": start, "end": end,
        "parent": parent, "rid": rid,
    }


def selfs(spans):
    return self_times(spans, parents(spans))


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, "root"),
        span("a1", 2.0, 3.0, "a"),
        span("b", 6.0, 7.0, "root"),
    ]
    result = selfs(spans)
    assert result == pytest.approx({"root": 6.0, "a": 2.0, "a1": 1.0, "b": 1.0})
    assert sum(result.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [
        span("root", 0.0, 10.0),
        span("t1", 1.0, 5.0, "root"),
        span("t2", 3.0, 8.0, "root"),
    ]
    assert selfs(spans)["root"] == pytest.approx(3.0)


def test_children_are_clipped_to_their_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("late", 8.0, 12.0, "root"),
        span("late.child", 9.0, 11.5, "late"),
    ]
    result = selfs(spans)
    assert result["root"] == pytest.approx(8.0)
    assert result["late"] == pytest.approx(1.0)
    assert result["late.child"] == pytest.approx(1.0)


def test_server_spans_hang_under_the_client_request_with_their_rid():
    spans = [
        span("c1", 0.0, 10.0, rid="p:1"),
        span("s1", 2.0, 6.0, rid="p:1"),
        span("s1.child", 3.0, 4.0, "s1", rid="p:1"),
        span("c2", 10.0, 12.0, rid="p:2"),
        span("other", 20.0, 21.0, rid="q:1"),
    ]
    adopted = selfs(spans)
    assert adopted["c1"] == pytest.approx(6.0)
    assert adopted["s1"] == pytest.approx(3.0)
    assert descendants(parents(spans), {"c1", "c2"}) == {
        "c1", "s1", "s1.child", "c2",
    }


def test_handed_over_work_nests_under_the_handing_span():
    tracer = Tracer()
    done = threading.Event()
    box = {}

    def worker():
        with tracer.adopt(box["context"]):
            tracer.wrap(lambda: None, "work")()
        done.set()

    def handler():
        box["context"] = tracer.current()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.set_rid("p:7")
    tracer.wrap(handler, "handle")()
    assert done.is_set()
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["work"]["parent"] == by_name["handle"]["id"]
    assert by_name["work"]["rid"] == "p:7"
    assert by_name["handle"]["parent"] is None


def test_wrapper_records_work_counts_and_survives_errors():
    tracer = Tracer()
    traced = tracer.wrap(lambda n: list(range(n)), "make", lambda r, a: {"items": len(r)})
    assert traced(3) == [0, 1, 2]

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    assert [s["name"] for s in tracer.spans] == ["make", "boom"]
    assert tracer.spans[0]["info"] == {"items": 3}
    assert tracer._state().stack == []
