"""Span self-time arithmetic: nesting, two threads, rows sum to wall."""

import threading

import pytest

from bench.spans import CLIENT, Span, SpanRecorder, chrome_trace, layer_table, self_times


def make(sid, name, start, end, parent=0, thread=1):
    span = Span(sid, name, start, parent, thread, rep=0)
    span.end = end
    return span


def nested():
    return [
        make(1, CLIENT, 0.0, 10.0),
        make(2, "a", 1.0, 4.0, parent=1),
        make(3, "a.inner", 2.0, 3.0, parent=2),
        make(4, "b", 5.0, 9.0, parent=1),
    ]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(nested())
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_other_threads_do_not_eat_the_clients_time():
    spans = nested() + [
        make(5, "worker.apply", 0.5, 8.5, thread=2),
        make(6, "worker.inner", 1.0, 2.0, parent=5, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == 3.0
    assert own[5] == 7.0


def test_client_rows_sum_to_wall_and_carry_shares():
    spans = nested() + [make(5, "worker.apply", 0.5, 8.5, thread=2)]
    rows = layer_table(spans, {1: "client", 2: "worker"})
    client = [row for row in rows if row["thread"] == "client"]
    assert sum(row["self_s"] for row in client) == pytest.approx(10.0)
    assert sum(row["share"] for row in client) == pytest.approx(1.0)
    unattributed = next(row for row in client if row["span"] == CLIENT)
    assert unattributed["share"] == pytest.approx(0.3)
    (worker,) = [row for row in rows if row["thread"] == "worker"]
    assert "share" not in worker and worker["busy_s"] == 8.0


def test_recorder_nests_per_thread():
    recorder = SpanRecorder()

    def work():
        with recorder.span("t.outer"):
            with recorder.span("t.inner"):
                pass

    with recorder.span(CLIENT):
        thread = threading.Thread(target=work, name="other")
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        with recorder.span("main.inner"):
            pass
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["main.inner"].parent == by_name[CLIENT].sid
    assert by_name["t.inner"].parent == by_name["t.outer"].sid
    assert by_name["t.outer"].parent == 0  # not a child of the client's span
    assert "other" in recorder.thread_names.values()
    events = chrome_trace(recorder.spans, recorder.thread_names)["traceEvents"]
    assert sum(1 for event in events if event["ph"] == "X") == 4


def test_wrap_records_counts_and_survives_a_raise():
    recorder = SpanRecorder()
    double = recorder.wrap("double", lambda x: 2 * x, lambda args, out: {"n": out})
    assert double(4) == 8
    assert recorder.spans[-1].counts == {"n": 8}

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[-1].name == "boom"
    with recorder.span("after"):
        pass
    assert recorder.spans[-1].parent == 0  # the raise left no span open
