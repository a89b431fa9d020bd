"""The span proxies change nothing, and self time adds up."""

import numpy as np
import pytest

import runner
import tracing
from workloads import K, WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_proxies_are_transparent(name):
    w = WORKLOADS[name].smoke()
    s = runner.set_up(w, 3, runner.Calibrator())
    recorder = tracing.SpanRecorder()
    for b in range(len(w.filters)):
        D0, I0, r0 = runner.plain_query(s, b)
        D1, I1, r1 = runner.traced_query(s, b, recorder)
        assert np.array_equal(D0, D1) and np.array_equal(I0, I1)
        assert (r0.total_seconds, r0.n_events) == (r1.total_seconds, r1.n_events)
        assert runner.batch_facts(D0, I0, r0) == runner.batch_facts(D1, I1, r1)

    spans = recorder.spans
    names = {s[tracing.NAME] for s in spans}
    assert names == {tracing.ROOT_SPAN, tracing.SIM_SPAN, tracing.ROUTE_SPAN, tracing.SEARCH_SPAN}
    roots = [s for s in spans if s[tracing.PARENT] == -1]
    assert [s[tracing.NAME] for s in roots] == [tracing.ROOT_SPAN] * len(w.filters)
    # root = self + children, and no span is shorter than its children
    self_s = tracing.self_times(spans)
    assert min(self_s) >= 0
    totals = tracing.totals_by_name(spans)
    assert sum(t["self"] for t in totals.values()) == pytest.approx(
        totals[tracing.ROOT_SPAN]["total"]
    )


def test_self_time_on_a_hand_built_tree():
    #      root 0..10
    #        a 1..4            b 5..9
    #          a1 2..3           b1 5..6   b2 7..9
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["leaf", 5.0, 6.0, 3, 0],
        ["leaf", 7.0, 9.0, 3, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    totals = tracing.totals_by_name(spans)
    assert totals["leaf"] == {"total": 4.0, "self": 4.0, "calls": 3}
    assert totals["root"] == {"total": 10.0, "self": 3.0, "calls": 1}


def test_recorder_nests_by_call_order():
    recorder = tracing.SpanRecorder()
    inner = recorder.timed("inner", lambda: 1)
    outer = recorder.timed("outer", lambda: inner() + inner())
    assert outer() == 2
    assert [(s[tracing.NAME], s[tracing.PARENT]) for s in recorder.spans] == [
        ("outer", -1),
        ("inner", 0),
        ("inner", 0),
    ]


def test_bad_rows_counts_each_kind_of_invalid_answer():
    D = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [1.0, 2.0, np.inf], [1.0, 2.0, 3.0]])
    I = np.array([[5, 6, 7], [5, 6, 7], [5, 6, -1], [5, 5, 7]])
    full = [K, K, K, K]
    # row 0 fine; row 1 not closest-first; row 2 short; row 3 repeats an id
    assert runner.bad_rows(D[:1], I[:1], [3]) == 0
    assert runner.bad_rows(D, I, [3, 3, 3, 3]) == 3
    assert runner.bad_rows(D[2:3], I[2:3], [2]) == 0  # only two rows were reachable
    assert runner.bad_rows(D[:1], I[:1], full[:1]) == 1
