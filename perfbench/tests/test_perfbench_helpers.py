"""Tests of the benchmark's own helpers: statistics, the tail rule,
metric names, the open-loop generator and span self times.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import loadgen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- statistics --------------------------------------------------------------


def test_percentile_is_harrell_davis():
    data = [10, 20, 30, 40]
    assert stats.percentile(data, 0) == 10
    assert stats.percentile(data, 100) == 40
    assert stats.percentile(data, 50) == pytest.approx(25)  # symmetric
    assert stats.median([3, 1, 2]) == pytest.approx(2)
    assert stats.median([7.5]) == 7.5
    assert stats.median([4, 4, 4, 4]) == pytest.approx(4)
    # weights sum to one and grow with the percentile
    levels = [stats.percentile(data, p) for p in (10, 25, 50, 75, 90)]
    assert levels == sorted(levels)
    assert 10 < levels[0] and levels[-1] < 40


def test_percentile_moves_smoothly_across_quantized_steps():
    # latencies on two 50 ms poll steps: a plain median jumps from 158
    # to 209 when the majority changes side; the estimate moves a little
    below = stats.median([158] * 26 + [209] * 24)
    above = stats.median([158] * 24 + [209] * 26)
    assert 158 < below < above < 209
    assert above - below < 15


def test_percentile_matches_reference_implementation():
    mstats = pytest.importorskip("scipy.stats.mstats")
    data = [55, 106, 106, 158, 158, 158, 209, 209, 261, 313, 55.5, 107]
    for pct in (25, 50, 75, 90):
        expected = float(mstats.hdquantiles(data, prob=[pct / 100])[0])
        assert stats.percentile(data, pct) == pytest.approx(expected)


def test_betainc_known_values():
    assert stats.betainc(1, 1, 0.3) == pytest.approx(0.3)
    assert stats.betainc(2, 2, 0.5) == pytest.approx(0.5)
    assert stats.betainc(2, 1, 0.5) == pytest.approx(0.25)
    assert stats.betainc(3, 5, 0.0) == 0.0
    assert stats.betainc(3, 5, 1.0) == 1.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= 10 - 1e-9


def test_summarize_reports_tail_and_count():
    values = list(range(1, 101))  # 100 samples
    summary = stats.summarize(values)
    assert summary["n"] == 100
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == pytest.approx(stats.percentile(values, 90))
    assert summary["p50"] == pytest.approx(50.5)


def test_summarize_small_sample_falls_back_to_max():
    summary = stats.summarize([5, 1, 3])
    assert summary == {"p50": 3, "tail": 5.0, "tail_pct": 100.0, "n": 3}


@pytest.mark.parametrize("name", ["setup_s", "cold_all_s", "cli.import_s",
                                  "timing.instr_per_s", "a-b", "9x",
                                  "x" * 64])
def test_metric_names_accepted(name):
    assert stats.valid_metric_name(name)
    assert stats.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é",
                                  "x" * 65, "a:b", None])
def test_metric_names_rejected(name):
    assert not stats.valid_metric_name(name)
    with pytest.raises(ValueError):
        stats.check_metric_name(name)


# -- open-loop generator -----------------------------------------------------


def test_due_times_follow_the_rate():
    assert loadgen.due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]
    with pytest.raises(ValueError):
        loadgen.due_times(0.0, 0.0, 1)


def test_open_loop_times_jobs_from_when_they_were_due():
    # sending job 0 stalls for 0.2s while jobs fall due every 0.05s, so
    # jobs 1..3 go out late and their latency counts the wait
    sent = []

    def submit(index):
        sent.append(index)
        if index == 0:
            time.sleep(0.2)
        return index, True

    report = loadgen.OpenLoop(rate=20.0, count=4).run(
        submit, lambda index, handle: True)
    records = report.records
    assert sent == [0, 1, 2, 3]
    assert [r.index for r in records] == [0, 1, 2, 3]
    assert all(r.ok for r in records)
    assert [r.due for r in records] == pytest.approx(
        [records[0].due + i * 0.05 for i in range(4)])
    assert records[1].late >= 0.1
    for rec in records:
        assert rec.latency >= rec.late
    assert report.max_backlog >= 2  # jobs 1..3 fell due during the stall


def test_open_loop_polls_like_service_client_wait():
    # done on the third poll: polled right after submission, then
    # every poll_interval after the previous poll returned
    polls = []

    def poll(index, handle):
        polls.append(time.perf_counter())
        return len(polls) == 3

    report = loadgen.OpenLoop(rate=10.0, count=1, poll_interval=0.05).run(
        lambda index: ("job-0", False), poll)
    rec = report.records[0]
    assert rec.ok and rec.polls == 3
    assert polls[1] - polls[0] >= 0.05
    assert polls[2] - polls[1] >= 0.05
    assert rec.finished >= polls[2]
    assert rec.latency >= 0.1


def test_open_loop_counts_failures():
    def submit(index):
        if index == 1:
            raise RuntimeError("refused")
        return index, index == 0

    def poll(index, handle):
        if index == 2:
            raise ValueError("boom")
        return False  # job 3 never finishes

    report = loadgen.OpenLoop(rate=100.0, count=4, timeout=0.2).run(
        submit, poll)
    outcome = {r.index: (r.ok, r.error) for r in report.records}
    assert outcome[0] == (True, None)
    assert not outcome[1][0] and "refused" in outcome[1][1]
    assert not outcome[2][0] and "boom" in outcome[2][1]
    assert not outcome[3][0] and "TimeoutError" in outcome[3][1]
    assert all(r.finished >= r.started for r in report.records)


def test_open_loop_rejects_bad_arguments():
    with pytest.raises(ValueError):
        loadgen.OpenLoop(rate=1.0, count=0)
    with pytest.raises(ValueError):
        loadgen.OpenLoop(rate=1.0, count=1, poll_interval=0)


def test_open_loop_uses_two_threads_at_most():
    active = []
    peak = [0]
    lock = threading.Lock()

    def call(result):
        with lock:
            active.append(1)
            peak[0] = max(peak[0], len(active))
        time.sleep(0.01)
        with lock:
            active.pop()
        return result

    report = loadgen.OpenLoop(rate=400.0, count=20,
                              poll_interval=0.005).run(
        lambda index: call((index, False)),
        lambda index, handle: call(True))
    assert all(r.ok for r in report.records)
    assert peak[0] <= 2


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, None],
        ["child", 5.0, 6.0, 0, None],
        ["grandchild", 1.5, 2.5, 1, None],
    ]
    selfs = tracing.self_times(spans)
    assert selfs["root"] == pytest.approx(6.0)
    assert selfs["child"] == pytest.approx(3.0)
    assert selfs["grandchild"] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert tracing.durations(spans, "child") == [3.0, 1.0]


def test_recorder_nests_spans_per_thread_and_counts():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    wrapped = rec.wrap("inner", inner,
                       after=lambda r, result, a, k: r.add("calls"))
    rec.set_job("job-1")
    with rec.span("outer"):
        assert wrapped(1) == 2
    payload = rec.payload()
    names = [s[0] for s in payload["spans"]]
    assert names == ["outer", "inner"]
    outer, inner_span = payload["spans"]
    assert inner_span[3] == 0  # parent is the outer span
    assert outer[3] == -1
    assert inner_span[4] == "job-1"
    assert payload["counts"] == {"calls": 1}
    assert wrapped.__perfbench_wrapped__ is inner


def test_recorder_dump_round_trips(tmp_path):
    rec = tracing.Recorder()
    with rec.span("a"):
        pass
    rec.add("n", 3)
    path = tmp_path / "spans.json"
    rec.dump(path)
    data = tracing.load(path)
    assert data["counts"] == {"n": 3}
    assert data["spans"][0][0] == "a"
