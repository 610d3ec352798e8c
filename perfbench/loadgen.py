"""Open-loop load generator.

Jobs fall due on a fixed schedule (``rate`` per second) whatever the
system does, as from independent users.  The calling thread submits
each job when it falls due; one poller thread then polls every
outstanding job the way ``ServiceClient.wait`` does — right after
submission, then ``poll_interval`` after each poll returns — until it
is done.  Two threads in all, and no job waits for another job's
reply before it is sent.  Each job is timed from when it was *due*, so
a late submission counts in its latency; the generator also reports
how late it ran and the largest backlog of due-but-unsent jobs.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class JobRecord:
    """One scheduled job and what happened to it (clock seconds)."""

    index: int
    due: float
    started: float = math.nan
    finished: float = math.nan
    ok: bool = False
    error: str | None = None
    polls: int = 0

    @property
    def latency(self) -> float:
        """Seconds from when the job was due until it was seen done."""
        return self.finished - self.due

    @property
    def late(self) -> float:
        """Seconds the job's submission started past its due time."""
        return self.started - self.due


@dataclass
class LoadReport:
    records: list[JobRecord]
    #: most jobs that were due but not yet submitted at one moment
    max_backlog: int

    @property
    def late_s(self) -> list[float]:
        return [rec.late for rec in self.records]


def due_times(start: float, rate: float, count: int) -> list[float]:
    """Due time of each of ``count`` jobs at ``rate`` per second."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + i / rate for i in range(count)]


class OpenLoop:
    """Run ``count`` jobs at ``rate`` per second.

    ``submit(index)`` sends job ``index`` and returns ``(handle,
    done)``; ``poll(index, handle)`` returns whether it is done.  An
    exception from either, or no "done" within ``timeout`` seconds of
    submission, marks the job failed (it still gets a finish time).
    """

    def __init__(self, rate: float, count: int, *,
                 poll_interval: float = 0.05, timeout: float = 60.0,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {poll_interval}")
        self.rate = rate
        self.count = count
        self.poll_interval = poll_interval
        self.timeout = timeout
        self._clock = clock
        self._sleep = sleep

    def run(self, submit, poll) -> LoadReport:
        pending: list = []  # heap of (next poll time, seq, record, handle)
        seq = itertools.count()
        cond = threading.Condition()
        sent_all = [False]

        def finish(rec: JobRecord, error: BaseException | None) -> None:
            rec.finished = self._clock()
            if error is None:
                rec.ok = True
            else:
                rec.error = f"{type(error).__name__}: {error}"

        def poller() -> None:
            while True:
                with cond:
                    while True:
                        if pending:
                            wait = pending[0][0] - self._clock()
                            if wait <= 0:
                                _at, _n, rec, handle = heapq.heappop(
                                    pending)
                                break
                            cond.wait(wait)
                        elif sent_all[0]:
                            return
                        else:
                            cond.wait()
                rec.polls += 1
                try:
                    done = poll(rec.index, handle)
                except Exception as exc:  # noqa: BLE001 - counted
                    finish(rec, exc)
                    continue
                if done:
                    finish(rec, None)
                    continue
                if self._clock() - rec.started > self.timeout:
                    finish(rec, TimeoutError(
                        f"not done {self.timeout:g}s after submission"))
                    continue
                with cond:
                    heapq.heappush(pending, (
                        self._clock() + self.poll_interval, next(seq),
                        rec, handle))

        thread = threading.Thread(target=poller, daemon=True,
                                  name="loadgen-poller")
        thread.start()
        records = []
        max_backlog = 0
        dues = due_times(self._clock(), self.rate, self.count)
        try:
            for index, due in enumerate(dues):
                wait = due - self._clock()
                if wait > 0:
                    self._sleep(wait)
                rec = JobRecord(index=index, due=due)
                records.append(rec)
                rec.started = self._clock()
                try:
                    handle, done = submit(index)
                except Exception as exc:  # noqa: BLE001 - counted
                    finish(rec, exc)
                    continue
                if done:
                    finish(rec, None)
                else:
                    with cond:
                        heapq.heappush(pending, (self._clock(), next(seq),
                                                 rec, handle))
                        cond.notify()
                # later jobs already due while this one was being sent
                due_now = bisect.bisect_right(dues, self._clock())
                max_backlog = max(max_backlog, due_now - index - 1)
        finally:
            with cond:
                sent_all[0] = True
                cond.notify()
            thread.join()
        return LoadReport(records=records, max_backlog=max_backlog)
