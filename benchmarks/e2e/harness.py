"""Stability controls and the measurement loops every workload shares.

Stability: the process pins itself to one CPU (the in-process served
path is bimodal otherwise — see the README), and every timed piece of
work is a *slice* between two readings of an interpreter-speed probe.
This box runs at anything from half to all of its speed, for seconds
or minutes at a time; the probe knows nothing about the program, so a
slice's times are converted by its readings to the time of one
reference machine (:class:`SpeedProbe`, :class:`Slice`,
:func:`sliced`).

Loops: ``solo`` (closed loop, 1 in flight), ``windows`` and
``closed_loop`` (a fixed number in flight) and ``open_loop`` (Poisson
arrivals, latency from the *intended* send time).  All are time-boxed,
and all keep one span per request in memory (intended / submit start /
submit end / done).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from repro.runtime.threads import gil_enabled

#: Seconds a wire submission may stay unanswered before it counts as a
#: failure (``timeout``).
REPLY_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Machine
# ----------------------------------------------------------------------

def pin_to_one_cpu() -> int | None:
    """Pin this process (and every thread it starts) to the highest
    CPU it may run on; ``None`` where the platform cannot pin."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_sha() -> str | None:
    """HEAD of the checkout the benchmark runs in (``None`` outside a
    git repository, which is where the driver runs it)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, cwd=Path(__file__).parent)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_meta(cpu: int | None, codec: str) -> dict[str, Any]:
    return {
        "pinned_cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gil_enabled": gil_enabled(),
        "git_sha": git_sha(),
        "codec": codec,
    }


#: The probe reading of the reference machine: this box while nothing
#: slows it.  Every timed result is converted to that machine's time.
REFERENCE_KOPS = 25_000.0

#: What slows this box (a neighbour on the same core and caches) slows
#: the program more than the probe, a tight loop that lives in the L1
#: cache: over recordings of three workloads with slow spells down to
#: 0.55 of the calm reading, the program's time went with the probe's
#: to the power 1.2-1.5 (README, "Noise").
SENSITIVITY = 1.3


class SpeedProbe:
    """An interpreter-speed probe (a fixed pure-Python loop, about
    2 ms) and every reading it took during the run."""

    def __init__(self) -> None:
        self.kops: list[float] = []

    def __call__(self) -> float:
        """Thousands of loop iterations per second, now."""
        n = 50_000
        start = time.perf_counter()
        total = 0
        for i in range(n):
            total += i & 7
        reading = n / (time.perf_counter() - start) / 1e3
        self.kops.append(reading)
        return reading


# ----------------------------------------------------------------------
# Slices and statistics
# ----------------------------------------------------------------------

#: Seconds of load between two probe readings.  Slow spells come in
#: bursts (three quarters of the slowed time in bursts under 20 ms) on
#: top of drifts that last seconds to minutes, so many readings say
#: more about a phase than few; each costs 2 % of a slice this long,
#: and a closed loop's ramp-down (the last window draining) about as
#: much again.
SLICE_S = 0.1


class Slice(NamedTuple):
    """One timed piece of work and the probe readings around it."""
    work: Any  # a Spans; seconds for a set-up; (Spans, answers)
    kops: tuple[float, float]

    @property
    def speed(self) -> float:
        """How fast the machine ran the program meanwhile, as a share
        of the reference machine's speed."""
        return (sum(self.kops) / 2 / REFERENCE_KOPS) ** SENSITIVITY


def sliced(probe: SpeedProbe, seconds: float,
           run_slice: Callable[[float], Any]) -> list[Slice]:
    """A phase of ``seconds``: ``run_slice(slice_seconds)`` again and
    again, with a probe reading between one slice and the next."""
    wanted = max(1, round(seconds / SLICE_S))
    slices: list[Slice] = []
    before = probe()
    for __ in range(wanted):
        work = run_slice(seconds / wanted)
        after = probe()
        slices.append(Slice(work, (before, after)))
        before = after
    return slices


def latencies_us(slices: list[Slice]) -> list[float]:
    """Every latency of ``slices`` (of ``Spans``), in microseconds of
    the reference machine."""
    return [us * s.speed for s in slices
            for us in s.work.latencies_us()]


def rate(slices: list[Slice]) -> float:
    """Requests answered per second of the reference machine over
    ``slices`` (of ``Spans``), CC aborts left out."""
    return sum(len(s.work) - s.work.cc_aborted for s in slices) \
        / sum(s.work.wall_s * s.speed for s in slices)


def summarize(values: list[float]) -> dict[str, Any]:
    """The median of the per-repeat ``values`` with their spread."""
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


# ----------------------------------------------------------------------
# Public counters
# ----------------------------------------------------------------------

_CC_ABORT_REASONS = ("validation_failure", "lock_conflict",
                     "deadlock_avoidance", "wound")


def counters(database: Any) -> dict[str, float]:
    """The public counters the per-layer ratios are built from."""
    registry = database.telemetry.registry
    aborts = database.abort_counts()
    by_reason = aborts["by_reason"]
    flushers = list(database.durability_stats()
                    .get("flushers", {}).values())
    return {
        "commits": registry.value("txn_commits_total"),
        "aborts": registry.value("txn_aborts_total"),
        "validations": aborts["validations"],
        "validation_failures": aborts["validation_failures"],
        "cc_aborts": sum(by_reason[r] for r in _CC_ABORT_REASONS),
        "user_aborts": by_reason["user"],
        "events": registry.value("scheduler_events_dispatched_total"),
        "executor_requests": sum(
            registry.value("executor_requests_total", core=e.core_id)
            for e in database.executors),
        "fsyncs": sum(f["fsyncs"] for f in flushers),
        "log_records": sum(f["records_flushed"] for f in flushers),
        "log_bytes": sum(f["bytes_flushed"] for f in flushers),
        "accepted": registry.value("serving_accepted_total"),
        "shed": registry.value("serving_shed_total"),
    }


def delta(after: dict, before: dict) -> dict[str, float]:
    """How far each counter moved between two :func:`counters`."""
    return {key: after[key] - before[key] for key in after}


# ----------------------------------------------------------------------
# Spans and outcome accounting
# ----------------------------------------------------------------------

class Spans:
    """Per-request timestamps of one phase, seconds on the
    ``perf_counter`` clock; the request id is the list index."""

    __slots__ = ("phase", "intended", "submit_start", "submit_end",
                 "done", "wall_s", "cc_aborted")

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.intended: list[float] = []
        self.submit_start: list[float] = []
        self.submit_end: list[float] = []
        self.done: list[float] = []
        self.wall_s = 0.0
        #: Requests that ended in a CC abort, when the caller read it
        #: off the public counters: they complete but earn nothing.
        self.cc_aborted = 0

    def __len__(self) -> int:
        return len(self.intended)

    def latencies_us(self) -> list[float]:
        """Intended-to-done latencies, in request order."""
        return [(d - i) * 1e6
                for i, d in zip(self.intended, self.done)]

    def submit_call_us(self) -> list[float]:
        return [(e - s) * 1e6 for s, e in
                zip(self.submit_start, self.submit_end)]

    def max_send_lag_us(self) -> float:
        return max((s - i) * 1e6 for i, s in
                   zip(self.intended, self.submit_start))

    def to_rows(self) -> list[dict[str, Any]]:
        origin = self.intended[0] if self.intended else 0.0
        return [{"id": n, "phase": self.phase,
                 "intended_us": round((i - origin) * 1e6, 1),
                 "submit_start_us": round((s - origin) * 1e6, 1),
                 "submit_end_us": round((e - origin) * 1e6, 1),
                 "done_us": round((d - origin) * 1e6, 1)}
                for n, (i, s, e, d) in enumerate(zip(
                    self.intended, self.submit_start, self.submit_end,
                    self.done))]


class Tally:
    """What became of every request offered: answers (commit, user or
    CC abort) against failures (shed, typed error, no reply)."""

    def __init__(self) -> None:
        self.kinds: Counter[str] = Counter()

    def note(self, submission: Any) -> None:
        outcome = submission.outcome
        if outcome is None:
            self.kinds["timeout"] += 1
        elif outcome.committed:
            self.kinds["committed"] += 1
        elif outcome.error_code is None:
            self.kinds["aborted"] += 1
        elif outcome.shed:
            self.kinds["shed"] += 1
        else:
            self.kinds["error"] += 1

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.kinds["committed"] \
            - self.kinds["aborted"]


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------

class Driver:
    """One client plus how its submissions complete: a ``LocalClient``
    completes when the scheduler is drained on this thread, a
    ``TcpClient`` on its own reader thread."""

    def __init__(self, client: Any, tally: Tally) -> None:
        self.client = client
        self.tally = tally
        self._drain = getattr(client, "drain", None)

    def finish(self, submissions: list[Any]) -> None:
        if self._drain is not None:
            self._drain()
        else:
            for submission in submissions:
                try:
                    submission.wait(REPLY_TIMEOUT_S)
                except TimeoutError:
                    pass  # tallied below as a failure
        note = self.tally.note
        for submission in submissions:
            note(submission)

    def solo(self, specs: Iterator, seconds: float | None = None,
             count: int | None = None,
             phase: str = "solo") -> tuple[Spans, list]:
        """Closed loop, one request in flight, for ``seconds`` or
        ``count`` requests.  Returns the spans and the
        ``(spec, outcome)`` pairs in submission order."""
        spans = Spans(phase)
        answered = []
        submit = self.client.submit
        clock = time.perf_counter
        begin = clock()
        deadline = None if seconds is None else begin + seconds
        while len(answered) != count:
            start = clock()
            if deadline is not None and start >= deadline:
                break
            spec = next(specs)
            submission = submit(spec[0], spec[1], *spec[2])
            end = clock()
            self.finish([submission])
            spans.done.append(clock())
            spans.intended.append(start)
            spans.submit_start.append(start)
            spans.submit_end.append(end)
            answered.append((spec, submission.outcome))
        spans.wall_s = clock() - begin
        return spans, answered

    def windows(self, specs: Iterator, window: int,
                seconds: float | None = None,
                count: int | None = None,
                phase: str = "capacity") -> Spans:
        """Closed loop in windows: submit ``window`` requests, wait
        for all of them, repeat — for ``seconds`` or ``count``."""
        spans = Spans(phase)
        submit = self.client.submit
        clock = time.perf_counter
        begin = clock()
        deadline = None if seconds is None else begin + seconds
        while True:
            if deadline is not None and clock() >= deadline:
                break
            if count is not None and len(spans) >= count:
                break
            batch = []
            for __ in range(window):
                spec = next(specs)
                start = clock()
                batch.append(submit(spec[0], spec[1], *spec[2]))
                spans.submit_end.append(clock())
                spans.intended.append(start)
                spans.submit_start.append(start)
            self.finish(batch)
            spans.done.extend([clock()] * window)
        spans.wall_s = clock() - begin
        return spans

    def closed_loop(self, specs: Iterator, inflight: int,
                    seconds: float | None = None,
                    count: int | None = None,
                    phase: str = "capacity") -> Spans:
        """Closed loop over the wire: ``inflight`` callers that each
        wait for their reply before sending the next request — for
        ``seconds`` or ``count`` requests."""
        spans = Spans(phase)
        submissions = []
        slots = threading.Semaphore(inflight)
        submit = self.client.submit
        clock = time.perf_counter
        done = spans.done

        def completed(outcome: Any, index: int) -> None:
            done[index] = clock()
            slots.release()

        begin = clock()
        deadline = None if seconds is None else begin + seconds
        index = 0
        while index != count and \
                (deadline is None or clock() < deadline):
            if not slots.acquire(timeout=REPLY_TIMEOUT_S):
                break  # a reply never came; the tally records it
            spec = next(specs)
            done.append(0.0)
            start = clock()
            submissions.append(submit(
                spec[0], spec[1], *spec[2],
                on_done=lambda o, i=index: completed(o, i)))
            spans.submit_end.append(clock())
            spans.intended.append(start)
            spans.submit_start.append(start)
            index += 1
        self.finish(submissions)
        spans.wall_s = max(done) - begin if done else 0.0
        return spans

    def open_loop(self, specs: Iterator, gaps: Iterator[float],
                  seconds: float, phase: str = "latency") -> Spans:
        """Open loop: the arrivals that ``gaps`` (seconds between one
        request and the next, fixed before the run) puts within
        ``seconds``.  Latency counts from each request's intended send
        time, so a stalled sender charges its delay to the requests
        it held back."""
        spans = Spans(phase)
        submissions = []
        submit = self.client.submit
        clock = time.perf_counter
        done = spans.done

        def completed(outcome: Any, index: int) -> None:
            done[index] = clock()

        begin = clock()
        offset = next(gaps)
        while offset < seconds:
            intended = begin + offset
            delay = intended - clock()
            if delay > 0:
                time.sleep(delay)
            spec = next(specs)
            done.append(0.0)
            start = clock()
            submissions.append(submit(
                spec[0], spec[1], *spec[2],
                on_done=lambda o, i=len(submissions): completed(o, i)))
            spans.submit_end.append(clock())
            spans.intended.append(intended)
            spans.submit_start.append(start)
            offset += next(gaps)
        self.finish(submissions)
        spans.wall_s = max(done) - begin
        return spans
