"""Stage timing in reference seconds, which carry less of the host's mood.

On a shared host the same code runs 25 to 50% slower for stretches of
seconds to minutes, so seconds measured in one run are not comparable with
seconds measured in the next.  The clock therefore also times a fixed
pure-Python loop, at both ends of each stage and, from a timer signal,
every `SAMPLE_EVERY_S` seconds inside it.  The stage's duration divided by
the loop's mean pace over those timings is its duration in reference seconds
(``ref_s``): one ``ref_s`` is the time the host takes, at that moment, for
``REF_S_ITERATIONS`` iterations of the loop, about one second on an unloaded
core.  A slow stretch lengthens the stage and the loop alike, and the ratio
stays.  The time spent in the loop is not stage time; the raw seconds are
kept beside the reference seconds.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

REF_S_ITERATIONS = 10_000_000
_BLOCK_ITERATIONS = 40_000  # one timing of the loop at a stage end, a few ms
_BLOCK_REPEATS = 7  # timings per reference; their median is used
_REUSE_WITHIN_S = 0.05  # a reference this fresh also opens the next stage
SAMPLE_EVERY_S = 0.2  # timer period of the samples inside a stage
_SAMPLE_ITERATIONS = 10_000  # about 1 ms, some 2% of the period with repeats
_SAMPLE_REPEATS = 3


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def reference_s(iterations: int = _BLOCK_ITERATIONS, repeats: int = _BLOCK_REPEATS) -> float:
    """How many seconds one ref_s lasts on this host right now."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop(iterations)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * (REF_S_ITERATIONS / iterations)


@dataclass(frozen=True)
class Stage:
    name: str
    seconds: float
    pace: float  # seconds per ref_s: the mean of the references taken

    @property
    def ref_s(self) -> float:
        return self.seconds / self.pace


def no_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class Clock:
    """Times named stages in seconds and in reference seconds.

    `span` opens a trace span around each stage (the traced run passes its
    tracer's, and no samples, so that they do not land in layer times).  The
    reference loops run outside the stage's own time."""

    def __init__(
        self,
        span: Callable[[str], contextlib.AbstractContextManager] = no_span,
        sample: bool = True,
    ) -> None:
        self.span = span
        self.sample = sample
        self.stages: list[Stage] = []
        self.overhead_s = 0.0  # seconds spent in reference loops
        self._last: tuple[float, float] | None = None  # (reference, when it ended)
        self._samples: list[float] = []

    def _reference(self) -> float:
        now = time.perf_counter()
        if self._last is not None and now - self._last[1] < _REUSE_WITHIN_S:
            return self._last[0]
        value = reference_s()
        end = time.perf_counter()
        self.overhead_s += end - now
        self._last = (value, end)
        return value

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(reference_s(_SAMPLE_ITERATIONS, _SAMPLE_REPEATS))
        self.overhead_s += time.perf_counter() - start

    @contextlib.contextmanager
    def stage(self, name: str):
        before = self._reference()
        self._samples = []
        overhead = self.overhead_s
        previous = signal.signal(signal.SIGALRM, self._on_timer) if self.sample else None
        try:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            with self.span(name):
                start = time.perf_counter()
                yield
                elapsed = time.perf_counter() - start
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - (self.overhead_s - overhead)
        after = self._reference()
        self.stages.append(Stage(name, seconds, statistics.fmean([before, *self._samples, after])))
