"""Outside-in span tracer for the benchmark's traced runs.

Functions are wrapped where their caller looks the name up (for example
``pipeline.strip_markup``, not ``cleaning.strip_markup``), so the program
itself is unchanged.  A generator function is wrapped so that every
``next()`` on it is one span: the work a generator does happens while its
consumer pulls, not when it is called.

Spans nest on one stack.  A span's self time is its duration minus the
duration of the spans directly inside it, so the self times of all spans
add up to the duration of the outermost one.  Spans are aggregated per name
(calls, self seconds, total seconds) as they close instead of being kept.
"""

from __future__ import annotations

import resource
import time
from typing import Callable, Dict, List


def own_peak_mb() -> float:
    """This process's peak RSS in MB since it was started.

    ``ru_maxrss`` of a fresh process also counts the RSS of the parent it
    was forked from, so the kernel's VmHWM is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[List[float]] = []  # [start, time covered by child spans]
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, self_s, total_s]
        self.counts: Dict[str, int] = {}
        self.peak_mb: Dict[str, float] = {}

    def _enter(self) -> List[float]:
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[float]) -> None:
        duration = self.clock() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration - frame[1]
        stat[2] += duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def mark_peak(self, name: str) -> None:
        """Record the process's peak RSS so far, in MB, under ``name``."""
        self.peak_mb[name] = own_peak_mb()

    def wrap(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(result)`` runs outside the span."""

        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """``fn`` returns an iterator whose every ``next()`` is span ``name``.

        Each item yielded also counts once under ``name``.
        """
        tracer = self

        class TimedIterator:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer._enter()
                try:
                    item = next(self._inner)
                finally:
                    tracer._exit(name, frame)
                tracer.count(name)
                return item

        def traced(*args, **kwargs):
            return TimedIterator(fn(*args, **kwargs))

        return traced


def install(tracer: Tracer, hooks) -> None:
    """Replace each ``owner.attribute`` by its traced wrapper.

    ``hooks`` holds ``(owner, attribute, span name, is_generator, after)``;
    ``owner`` is a module or a class.
    """
    for owner, attribute, name, is_generator, after in hooks:
        original = getattr(owner, attribute)
        if is_generator:
            wrapped = tracer.wrap_generator(name, original)
        else:
            wrapped = tracer.wrap(name, original, after)
        setattr(owner, attribute, wrapped)
