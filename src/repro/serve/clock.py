"""Clocks for the serving layer: virtual (deterministic) and wall.

The serving loop is written against a tiny scheduling interface —
``now``, ``call_at``/``call_later`` and ``run_until`` — instead of
``asyncio`` directly, so the same engine/loadgen/control code runs in
two modes:

* :class:`VirtualClock`: a heap-ordered discrete-event loop.  Time jumps
  from event to event with **zero real sleeps**, ties break by priority
  and then insertion order, and a seeded run is bit-for-bit
  reproducible.  This is what the
  unit tests, the CI smoke and ``repro serve --clock virtual`` use.
* Wall-clock mode lives in :mod:`repro.serve.http`, where the asyncio
  event loop plays the scheduler and engine ticks are paced by real
  ``asyncio.sleep`` calls (optionally compressed by a speedup factor).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Tuple

from repro.errors import ConfigurationError


class VirtualClock:
    """Deterministic discrete-event scheduler.

    Events fire in ``(time, priority, insertion order)`` order; callbacks
    may schedule further events (the tick loop reschedules itself this
    way).  ``run_until`` never sleeps — it is a plain loop over a heap, so
    a simulated day costs only the callbacks it runs.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._seq = 0
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        #: End of the ``run_until`` call in progress (``inf`` while
        #: draining with :meth:`run`); events past it do not fire.
        self.deadline = math.inf

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    def next_event_time(self) -> float:
        """Time of the earliest pending event, ``inf`` when none is."""
        return self._heap[0][0] if self._heap else math.inf

    def call_at(
        self, when: float, callback: Callable[[], None], *, priority: int = 0
    ) -> None:
        """Schedule ``callback`` at absolute time ``when``.

        Among events due at the same instant, lower ``priority`` fires
        first.  The load generator schedules arrivals at priority 1, so a
        tick due at time ``T`` serves the arrivals strictly before ``T``.
        """
        if when < self._now - 1e-9:
            raise ConfigurationError(
                f"cannot schedule event at {when:.3f}s, now is {self._now:.3f}s"
            )
        self._seq += 1
        heapq.heappush(self._heap, (float(when), priority, self._seq, callback))

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self.call_at(self._now + delay, callback)

    def run_until(self, deadline: float) -> int:
        """Run every event due at or before ``deadline``; returns the
        number of events fired.  The clock ends exactly at ``deadline``
        even if the heap drains early."""
        fired = 0
        self.deadline = deadline
        try:
            while self._heap and self._heap[0][0] <= deadline + 1e-9:
                when, _, _, callback = heapq.heappop(self._heap)
                if when > self._now:
                    self._now = when
                callback()
                fired += 1
        finally:
            self.deadline = math.inf
        if deadline > self._now:
            self._now = deadline
        return fired

    def run(self) -> int:
        """Drain the heap completely (callbacks may keep it alive)."""
        fired = 0
        while self._heap:
            when, _, _, callback = heapq.heappop(self._heap)
            if when > self._now:
                self._now = when
            callback()
            fired += 1
        return fired
