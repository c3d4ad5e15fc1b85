"""Discrete-event scheduler with a virtual clock.

Everything in the reproduction runs on virtual time: hosts, censors, and
retransmission timers all schedule callbacks here, and experiments advance
the clock by draining the event heap. No wall-clock time is ever consulted,
which keeps every trial fully deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["Scheduler", "Timer"]

#: ``run``'s stopping time when it drains the whole queue.
_NEVER = float("inf")


class Timer:
    """Handle for a scheduled callback that can be cancelled."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the associated callback from firing."""
        self.cancelled = True


class Scheduler:
    """A minimal discrete-event loop ordered by (time, insertion order).

    The insertion-order tiebreak guarantees FIFO delivery for events
    scheduled at the same virtual instant, which in turn preserves packet
    ordering on links with a constant per-hop delay.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Empty the queue and rewind the counter and the clock to zero.

        Every entry is a 5-tuple ``(when, counter, timer, callback,
        args)``; the unique counter in slot 1 guarantees heap comparisons
        never reach the tail.
        """
        self._queue: List[
            Tuple[float, int, Optional[Timer], Callable[..., None], tuple]
        ] = []
        self._counter = 0
        self.now = 0.0

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        timer = Timer()
        heapq.heappush(
            self._queue, (self.now + delay, self._counter, timer, callback, ())
        )
        self._counter += 1
        return timer

    def schedule_at(self, when: float, callback: Callable, args: tuple = ()) -> None:
        """Schedule an uncancellable callback at absolute time ``when``.

        The hot-path variant used by the network's packet walk: no
        :class:`Timer` allocation (the entry's timer slot is ``None``),
        and ``args`` are applied at dispatch so call sites avoid building
        a closure per packet-hop.
        """
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (when, self._counter, None, callback, args))
        self._counter += 1

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Drain the event queue, advancing virtual time.

        Args:
            until: Stop once the next event would fire after this time
                (events at exactly ``until`` still run). ``None`` drains
                the queue completely.
            max_events: Safety valve against runaway event loops.

        Returns:
            The number of events executed.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        limit = _NEVER if until is None else until
        while queue and executed < max_events:
            if queue[0][0] > limit:
                break
            when, _, timer, callback, args = pop(queue)
            if timer is not None and timer.cancelled:
                continue
            if when > self.now:
                self.now = when
            callback(*args)
            executed += 1
        if until is not None and (not queue or queue[0][0] > until):
            self.now = max(self.now, until)
        return executed

    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)
