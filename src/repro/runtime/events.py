"""The discrete-event simulator's event queue.

A single binary heap pops events in ascending ``(time, seq)`` order,
with ``seq`` a unique monotone sequence number, so the simulator's event
stream (and therefore every report) is deterministic.

The queue supports **lazy invalidation**: :meth:`EventQueue.cancel`
marks an entry dead in place, and dead entries are skipped (and counted)
during ``pop`` and ``peek`` without dispatching.  The simulator uses this
to retire a superseded flow-ETA event the moment a re-rate posts a fresh
one, instead of paying a full dispatch and version check per stale
event.

Entries are small mutable lists ``[time, seq, kind, payload, alive]``.
Because ``seq`` is unique, ordering comparisons never reach ``kind`` —
payloads are never compared.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import List, Optional

# Entry field index of the liveness flag.
_ALIVE = 4


class EventQueue:
    """Binary heap of entry lists with in-place cancellation.

    Counters surfaced through :class:`~repro.runtime.metrics.SimCounters`:
    ``depth_max`` is the high-water mark of pending entries (dead ones
    included) and ``cancelled_skipped`` counts dead entries discarded.
    """

    def __init__(self) -> None:
        self._heap: List[list] = []
        self.depth = 0
        self.depth_max = 0
        self.cancelled_skipped = 0

    def post(self, time: float, seq: int, kind: str, payload: object) -> list:
        entry = [time, seq, kind, payload, True]
        _heappush(self._heap, entry)
        depth = self.depth + 1
        self.depth = depth
        if depth > self.depth_max:
            self.depth_max = depth
        return entry

    def cancel(self, entry: list) -> None:
        """Mark a pending entry dead; it will be skipped at pop time."""
        entry[_ALIVE] = False

    def pop(self) -> Optional[list]:
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            self.depth -= 1
            if entry[_ALIVE]:
                return entry
            self.cancelled_skipped += 1
        return None

    def peek(self) -> Optional[list]:
        """Next live entry without consuming it (dead entries are
        discarded and counted, exactly as :meth:`pop` would)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[_ALIVE]:
                return entry
            _heappop(heap)
            self.depth -= 1
            self.cancelled_skipped += 1
        return None

    def __len__(self) -> int:
        return self.depth


__all__ = ["EventQueue"]
