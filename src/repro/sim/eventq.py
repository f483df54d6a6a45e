"""The engine's event queue: a binary heap over ``(when, seq, action)``.

Events order by virtual timestamp, with a monotonic sequence number
breaking ties FIFO. The engine owns ``seq``; pushing an event back (the
bounded-run path) re-uses its original sequence number, so ordering is
unaffected by the round trip. The interface is ``push(when, seq,
action)``, ``pop() -> (when, seq, action)`` and ``len()``/truthiness.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

__all__ = ["HeapEventQueue", "make_queue"]

Event = Tuple[float, int, Callable[[], None]]


class HeapEventQueue:
    """``heapq`` binary heap of ``(when, seq, action)`` tuples."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def push(self, when: float, seq: int, action: Any) -> None:
        heapq.heappush(self._heap, (when, seq, action))

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def make_queue() -> HeapEventQueue:
    """Build the engine's event queue."""
    return HeapEventQueue()
