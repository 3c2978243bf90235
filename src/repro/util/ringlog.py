"""Bounded append log: a drop-oldest ring buffer that *is* a list.

Diagnostic traces (`EventLoopServer.unhandled_errors`,
`QueryService.internal_errors`, `FaultPlan.fired`) started life as
plain lists.  That is the right reading interface — tests assert
equality against them, slice them, and check truthiness — but a plain
list grows without bound in a long-running process: a worker that
serves for weeks under a fault plan, or a server absorbing a slow
trickle of client-triggered errors, leaks memory through its own
tripwires.

:class:`RingLog` subclasses :class:`list`, so every existing read
idiom keeps working unchanged (``log == []``, ``list(log)``,
``log[-3:]``, ``for entry in log``), while :meth:`append` evicts the
oldest entries beyond ``capacity`` and tallies them in
:attr:`dropped`.  The most recent entries are always present, which is
what both a test asserting on recent behaviour and an operator
inspecting a live process actually need.
"""

from __future__ import annotations

import threading
from typing import Iterable, TypeVar

T = TypeVar("T")

__all__ = ["RingLog"]


class RingLog(list):
    """A ``list`` capped at ``capacity`` entries, dropping the oldest.

    ``dropped`` counts evicted entries since construction (or the last
    :meth:`clear`), so a bounded buffer still exposes *that* history
    was lost and how much — an assertion on ``log.dropped == 0`` is
    the lossless-trace guarantee tests relied on implicitly before.

    Appends are serialised by a per-instance lock: handler threads
    report errors concurrently, and an unlocked append+trim pair could
    evict one entry too many when two threads overflow at once.
    """

    def __init__(self, capacity: int, iterable: Iterable[T] = ()) -> None:
        if capacity < 1:
            raise ValueError(f"RingLog capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = int(capacity)
        self.dropped = 0
        self._lock = threading.Lock()
        for item in iterable:
            self.append(item)

    def append(self, item: T) -> None:
        with self._lock:
            super().append(item)
            overflow = len(self) - self.capacity
            if overflow > 0:
                del self[:overflow]
                self.dropped += overflow

    def extend(self, iterable: Iterable[T]) -> None:
        for item in iterable:
            self.append(item)

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self.dropped = 0

    def __repr__(self) -> str:
        return (f"RingLog(capacity={self.capacity}, dropped={self.dropped}, "
                f"entries={list.__repr__(self)})")
