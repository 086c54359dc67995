"""Event identities.

An event is a position in some thread: the pair ``(tid, index)``.
Executions attach *labels* (see :mod:`repro.events.labels`) to events.
The initial state is modelled, as in herd/GenMC, by initialisation
writes living on the pseudo-thread :data:`INIT_TID`.
"""

from __future__ import annotations

from typing import NamedTuple

#: Thread id of the pseudo-thread holding initialisation writes.
INIT_TID = -1


class Event(NamedTuple):
    """The identity of an event: thread id and program-order index.

    Events key every relation adjacency set and graph cache, so they
    are hashed and compared far more often than they are created; as a
    named tuple, hashing, equality, ordering and field reads all run
    in C.  An ``Event`` therefore equals the plain tuple
    ``(tid, index)``, hashes and orders like it, and pickles as its
    two fields.
    """

    tid: int
    index: int

    @property
    def is_initial(self) -> bool:
        return self.tid == INIT_TID

    def po_prev(self) -> "Event | None":
        """The immediately program-order-preceding event, if any."""
        if self.index == 0:
            return None
        return Event(self.tid, self.index - 1)

    def po_next(self) -> "Event":
        return Event(self.tid, self.index + 1)

    def __repr__(self) -> str:
        if self.is_initial:
            return f"I{self.index}"
        return f"E{self.tid}.{self.index}"


def init_event(slot: int) -> Event:
    """The ``slot``-th initialisation event."""
    return Event(INIT_TID, slot)
