"""Unit tests for events, labels and orderings."""

import pickle

from repro.events import (
    Event,
    FenceKind,
    FenceLabel,
    INIT_TID,
    InitLabel,
    MemOrder,
    ReadLabel,
    WriteLabel,
    init_event,
    labels_match,
)


class TestEvent:
    def test_ordering_by_thread_then_index(self):
        assert Event(0, 1) < Event(1, 0)
        assert Event(1, 0) < Event(1, 1)
        assert Event(-1, 5) < Event(0, 0) < (0, 1)

    def test_po_prev_next(self):
        ev = Event(2, 3)
        assert ev.po_prev() == Event(2, 2)
        assert ev.po_next() == Event(2, 4)
        assert Event(2, 0).po_prev() is None

    def test_initial(self):
        assert init_event(0).is_initial
        assert init_event(0).tid == INIT_TID
        assert not Event(0, 0).is_initial

    def test_repr(self):
        assert repr(Event(1, 2)) == "E1.2"
        assert repr(init_event(3)) == "I3"

    def test_hashable_identity(self):
        assert Event(1, 2) == Event(tid=1, index=2)
        assert len({Event(1, 2), Event(1, 2), Event(1, 3)}) == 2
        # the hash of the plain pair keeps every set and dict of events
        # iterating in the order the explorer's counts are pinned to
        for tid, index in ((1, 2), (-1, 0), (0, 7)):
            assert hash(Event(tid, index)) == hash((tid, index))
        # documented: an Event equals the plain pair (tid, index)
        assert Event(1, 2) == (1, 2) and Event(1, 2) != (2, 1)

    def test_identity_runs_in_c(self):
        # no Python-level dunder may come back on the hottest key type
        assert Event.__hash__ is tuple.__hash__
        assert Event.__eq__ is tuple.__eq__
        assert Event.__lt__ is tuple.__lt__

    def test_pickle_round_trip(self):
        for ev in (Event(1, 2), init_event(3)):
            back = pickle.loads(pickle.dumps(ev))
            assert type(back) is Event
            assert back == ev and repr(back) == repr(ev)


class TestMemOrder:
    def test_acquire_hierarchy(self):
        assert MemOrder.ACQ.is_acquire()
        assert MemOrder.ACQ_REL.is_acquire()
        assert MemOrder.SC.is_acquire()
        assert not MemOrder.RLX.is_acquire()
        assert not MemOrder.REL.is_acquire()

    def test_release_hierarchy(self):
        assert MemOrder.REL.is_release()
        assert MemOrder.ACQ_REL.is_release()
        assert MemOrder.SC.is_release()
        assert not MemOrder.ACQ.is_release()

    def test_sc(self):
        assert MemOrder.SC.is_sc()
        assert not MemOrder.ACQ_REL.is_sc()


class TestFenceKind:
    def test_full_fences(self):
        assert FenceKind.MFENCE.is_full()
        assert FenceKind.SYNC.is_full()
        assert not FenceKind.LWSYNC.is_full()
        assert not FenceKind.DMB_ST.is_full()


class TestLabels:
    def test_read_classification(self):
        lab = ReadLabel(loc="x")
        assert lab.is_read and lab.is_access
        assert not lab.is_write and not lab.is_fence
        assert lab.location == "x"

    def test_write_classification(self):
        lab = WriteLabel(loc="x", value=3)
        assert lab.is_write and lab.is_access
        assert lab.location == "x"

    def test_fence_classification(self):
        lab = FenceLabel(kind=FenceKind.SYNC)
        assert lab.is_fence and not lab.is_access
        assert lab.location is None

    def test_deps_union(self):
        a, b, c = Event(0, 0), Event(0, 1), Event(0, 2)
        lab = ReadLabel(
            loc="x",
            addr_deps=frozenset([a]),
            data_deps=frozenset([b]),
            ctrl_deps=frozenset([c]),
        )
        assert lab.deps == {a, b, c}

    def test_labels_match_ignores_deps(self):
        a = ReadLabel(loc="x", addr_deps=frozenset([Event(0, 0)]))
        b = ReadLabel(loc="x")
        assert labels_match(a, b)

    def test_labels_match_respects_content(self):
        assert not labels_match(ReadLabel(loc="x"), ReadLabel(loc="y"))
        assert not labels_match(
            WriteLabel(loc="x", value=1), WriteLabel(loc="x", value=2)
        )
        assert not labels_match(ReadLabel(loc="x"), WriteLabel(loc="x"))
        assert not labels_match(
            ReadLabel(loc="x", exclusive=True), ReadLabel(loc="x")
        )

    def test_init_is_write(self):
        lab = InitLabel(loc="x", value=0)
        assert lab.is_write
        assert "Init" in repr(lab)
