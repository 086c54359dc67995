"""Unit tests for the C11 synchronisation helpers (sw, hb, psc)."""

from repro.events import (
    FenceKind,
    FenceLabel,
    MemOrder,
    ReadLabel,
    WriteLabel,
)
from repro.graphs import ExecutionGraph
from repro.graphs.incremental import set_incremental
from repro.models.c11 import (
    fence_c11_order,
    happens_before,
    release_sequence,
    sc_events,
    strong_happens_before,
    synchronizes_with,
)


def rel_acq_mp():
    """W d (rlx); W f (rel)  ||  R f (acq); R d (rlx)."""
    g = ExecutionGraph(["d", "f"])
    g.add_write(0, WriteLabel(loc="d", value=1))
    wf = g.add_write(0, WriteLabel(loc="f", value=1, order=MemOrder.REL))
    rf_ = g.add_read(1, ReadLabel(loc="f", order=MemOrder.ACQ), wf)
    g.add_read(1, ReadLabel(loc="d"), g.init_write("d"))
    return g, wf, rf_


class TestSynchronizesWith:
    def test_rel_acq_pair_syncs(self):
        g, wf, rf_ = rel_acq_mp()
        assert (wf, rf_) in synchronizes_with(g)

    def test_rlx_pair_does_not(self):
        g = ExecutionGraph(["f"])
        wf = g.add_write(0, WriteLabel(loc="f", value=1))
        g.add_read(1, ReadLabel(loc="f"), wf)
        assert not synchronizes_with(g)

    def test_release_fence_is_the_source(self):
        g = ExecutionGraph(["f"])
        fence = g.add_fence(0, FenceLabel(kind=FenceKind.C11, order=MemOrder.REL))
        wf = g.add_write(0, WriteLabel(loc="f", value=1))
        r = g.add_read(1, ReadLabel(loc="f", order=MemOrder.ACQ), wf)
        assert (fence, r) in synchronizes_with(g)

    def test_acquire_fence_is_the_target(self):
        g = ExecutionGraph(["f"])
        wf = g.add_write(0, WriteLabel(loc="f", value=1, order=MemOrder.REL))
        r = g.add_read(1, ReadLabel(loc="f"), wf)
        fence = g.add_fence(1, FenceLabel(kind=FenceKind.C11, order=MemOrder.ACQ))
        assert (wf, fence) in synchronizes_with(g)

    def test_release_sequence_through_rmws(self):
        g = ExecutionGraph(["c"])
        w = g.add_write(0, WriteLabel(loc="c", value=1, order=MemOrder.REL))
        r1 = g.add_read(1, ReadLabel(loc="c", exclusive=True), w)
        u1 = g.add_write(1, WriteLabel(loc="c", value=2, exclusive=True))
        assert release_sequence(g, w) == {w, u1}
        # an acquire read of the RMW's write syncs with the original release
        r2 = g.add_read(2, ReadLabel(loc="c", order=MemOrder.ACQ), u1)
        assert (w, r2) in synchronizes_with(g)


class TestHappensBefore:
    def test_hb_extends_po_with_sw(self):
        g, wf, rf_ = rel_acq_mp()
        wd = g.thread_events(0)[0]
        rd = g.thread_events(1)[1]
        assert (wd, rd) in happens_before(g)

    def test_strong_hb_syncs_every_rf(self):
        g = ExecutionGraph(["f"])
        wf = g.add_write(0, WriteLabel(loc="f", value=1))  # rlx!
        r = g.add_read(1, ReadLabel(loc="f"), wf)
        assert (wf, r) in strong_happens_before(g)
        assert (wf, r) not in happens_before(g)

    def test_child_copy_extends_the_parent_map(self):
        g, wf, rf_ = rel_acq_mp()
        wd = g.thread_events(0)[0]
        parent = (happens_before(g), strong_happens_before(g))
        child = g.copy()
        w2 = child.add_write(0, WriteLabel(loc="d", value=2, order=MemOrder.REL))
        acq = child.add_read(2, ReadLabel(loc="f", order=MemOrder.ACQ), wf)
        child.add_read(2, ReadLabel(loc="d"), w2)
        fence = child.add_fence(2, FenceLabel(kind=FenceKind.C11, order=MemOrder.ACQ))
        incremental = (happens_before(child), strong_happens_before(child))
        assert {(wf, acq), (wd, acq), (w2, fence), (wd, fence)} <= set(
            incremental[0].pairs()
        )
        set_incremental(False)
        try:
            closure = (happens_before(child), strong_happens_before(child))
        finally:
            set_incremental(True)
        assert incremental == closure
        # the parent's maps are untouched
        assert (happens_before(g), strong_happens_before(g)) == parent
        assert fence not in parent[0].nodes() | parent[1].nodes()


class TestScEvents:
    def test_hardware_full_fences_count_as_sc(self):
        g = ExecutionGraph(["x"])
        f = g.add_fence(0, FenceLabel(kind=FenceKind.SYNC))
        assert sc_events(g) == [f]

    def test_lwsync_is_not_sc(self):
        g = ExecutionGraph(["x"])
        g.add_fence(0, FenceLabel(kind=FenceKind.LWSYNC))
        assert sc_events(g) == []

    def test_sc_accesses_optional(self):
        g = ExecutionGraph(["x"])
        w = g.add_write(0, WriteLabel(loc="x", value=1, order=MemOrder.SC))
        assert sc_events(g) == [w]
        assert sc_events(g, accesses=False) == []

    def test_child_copy_extends_the_parent_list(self):
        g = ExecutionGraph(["x", "y"])
        w = g.add_write(0, WriteLabel(loc="x", value=1, order=MemOrder.SC))
        g.add_read(1, ReadLabel(loc="x"), w)
        assert sc_events(g) == [w]
        assert sc_events(g, accesses=False) == []
        child = g.copy()
        f = child.add_fence(1, FenceLabel(kind=FenceKind.C11, order=MemOrder.SC))
        r = child.add_read(
            1, ReadLabel(loc="y", order=MemOrder.SC), child.init_write("y")
        )
        incremental = (sc_events(child), sc_events(child, accesses=False))
        assert incremental == ([w, f, r], [f])
        # a cache-free copy scans from scratch (the child's own lists
        # are memoised at its version whatever the incremental flag)
        fresh = child.restricted(child.events())
        scan = (sc_events(fresh), sc_events(fresh, accesses=False))
        assert incremental == scan
        # the parent's lists are untouched
        assert sc_events(g) == [w]


class TestFenceCorrespondence:
    def test_mapping(self):
        cases = {
            FenceKind.SYNC: MemOrder.SC,
            FenceKind.MFENCE: MemOrder.SC,
            FenceKind.LWSYNC: MemOrder.ACQ_REL,
            FenceKind.DMB_LD: MemOrder.ACQ,
            FenceKind.DMB_ST: MemOrder.REL,
            FenceKind.ISYNC: MemOrder.ACQ,
        }
        for kind, expected in cases.items():
            assert fence_c11_order(FenceLabel(kind=kind)) is expected

    def test_c11_fence_keeps_its_order(self):
        lab = FenceLabel(kind=FenceKind.C11, order=MemOrder.REL)
        assert fence_c11_order(lab) is MemOrder.REL
