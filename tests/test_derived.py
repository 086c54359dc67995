"""Unit tests for derived relations over execution graphs."""

from repro.events import Event, FenceKind, FenceLabel, ReadLabel, WriteLabel
from repro.graphs import ExecutionGraph
from repro.graphs.derived import (
    co,
    dependency,
    eco,
    external,
    fences,
    fr,
    internal,
    po,
    po_loc,
    reads,
    rf,
    rfe,
    rfi,
    rmw_pairs,
    writes,
)


def mp_graph() -> ExecutionGraph:
    """T0: W d 1; W f 1  |  T1: R f (from W f); R d (from init)."""
    g = ExecutionGraph(["d", "f"])
    g.add_write(0, WriteLabel(loc="d", value=1))
    wf = g.add_write(0, WriteLabel(loc="f", value=1))
    g.add_read(1, ReadLabel(loc="f"), wf)
    g.add_read(1, ReadLabel(loc="d"), g.init_write("d"))
    return g


class TestProgramOrder:
    def test_po_is_transitive_within_thread(self):
        g = mp_graph()
        a, b = g.thread_events(0)
        assert (a, b) in po(g)

    def test_po_excludes_cross_thread(self):
        g = mp_graph()
        assert not any(x.tid != y.tid for x, y in po(g).pairs())

    def test_po_loc_same_location_only(self):
        g = ExecutionGraph(["x", "y"])
        g.add_write(0, WriteLabel(loc="x", value=1))
        g.add_write(0, WriteLabel(loc="y", value=1))
        g.add_write(0, WriteLabel(loc="x", value=2))
        a, b, c = g.thread_events(0)
        rel = po_loc(g)
        assert (a, c) in rel and (a, b) not in rel


class TestCommunication:
    def test_rf_direction(self):
        g = mp_graph()
        wf = g.thread_events(0)[1]
        rff = g.thread_events(1)[0]
        assert (wf, rff) in rf(g)

    def test_rfe_vs_rfi(self):
        g = ExecutionGraph(["x"])
        w = g.add_write(0, WriteLabel(loc="x", value=1))
        g.add_read(0, ReadLabel(loc="x"), w)  # internal
        g.add_read(1, ReadLabel(loc="x"), w)  # external
        assert len(rfi(g)) == 1 and len(rfe(g)) == 1
        # reads from the initialisation write count as external
        g2 = mp_graph()
        assert all(p in rfe(g2) for p in rf(g2).pairs())

    def test_co_total_per_location(self):
        g = ExecutionGraph(["x"])
        g.add_write(0, WriteLabel(loc="x", value=1))
        g.add_write(1, WriteLabel(loc="x", value=2))
        assert co(g).is_total_on(g.writes("x"))

    def test_fr_from_init_read(self):
        g = mp_graph()
        rd = g.thread_events(1)[1]
        wd = g.thread_events(0)[0]
        assert (rd, wd) in fr(g)

    def test_fr_empty_for_co_max_read(self):
        g = mp_graph()
        rff = g.thread_events(1)[0]
        assert not [p for p in fr(g).pairs() if p[0] == rff]

    def test_eco_composes(self):
        g = mp_graph()
        rd = g.thread_events(1)[1]
        wd = g.thread_events(0)[0]
        assert (rd, wd) in eco(g)  # via fr
        assert (g.init_write("d"), wd) in eco(g)  # via co

    def test_external_internal_split(self):
        g = ExecutionGraph(["x"])
        w = g.add_write(0, WriteLabel(loc="x", value=1))
        g.add_read(0, ReadLabel(loc="x"), w)
        rel = rf(g)
        assert len(internal(rel)) == 1
        assert len(external(rel)) == 0


class TestEventSets:
    def test_reads_writes_fences(self):
        g = mp_graph()
        g.add_fence(0, FenceLabel(kind=FenceKind.SYNC))
        assert len(reads(g)) == 2
        assert len(writes(g)) == 4  # 2 inits + 2 stores
        assert len(fences(g)) == 1


class TestRmwAndDeps:
    def test_rmw_pairs(self):
        g = ExecutionGraph(["x"])
        r = g.add_read(0, ReadLabel(loc="x", exclusive=True), g.init_write("x"))
        w = g.add_write(0, WriteLabel(loc="x", value=1, exclusive=True))
        assert (r, w) in rmw_pairs(g)

    def test_dependency_kinds(self):
        g = ExecutionGraph(["x", "y"])
        r = g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        g.add_write(
            0,
            WriteLabel(loc="y", value=0, data_deps=frozenset([r])),
        )
        w = g.thread_events(0)[1]
        assert (r, w) in dependency(g, "d")
        assert (r, w) not in dependency(g, "a")
        assert (r, w) in dependency(g, "adc")
