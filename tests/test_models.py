"""Unit tests for the memory-model layer on hand-built graphs."""

import pytest

from repro.events import (
    Event,
    FenceKind,
    FenceLabel,
    MemOrder,
    ReadLabel,
    WriteLabel,
)
from repro.graphs import ExecutionGraph
from repro.models import all_models, get_model, model_names
from repro.models.common import (
    acquire_release_po,
    atomicity_ok,
    fence_ordered_po,
    fence_orders,
    hardware_prefix_preds,
    sc_per_location,
)


class TestRegistry:
    def test_all_models_present(self):
        assert model_names() == [
            "armv8", "coherence", "imm", "power", "pso",
            "ra", "rc11", "sc", "tso",
        ]

    def test_lookup_case_insensitive(self):
        assert get_model("TSO").name == "tso"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model("x86-but-wrong")

    def test_porf_acyclicity_flags(self):
        porf_acyclic = {m.name for m in all_models() if m.porf_acyclic}
        assert porf_acyclic == {"sc", "tso", "pso", "ra", "rc11"}


def sb_graph(stale_both: bool) -> ExecutionGraph:
    """SB with both reads stale (the relaxed outcome) or one fresh."""
    g = ExecutionGraph(["x", "y"])
    wx = g.add_write(0, WriteLabel(loc="x", value=1))
    g.add_read(0, ReadLabel(loc="y"), g.init_write("y"))
    g.add_write(1, WriteLabel(loc="y", value=1))
    g.add_read(
        1, ReadLabel(loc="x"), g.init_write("x") if stale_both else wx
    )
    return g


def coherence_violation() -> ExecutionGraph:
    """A read observing a po-later same-location write."""
    g = ExecutionGraph(["x"])
    g.ensure_location("x")
    # build manually: R x then W x in one thread, read from own later write
    w_label = WriteLabel(loc="x", value=1)
    g._labels[Event(0, 0)] = ReadLabel(loc="x")
    g._labels[Event(0, 1)] = w_label
    g._threads[0] = [Event(0, 0), Event(0, 1)]
    g._stamp[Event(0, 0)] = 100
    g._stamp[Event(0, 1)] = 101
    g._co["x"].append(Event(0, 1))
    g._rf[Event(0, 0)] = Event(0, 1)
    return g


def _coww():
    g = ExecutionGraph(["x"])
    g.add_write(0, WriteLabel(loc="x", value=1))
    return g, lambda c: c.add_write(0, WriteLabel(loc="x", value=2), 1)


def _cowr():
    g = ExecutionGraph(["x"])
    g.add_write(0, WriteLabel(loc="x", value=1))
    return g, lambda c: c.add_read(0, ReadLabel(loc="x"), c.init_write("x"))


def _corw1():
    # only an rf redirect (a revisit) makes a read see its own
    # thread's po-later write, so this child takes a cut lineage
    g = ExecutionGraph(["x"])
    r = g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
    w = g.add_write(0, WriteLabel(loc="x", value=1))
    return g, lambda c: c.set_rf(r, w)


def _corw2():
    g = ExecutionGraph(["x"])
    w = g.add_write(1, WriteLabel(loc="x", value=2))
    g.add_read(0, ReadLabel(loc="x"), w)
    return g, lambda c: c.add_write(0, WriteLabel(loc="x", value=1), 1)


def _corr():
    g = ExecutionGraph(["x"])
    w1 = g.add_write(1, WriteLabel(loc="x", value=1))
    w2 = g.add_write(1, WriteLabel(loc="x", value=2))
    g.add_read(0, ReadLabel(loc="x"), w2)
    return g, lambda c: c.add_read(0, ReadLabel(loc="x"), w1)


#: herd's five SC-PER-LOCATION shapes, each as a consistent parent and
#: the mutation that closes the cycle
CO_SHAPES = {
    "CoWW": _coww,
    "CoWR": _cowr,
    "CoRW1": _corw1,
    "CoRW2": _corw2,
    "CoRR": _corr,
}


class TestCommonAxioms:
    def test_sc_per_location_accepts_sb(self):
        assert sc_per_location(sb_graph(True))

    def test_sc_per_location_rejects_corw(self):
        assert not sc_per_location(coherence_violation())
        for name, shape in CO_SHAPES.items():
            fresh, close = shape()
            close(fresh)
            assert not sc_per_location(fresh), name
            parent, close = shape()
            assert sc_per_location(parent), name
            child = parent.copy()
            close(child)
            assert not sc_per_location(child), name
            assert sc_per_location(parent), name

    def test_atomicity_accepts_adjacent(self):
        g = ExecutionGraph(["x"])
        r = g.add_read(0, ReadLabel(loc="x", exclusive=True), g.init_write("x"))
        g.add_write(0, WriteLabel(loc="x", value=1, exclusive=True))
        assert atomicity_ok(g)

    def test_atomicity_rejects_intervening_write(self):
        g = ExecutionGraph(["x"])
        g.add_read(0, ReadLabel(loc="x", exclusive=True), g.init_write("x"))
        g.add_write(1, WriteLabel(loc="x", value=9))  # squeezes in at co 1
        g.add_write(0, WriteLabel(loc="x", value=1, exclusive=True))
        assert not atomicity_ok(g)

    def test_every_model_shares_coherence(self):
        bad = coherence_violation()
        for model in all_models():
            assert not model.is_consistent(bad), model.name


class TestModelSeparation:
    """SB with both reads stale is *the* separating example."""

    def test_sc_rejects_relaxed_sb(self):
        assert not get_model("sc").is_consistent(sb_graph(True))

    def test_sc_accepts_sequential_sb(self):
        assert get_model("sc").is_consistent(sb_graph(False))

    @pytest.mark.parametrize(
        "name", ["tso", "pso", "ra", "rc11", "imm", "armv8", "power", "coherence"]
    )
    def test_weak_models_accept_relaxed_sb(self, name):
        assert get_model(name).is_consistent(sb_graph(True))


class TestFenceOrders:
    def test_full_fences_order_everything(self):
        for before in "RW":
            for after in "RW":
                assert fence_orders(FenceKind.SYNC, MemOrder.SC, before, after)
                assert fence_orders(FenceKind.MFENCE, MemOrder.SC, before, after)

    def test_lwsync_skips_store_load(self):
        assert not fence_orders(FenceKind.LWSYNC, MemOrder.SC, "W", "R")
        assert fence_orders(FenceKind.LWSYNC, MemOrder.SC, "R", "R")
        assert fence_orders(FenceKind.LWSYNC, MemOrder.SC, "W", "W")

    def test_dmb_variants(self):
        assert fence_orders(FenceKind.DMB_LD, MemOrder.SC, "R", "W")
        assert not fence_orders(FenceKind.DMB_LD, MemOrder.SC, "W", "W")
        assert fence_orders(FenceKind.DMB_ST, MemOrder.SC, "W", "W")
        assert not fence_orders(FenceKind.DMB_ST, MemOrder.SC, "W", "R")

    def test_c11_fence_orders_by_strength(self):
        assert fence_orders(FenceKind.C11, MemOrder.SC, "W", "R")
        assert fence_orders(FenceKind.C11, MemOrder.ACQ, "R", "W")
        assert not fence_orders(FenceKind.C11, MemOrder.ACQ, "W", "W")
        assert fence_orders(FenceKind.C11, MemOrder.REL, "W", "W")
        assert not fence_orders(FenceKind.C11, MemOrder.REL, "W", "R")
        assert not fence_orders(FenceKind.C11, MemOrder.RLX, "W", "W")


def _two_fence_program():
    """Each thread orders its read before its write by the nearer of
    two fences only: the farther one orders nothing of the pair."""
    from repro.lang import ProgramBuilder

    p = ProgramBuilder("LB+dmbst+sync")
    for src, dst in (("x", "y"), ("y", "x")):
        t = p.thread()
        t.load(src)
        t.fence(FenceKind.DMB_ST)
        t.fence(FenceKind.SYNC)
        t.store(dst, 1)
    return p.build()


def _hardware_prefix_oracle(graph, ev, annotations):
    """hardware_prefix_preds as a union of separately computed parts."""
    lab = graph.label(ev)
    preds = {d for d in lab.addr_deps | lab.data_deps if d in graph}
    if isinstance(lab, ReadLabel) and not graph.rf(ev).is_initial:
        preds.add(graph.rf(ev))
    if isinstance(lab, WriteLabel):
        preds |= {d for d in lab.ctrl_deps if d in graph}
        if lab.exclusive and graph.exclusive_pair(ev) is not None:
            preds.add(graph.exclusive_pair(ev))
    if ev.is_initial or not lab.is_access:
        return preds
    for p in graph.thread_events(ev.tid)[: ev.index]:
        plab = graph.label(p)
        if plab.is_access and plab.location == lab.location:
            preds.add(p)
    ordered = fence_ordered_po(graph)
    if annotations:
        ordered = ordered | acquire_release_po(graph)
    return preds | {a for a, b in ordered.pairs() if b == ev}


class TestHardwarePrefix:
    def test_independent_po_pred_absent(self):
        g = ExecutionGraph(["x", "y"])
        g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        w = g.add_write(0, WriteLabel(loc="y", value=1))
        preds = hardware_prefix_preds(g, w)
        assert preds == []  # no dep, different location: reorderable

    def test_data_dependent_pred_present(self):
        g = ExecutionGraph(["x", "y"])
        r = g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        w = g.add_write(
            0, WriteLabel(loc="y", value=0, data_deps=frozenset([r]))
        )
        assert r in hardware_prefix_preds(g, w)

    def test_same_location_pred_present(self):
        g = ExecutionGraph(["x"])
        r = g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        w = g.add_write(0, WriteLabel(loc="x", value=1))
        assert r in hardware_prefix_preds(g, w)

    def test_fence_between_orders(self):
        g = ExecutionGraph(["x", "y"])
        r = g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        g.add_fence(0, FenceLabel(kind=FenceKind.SYNC))
        w = g.add_write(0, WriteLabel(loc="y", value=1))
        assert r in hardware_prefix_preds(g, w)

    def test_release_write_ordered_after_everything(self):
        g = ExecutionGraph(["x", "y"])
        r = g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        w = g.add_write(0, WriteLabel(loc="y", value=1, order=MemOrder.REL))
        assert r in hardware_prefix_preds(g, w)
        # ... unless the model ignores annotations (POWER)
        assert r not in hardware_prefix_preds(g, w, annotations=False)

    def test_rf_source_always_present(self):
        g = ExecutionGraph(["x"])
        w = g.add_write(0, WriteLabel(loc="x", value=1))
        r = g.add_read(1, ReadLabel(loc="x"), w)
        assert w in hardware_prefix_preds(g, r)

    @pytest.mark.parametrize("model", ["imm", "armv8", "power"])
    def test_one_pass_matches_relation_oracle(self, model):
        """The backward pass equals the union of its parts, with the
        fence part read off ``fence_ordered_po`` and the annotated part
        off ``acquire_release_po``, for every event of every execution
        of the litmus catalog and of generated programs."""
        from repro import verify
        from repro.litmus import all_litmus_tests
        from repro.util.randprog import RandomProgramGenerator

        programs = [test.program for test in all_litmus_tests()]
        programs += RandomProgramGenerator(seed=11, max_stmts=4).programs(12)
        programs.append(_two_fence_program())
        checked = 0
        for program in programs:
            result = verify(
                program, model, stop_on_error=False, collect_executions=True
            )
            for graph in result.execution_graphs:
                # a restriction starts with empty caches: the relations
                # below are built from scratch
                fresh = graph.restricted(graph.events())
                for ev in fresh.events():
                    for annotations in (True, False):
                        got = hardware_prefix_preds(fresh, ev, annotations)
                        want = _hardware_prefix_oracle(fresh, ev, annotations)
                        assert set(got) == want, (program.name, ev)
                        checked += 1
        assert checked > 1000
