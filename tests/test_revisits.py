"""Unit tests for the revisit machinery itself."""

from pathlib import Path

import pytest

import repro.models
from repro.bench.workloads import ainc, ticket_lock
from repro.core import ExplorationOptions, Explorer
from repro.core.result import Stats
from repro.core.revisits import (
    backward_revisits,
    maximally_added,
    replay_matches,
    revisit_candidates,
)
from repro.events import ReadLabel, WriteLabel
from repro.graphs import ExecutionGraph, canonical_key, revisit_kept_set
from repro.lang import ProgramBuilder
from repro.litmus import all_litmus_tests
from repro.models import get_model, load_cat, model_names
from repro.util.randprog import RandomProgramGenerator


def lb_program():
    p = ProgramBuilder("LB")
    t1 = p.thread(); t1.load("x"); t1.store("y", 1)
    t2 = p.thread(); t2.load("y"); t2.store("x", 1)
    return p.build()


def lb_graph_before_last_write():
    """LB after adding: R x(init); W y; R y(from W y) — then W x arrives."""
    g = ExecutionGraph(["x", "y"])
    g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
    wy = g.add_write(0, WriteLabel(loc="y", value=1))
    g.add_read(1, ReadLabel(loc="y"), wy)
    wx = g.add_write(1, WriteLabel(loc="x", value=1))
    return g, wx


class TestCandidates:
    def test_porf_prefix_blocks_lb_revisit(self):
        g, wx = lb_graph_before_last_write()
        candidates, _ = revisit_candidates(g, wx, get_model("rc11"))
        assert candidates == []  # the x-read is porf-before the write

    def test_dependency_prefix_allows_lb_revisit(self):
        g, wx = lb_graph_before_last_write()
        candidates, _ = revisit_candidates(g, wx, get_model("imm"))
        assert candidates == g.reads("x")

    def test_own_exclusive_read_never_a_candidate(self):
        g = ExecutionGraph(["x"])
        g.add_read(0, ReadLabel(loc="x", exclusive=True), g.init_write("x"))
        w = g.add_write(0, WriteLabel(loc="x", value=1, exclusive=True))
        candidates, _ = revisit_candidates(g, w, get_model("imm"))
        assert candidates == []


class TestMaximality:
    def test_read_of_co_max_is_maximal(self):
        g = ExecutionGraph(["x"])
        w = g.add_write(0, WriteLabel(loc="x", value=1))
        r = g.add_read(1, ReadLabel(loc="x"), w)
        assert maximally_added(g, r)

    def test_read_of_older_write_not_maximal(self):
        g = ExecutionGraph(["x"])
        g.add_write(0, WriteLabel(loc="x", value=1))
        r = g.add_read(1, ReadLabel(loc="x"), g.init_write("x"))
        assert not maximally_added(g, r)

    def test_co_max_write_is_maximal(self):
        g = ExecutionGraph(["x"])
        w = g.add_write(0, WriteLabel(loc="x", value=1))
        assert maximally_added(g, w)

    def test_write_passed_by_older_write_not_maximal(self):
        g = ExecutionGraph(["x"])
        g.add_write(0, WriteLabel(loc="x", value=1))
        w2 = g.add_write(1, WriteLabel(loc="x", value=2), co_index=1)
        assert not maximally_added(g, w2)  # the older write sits co-after

    def test_later_write_placed_before_does_not_disqualify(self):
        g = ExecutionGraph(["x"])
        w1 = g.add_write(0, WriteLabel(loc="x", value=1))
        g.add_write(1, WriteLabel(loc="x", value=2), co_index=1)
        assert maximally_added(g, w1)  # judged against *older* events only

    def test_fences_always_maximal(self):
        from repro.events import FenceLabel

        g = ExecutionGraph(["x"])
        f = g.add_fence(0, FenceLabel())
        assert maximally_added(g, f)


class TestBackwardRevisits:
    def test_lb_revisit_produced_under_imm(self):
        program = lb_program()
        g, wx = lb_graph_before_last_write()
        out = backward_revisits(
            [g], wx, program, get_model("imm"), ExplorationOptions(), Stats()
        )
        assert len(out) == 1
        revisited = out[0]
        rx = revisited.reads("x")[0]
        assert revisited.rf(rx) == wx
        # the revisited read was re-stamped to the end
        assert revisited.events_by_stamp()[-1] == rx

    def test_lb_revisit_blocked_under_rc11(self):
        program = lb_program()
        g, wx = lb_graph_before_last_write()
        stats = Stats()
        out = backward_revisits(
            [g], wx, program, get_model("rc11"), ExplorationOptions(), stats
        )
        assert out == []
        assert stats.revisits_rejected_prefix > 0

    def test_replay_validation_rejects_value_dependent_keeps(self):
        """If the kept suffix depends on the revisited read's value, the
        revisit is invalid and must be dropped."""
        p = ProgramBuilder("dep")
        t1 = p.thread()
        a = t1.load("x")
        t1.store("y", a)  # data-dependent
        t2 = p.thread()
        t2.load("y")
        t2.store("x", 1)
        program = p.build()

        g = ExecutionGraph(["x", "y"])
        g.add_read(0, ReadLabel(loc="x"), g.init_write("x"))
        wy = g.add_write(0, WriteLabel(loc="y", value=0))
        g.add_read(1, ReadLabel(loc="y"), wy)
        wx = g.add_write(1, WriteLabel(loc="x", value=1))
        # under coherence-only the read is outside the prefix ONLY if
        # deps are ignored; simulate a too-weak prefix via a stub model
        model = get_model("coherence")

        class NoDepPrefix(type(model)):
            def prefix_preds(self, graph, ev):
                out = []
                if graph.label(ev).is_read:
                    src = graph.rf(ev)
                    if not src.is_initial:
                        out.append(src)
                return out

        stats = Stats()
        out = backward_revisits(
            [g], wx, program, NoDepPrefix(), ExplorationOptions(), stats
        )
        assert out == []
        assert stats.revisits_rejected_replay > 0

    def test_replay_matches_on_valid_graph(self):
        program = lb_program()
        g, _ = lb_graph_before_last_write()
        assert replay_matches(program, g)


# -- one call per write against one call per placement ----------------------


class _Recorder:
    """An observer stand-in that keeps every record and observation."""

    enabled = trace_enabled = True

    def __init__(self):
        self.records = []

    def emit(self, type_, **fields):
        self.records.append((type_, fields))

    def observe(self, name, value):
        self.records.append((name, value))


def per_placement_revisits(graph, write, program, model, options, stats, obs):
    """The reference: the revisits of one placement graph on its own,
    each candidate's graph built and checked afresh."""
    out = []
    candidates, _ = revisit_candidates(graph, write, model)
    reads = graph.reads(graph.label(write).location)
    stats.revisits_considered += len(reads)
    stats.revisits_rejected_prefix += len(reads) - len(candidates)
    wref = [write.tid, write.index]
    for read in reads:
        rref = [read.tid, read.index]
        obs.emit("revisit_considered", read=rref, write=wref)
        if read not in candidates:
            obs.emit("revisit_rejected", read=rref, write=wref, reason="prefix")
    for read in candidates:
        rref = [read.tid, read.index]
        kept = revisit_kept_set(graph, write, read)
        deleted = [e for e in graph.events() if e not in kept]
        if options.maximality_check and not all(
            maximally_added(graph, e) for e in deleted
        ):
            stats.revisits_rejected_maximality += 1
            obs.emit(
                "revisit_rejected", read=rref, write=wref, reason="maximality"
            )
            continue
        revisited = graph.restricted(kept)
        revisited.set_rf(read, write)
        revisited.touch(read)
        revisited.renumber_stamps()
        if options.validate_revisits and not replay_matches(program, revisited):
            stats.revisits_rejected_replay += 1
            obs.emit("revisit_rejected", read=rref, write=wref, reason="replay")
            continue
        stats.consistency_checks += 1
        if not model.is_consistent(revisited):
            stats.revisits_rejected_inconsistent += 1
            obs.emit(
                "revisit_rejected", read=rref, write=wref, reason="inconsistent"
            )
            continue
        stats.revisits_performed += 1
        obs.observe("revisit_deleted", len(deleted))
        obs.emit(
            "revisit_performed", read=rref, write=wref, deleted=len(deleted)
        )
        out.append(revisited)
    return out


def _memo_key(graph):
    """The explorer's revisit-memo key."""
    return (
        canonical_key(graph),
        tuple((e.tid, e.index) for e in graph.events_by_stamp()),
    )


class PerPlacementCheck(Explorer):
    """An explorer that, at every write step, runs the one call over
    all placements and the per-placement reference side by side: the
    output must be the reference's with repeats dropped, and the
    counters and records the same but for the checks a twin skips."""

    saved_checks = 0

    def _collect_revisits(self, placements, successors):
        graphs = [extended for extended, _, _ in placements]
        write = placements[0][1]
        first = graphs[0]
        candidates = revisit_candidates(first, write, self.model)
        for graph in graphs[1:]:
            assert revisit_candidates(graph, write, self.model) == candidates
            for read in candidates[0]:
                assert revisit_kept_set(graph, write, read) == (
                    revisit_kept_set(first, write, read)
                )
        args = (self.program, self.model, self.options)
        stats, obs = Stats(), _Recorder()
        out = backward_revisits(graphs, write, *args, stats, obs)
        ref_stats, ref_obs = Stats(), _Recorder()
        ref = []
        for graph in graphs:
            ref += per_placement_revisits(
                graph, write, *args, ref_stats, ref_obs
            )
        assert [_memo_key(g) for g in out] == list(
            dict.fromkeys(map(_memo_key, ref))
        )
        assert obs.records == ref_obs.records
        saved = ref_stats.consistency_checks - stats.consistency_checks
        assert saved >= 0
        ref_stats.consistency_checks = stats.consistency_checks
        assert stats == ref_stats
        self.saved_checks += saved
        return super()._collect_revisits(placements, successors)


CAT_DIR = Path(repro.models.__file__).parent / "cat"


def _differential_programs():
    programs = [test.program for test in all_litmus_tests()]
    for seed in (5, 17, 29):
        generator = RandomProgramGenerator(
            seed=seed, max_threads=3, max_stmts=4
        )
        programs += generator.programs(4)
    return programs


DIFFERENTIAL_PROGRAMS = _differential_programs()


class TestOneCallPerWrite:
    @pytest.mark.parametrize(
        "model",
        model_names() + sorted(p.name for p in CAT_DIR.glob("*.cat")),
    )
    def test_matches_per_placement_reference(self, model):
        if model.endswith(".cat"):
            model = load_cat(str(CAT_DIR / model))
        saved = 0
        for program in DIFFERENTIAL_PROGRAMS:
            explorer = PerPlacementCheck(
                program, model, ExplorationOptions(stop_on_error=False)
            )
            explorer.run()
            saved += explorer.saved_checks
        # the corpus has twins under every model
        assert saved > 0

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"maximality_check": False}, {"validate_revisits": False}],
        ids=["default", "no-maximality", "no-replay"],
    )
    @pytest.mark.parametrize(
        "program,model",
        [(ainc(3), "imm"), (ticket_lock(2), "sc"), (ticket_lock(2), "armv8")],
        ids=["ainc(3)/imm", "ticket-lock(2)/sc", "ticket-lock(2)/armv8"],
    )
    def test_families_and_ablations(self, program, model, overrides):
        options = ExplorationOptions(stop_on_error=False, **overrides)
        explorer = PerPlacementCheck(program, model, options)
        result = explorer.run()
        assert result.executions > 0
        assert explorer.saved_checks > 0
        # the wrapper only checks: it explores as the explorer does
        plain = Explorer(program, model, options).run()
        assert (result.executions, result.blocked, result.duplicates) == (
            plain.executions,
            plain.blocked,
            plain.duplicates,
        )
