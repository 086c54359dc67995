"""Unit and behavioural tests for the HMC explorer."""

import pytest

from repro import ExplorationOptions, Explorer, count_executions, verify
from repro.bench.workloads import (
    ainc,
    barrier,
    fib_bench,
    lastzero,
    peterson,
    sb_n,
    seqlock,
    ticket_lock,
)
from repro.lang import ProgramBuilder


def sb():
    p = ProgramBuilder("SB")
    t1 = p.thread(); t1.store("x", 1); a = t1.load("y")
    t2 = p.thread(); t2.store("y", 1); b = t2.load("x")
    p.observe(a, b)
    return p.build()


def lb():
    p = ProgramBuilder("LB")
    t1 = p.thread(); a = t1.load("x"); t1.store("y", 1)
    t2 = p.thread(); b = t2.load("y"); t2.store("x", 1)
    p.observe(a, b)
    return p.build()


class TestCounts:
    def test_sb_counts_per_model(self):
        assert count_executions(sb(), "sc") == 3
        for model in ("tso", "pso", "ra", "rc11", "imm", "armv8", "power"):
            assert count_executions(sb(), model) == 4, model

    def test_lb_counts_per_model(self):
        for model in ("sc", "tso", "rc11"):
            assert count_executions(lb(), model) == 3, model
        for model in ("imm", "armv8", "power", "coherence"):
            assert count_executions(lb(), model) == 4, model

    def test_single_thread_single_execution(self):
        p = ProgramBuilder("seq")
        t = p.thread()
        t.store("x", 1)
        a = t.load("x")
        p.observe(a)
        result = verify(p.build(), "sc", stop_on_error=False)
        assert result.executions == 1
        assert result.outcomes == {((f"{a.name}@0", 1),): 1}

    def test_empty_program(self):
        p = ProgramBuilder("empty")
        p.thread()
        assert count_executions(p.build(), "sc") == 1


class TestOutcomesAndStates:
    def test_sb_outcomes(self):
        result = verify(sb(), "tso", stop_on_error=False)
        values = {tuple(v for _, v in key) for key in result.outcomes}
        assert values == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_final_states(self):
        result = verify(sb(), "sc", stop_on_error=False)
        assert set(result.final_states) == {(("x", 1), ("y", 1))}

    def test_summary_mentions_counts(self):
        result = verify(sb(), "sc", stop_on_error=False)
        assert "executions: 3" in result.summary()


class TestErrors:
    def error_prog(self):
        p = ProgramBuilder("err")
        t1 = p.thread()
        t1.store("x", 1)
        t2 = p.thread()
        a = t2.load("x")
        t2.assert_(a.eq(0), "saw the store")
        return p.build()

    def test_error_reported_with_witness(self):
        result = verify(self.error_prog(), "sc")
        assert not result.ok
        assert result.errors[0].message == "saw the store"
        assert result.errors[0].thread == 1
        assert "thread 1" in result.errors[0].witness

    def test_stop_on_error_halts(self):
        result = verify(self.error_prog(), "sc", stop_on_error=True)
        assert result.truncated
        assert len(result.errors) == 1

    def test_keep_going_counts_all(self):
        result = verify(self.error_prog(), "sc", stop_on_error=False)
        assert len(result.errors) == 1  # one erroneous execution
        assert result.executions == 1  # plus the safe one (read 0)

    def test_assume_blocks_execution(self):
        p = ProgramBuilder("blocked")
        t1 = p.thread()
        a = t1.load("x")
        t1.assume(a.eq(1))
        t2 = p.thread()
        t2.store("x", 1)
        result = verify(p.build(), "sc", stop_on_error=False)
        assert result.executions == 1  # read 1
        assert result.blocked == 1  # read 0 then blocked


class TestOptions:
    def test_max_executions_truncates(self):
        result = verify(sb(), "tso", stop_on_error=False, max_executions=2)
        assert result.executions == 2 and result.truncated

    def test_no_backward_revisits_loses_executions(self):
        full = count_executions(sb(), "tso")
        partial = count_executions(sb(), "tso", backward_revisits=False)
        assert partial < full

    def test_no_maximality_same_set_more_work(self):
        base = verify(sb(), "tso", stop_on_error=False, collect_executions=True)
        loose = verify(
            sb(),
            "tso",
            stop_on_error=False,
            collect_executions=True,
            maximality_check=False,
        )
        from repro.graphs import canonical_key

        k1 = {canonical_key(g) for g in base.execution_graphs}
        k2 = {canonical_key(g) for g in loose.execution_graphs}
        assert k1 == k2
        assert loose.duplicates >= base.duplicates

    def test_incremental_off_same_counts(self):
        a = count_executions(sb(), "tso")
        b = count_executions(sb(), "tso", incremental_checks=False)
        assert a == b

    def test_options_and_overrides_conflict(self):
        with pytest.raises(ValueError):
            verify(sb(), "sc", options=ExplorationOptions(), stop_on_error=False)

    def test_explorer_accepts_model_instance(self):
        from repro.models import TSO

        result = Explorer(sb(), TSO()).run()
        assert result.model == "tso"

    def test_stats_populated(self):
        result = verify(sb(), "tso", stop_on_error=False)
        stats = result.stats.as_dict()
        assert stats["reads_added"] > 0
        assert stats["writes_added"] > 0
        assert stats["revisits_considered"] > 0


class TestDeterminism:
    def test_runs_are_reproducible(self):
        r1 = verify(sb(), "imm", stop_on_error=False)
        r2 = verify(sb(), "imm", stop_on_error=False)
        assert r1.executions == r2.executions
        assert r1.duplicates == r2.duplicates
        assert r1.outcomes == r2.outcomes


#: ``Stats.as_dict()`` keys, in order, for the pinned rows below
STATS_FIELDS = (
    "events_added", "reads_added", "writes_added", "rf_candidates",
    "co_positions", "revisits_considered", "revisits_performed",
    "revisits_rejected_prefix", "revisits_rejected_maximality",
    "revisits_rejected_replay", "revisits_rejected_inconsistent",
    "consistency_checks",
)

#: The deep-verify benchmark corpus: program, model, verify() options,
#: (executions, blocked, duplicates, errors) and the Stats counters in
#: STATS_FIELDS order.  Blocked, duplicate and counter values depend on
#: the order the explorer visits graphs in, so a change that reorders
#: the search (however correct) must update these numbers on purpose.
VISITING_ORDER_PINS = {
    "seqlock(2,2)/rc11": (
        seqlock(2, 2), "rc11", {}, (9, 4484, 0, 1),
        (2882, 2872, 10, 12150, 22, 48, 2, 45, 0, 0, 1, 12174),
    ),
    "fib(3)/tso": (
        fib_bench(3), "tso", {}, (175, 0, 0, 0),
        (530, 270, 260, 828, 714, 4027, 161, 3591, 0, 0, 275, 1978),
    ),
    "ticket-lock(3)/sc": (
        ticket_lock(3), "sc", {}, (6, 53, 6, 0),
        (245, 107, 138, 248, 315, 753, 69, 616, 21, 0, 47, 647),
    ),
    "barrier(3)/ra": (
        barrier(3), "ra", {}, (6, 113, 14, 0),
        (551, 464, 87, 1209, 230, 945, 122, 504, 45, 0, 274, 1781),
    ),
    "ainc(4)/imm": (
        ainc(4), "imm", {}, (120, 0, 85, 0),
        (307, 89, 218, 355, 742, 2816, 368, 1889, 0, 0, 559, 1713),
    ),
    "ticket-lock(3)/imm": (
        ticket_lock(3), "imm", {"stop_on_error": False}, (36, 97, 36, 96),
        (471, 208, 263, 604, 671, 1767, 79, 1526, 105, 0, 57, 1379),
    ),
    "lastzero(3)/armv8": (
        lastzero(3), "armv8", {}, (32, 0, 12, 0),
        (83, 39, 44, 53, 44, 55, 51, 0, 4, 0, 0, 148),
    ),
    "peterson(plain)/power": (
        peterson(False), "power", {"stop_on_error": False}, (32, 10, 0, 22),
        (147, 74, 73, 209, 136, 121, 31, 60, 0, 0, 30, 406),
    ),
    "sb(5)/pso": (
        sb_n(5), "pso", {}, (32, 0, 0, 0),
        (47, 31, 16, 47, 16, 15, 15, 0, 0, 0, 0, 78),
    ),
}


class TestVisitingOrder:
    """Pin what the serial explorer does, not only what it finds."""

    @pytest.mark.parametrize(
        "program,model,options,counts,stats",
        list(VISITING_ORDER_PINS.values()),
        ids=list(VISITING_ORDER_PINS),
    )
    def test_counts_and_stats_are_pinned(
        self, program, model, options, counts, stats
    ):
        # jobs=1: REPRO_JOBS must not shard the search
        result = verify(program, model, jobs=1, **options)
        assert (
            result.executions,
            result.blocked,
            result.duplicates,
            len(result.errors),
        ) == counts
        assert result.stats.as_dict() == dict(zip(STATS_FIELDS, stats))
