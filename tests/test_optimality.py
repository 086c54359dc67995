"""Exploration-efficiency guarantees.

The paper's headline: the number of explored complete graphs tracks
the number of consistent executions, not the (exponentially larger)
number of interleavings.  These tests pin (a) zero duplicates on the
standard corpora for the porf-acyclic models, (b) bounded duplicate
overhead elsewhere (reported, suppressed), and (c) the exponential
separation against trace-based exploration.
"""

import pytest

from repro import verify
from repro.baselines.interleaving import explore_interleavings
from repro.baselines.storebuffer import explore_store_buffers
from repro.bench import workloads as W
from repro.litmus import all_litmus_tests


class TestNoDuplicatesOnCorpus:
    # jobs=1: duplicate-freedom is a property of the serial DFS; the
    # parallel engine legitimately reports cross-worker re-discoveries
    # as duplicates (docs/PARALLEL.md), so these pins must not be
    # routed through a REPRO_JOBS pool

    @pytest.mark.parametrize("model", ["sc", "tso", "ra", "rc11"])
    def test_litmus_corpus_duplicate_free(self, model):
        for test in all_litmus_tests():
            result = verify(test.program, model, stop_on_error=False, jobs=1)
            assert result.duplicates == 0, (test.name, model)

    @pytest.mark.parametrize("model", ["sc", "tso"])
    def test_workloads_duplicate_free_without_rmws(self, model):
        for program in (W.sb_n(3), W.readers(3), W.ninc(2), W.fib_bench(2)):
            result = verify(program, model, stop_on_error=False, jobs=1)
            assert result.duplicates == 0, (program.name, model)


class TestBoundedDuplicates:
    def test_rmw_heavy_duplicates_bounded(self):
        """RMW revisit chains may retread graphs; the overhead must stay
        within a small multiple of the useful work."""
        for program in (W.ainc(3), W.casrot(3)):
            result = verify(program, "imm", stop_on_error=False, jobs=1)
            assert result.duplicates <= result.executions, program.name

    def test_duplicates_reported_not_counted(self):
        result = verify(W.ainc(3), "imm", stop_on_error=False, jobs=1)
        assert result.executions == 24  # 3! orders x 4 checker reads
        assert result.explored == result.executions + result.duplicates


class TestSeparationFromTraces:
    def test_interleaving_blowup_sb(self):
        for n in (2, 3):
            program = W.sb_n(n)
            hmc = verify(program, "sc", stop_on_error=False)
            traces = explore_interleavings(program)
            assert hmc.executions < traces.traces
        # the gap widens with n
        gap2 = explore_interleavings(W.sb_n(2)).traces / 3
        gap3 = explore_interleavings(W.sb_n(3)).traces / 7
        assert gap3 > gap2

    def test_store_buffer_blowup_tso(self):
        program = W.sb_n(2)
        hmc = verify(program, "tso", stop_on_error=False)
        op = explore_store_buffers(program, "tso")
        assert op.traces >= 10 * hmc.executions

    def test_exploration_work_scales_with_executions(self):
        small = verify(W.sb_n(2), "tso", stop_on_error=False)
        large = verify(W.sb_n(3), "tso", stop_on_error=False)
        assert large.stats.events_added < 40 * small.stats.events_added
