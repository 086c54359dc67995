"""Tests for the baseline explorers, including the three-way
cross-validation (axiomatic vs operational vs HMC) on litmus tests."""

import pytest

from repro import verify
from repro.baselines.dpor import explore_dpor
from repro.baselines.exhaustive import brute_force
from repro.baselines.interleaving import explore_interleavings
from repro.baselines.storebuffer import explore_store_buffers
from repro.graphs import canonical_key
from repro.lang import ProgramBuilder
from repro.litmus import get_litmus


def hmc_keys(program, model):
    result = verify(program, model, stop_on_error=False, collect_executions=True)
    return {canonical_key(g) for g in result.execution_graphs}, result


def sb():
    return get_litmus("SB").program


def mp():
    return get_litmus("MP").program


class TestInterleaving:
    def test_sb_traces_exceed_executions(self):
        result = explore_interleavings(sb())
        assert result.traces == 6
        assert result.executions == 3

    def test_matches_hmc_under_sc(self):
        for program in (sb(), mp(), get_litmus("2xFAI").program):
            il = explore_interleavings(program)
            keys, _ = hmc_keys(program, "sc")
            assert il.keys == keys, program.name

    def test_error_detection(self):
        p = ProgramBuilder("err")
        t = p.thread()
        a = t.load("x")
        t.assert_(a.eq(0))
        t2 = p.thread()
        t2.store("x", 1)
        result = explore_interleavings(p.build())
        assert result.errors > 0

    def test_max_traces_cap(self):
        result = explore_interleavings(sb(), max_traces=2)
        assert result.traces == 2


class TestDpor:
    def test_fewer_traces_than_interleaving(self):
        il = explore_interleavings(sb())
        dp = explore_dpor(sb())
        assert dp.traces <= il.traces
        assert dp.slept > 0

    def test_same_executions_as_hmc(self):
        for program in (sb(), mp()):
            dp = explore_dpor(program)
            keys, _ = hmc_keys(program, "sc")
            assert dp.keys == keys, program.name

    def test_independent_threads_single_trace(self):
        p = ProgramBuilder("indep")
        p.thread().store("x", 1)
        p.thread().store("y", 1)
        dp = explore_dpor(p.build())
        assert dp.traces < explore_interleavings(p.build()).traces


class TestStoreBuffer:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            explore_store_buffers(sb(), "armv8")

    def test_tso_matches_hmc(self):
        for program in (sb(), mp()):
            op = explore_store_buffers(program, "tso")
            keys, _ = hmc_keys(program, "tso")
            assert op.keys == keys, program.name

    def test_pso_matches_hmc(self):
        for program in (sb(), mp()):
            op = explore_store_buffers(program, "pso")
            keys, _ = hmc_keys(program, "pso")
            assert op.keys == keys, program.name

    def test_pso_reorders_stores_tso_does_not(self):
        tso = explore_store_buffers(mp(), "tso")
        pso = explore_store_buffers(mp(), "pso")
        assert len(pso.keys) > len(tso.keys)

    def test_state_space_larger_than_graphs(self):
        op = explore_store_buffers(sb(), "tso")
        assert op.traces > op.executions

    def test_rmw_flushes_buffer(self):
        program = get_litmus("2xFAI").program
        op = explore_store_buffers(program, "tso")
        keys, _ = hmc_keys(program, "tso")
        assert op.keys == keys


class TestBruteForce:
    def test_litmus_counts(self):
        assert brute_force(sb(), "sc").executions == 3
        assert brute_force(sb(), "tso").executions == 4

    def test_blocked_and_errors_counted(self):
        p = ProgramBuilder("b")
        t = p.thread()
        a = t.load("x")
        t.assume(a.eq(1))
        p.thread().store("x", 1)
        result = brute_force(p.build(), "sc")
        assert result.blocked > 0 and result.executions == 1

    def test_budget_guard(self):
        p = ProgramBuilder("big")
        for _ in range(3):
            t = p.thread()
            for v in (1, 2, 3):
                t.store("x", v)
                t.load("x")
        with pytest.raises(RuntimeError):
            brute_force(p.build(), "sc", max_candidates=10)

    def test_value_domain_fixpoint(self):
        from repro.baselines.exhaustive import _value_domain

        p = ProgramBuilder("chain")
        t = p.thread()
        a = t.load("x")
        t.store("x", a + 1)
        domain = _value_domain(p.build())
        assert 0 in domain and 1 in domain
