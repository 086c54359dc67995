"""Tests for the state-hashing (stateful MC) baseline."""

from repro.baselines.interleaving import explore_interleavings
from repro.baselines.statehash import explore_with_state_hashing
from repro.bench.workloads import ninc, sb_n
from repro.lang import ProgramBuilder
from repro.litmus import get_litmus


class TestStateHashing:
    def test_final_states_match_interleaving(self):
        for program in (get_litmus("SB").program, sb_n(3), ninc(2)):
            st = explore_with_state_hashing(program)
            il = explore_interleavings(program)
            assert st.final_states == il.final_states, program.name

    def test_states_fewer_than_traces_on_diamonds(self):
        # sb(3): 90 traces but only 51 distinct states — the diamond
        # collapse stateful MC exists for
        program = sb_n(3)
        st = explore_with_state_hashing(program)
        il = explore_interleavings(program)
        assert st.states < il.traces

    def test_error_detection(self):
        p = ProgramBuilder("err")
        t = p.thread()
        a = t.load("x")
        t.assert_(a.eq(0), "saw it")
        p.thread().store("x", 1)
        result = explore_with_state_hashing(p.build())
        assert result.errors > 0

    def test_blocked_detection(self):
        p = ProgramBuilder("blocked")
        t = p.thread()
        a = t.load("x")
        t.assume(a.eq(1))
        p.thread().store("x", 1)
        result = explore_with_state_hashing(p.build())
        assert result.blocked > 0
        assert len(result.final_states) == 1

    def test_rmw_atomic(self):
        program = get_litmus("2xFAI").program
        result = explore_with_state_hashing(program)
        # final counter is always 2: no lost updates through the RMWs
        finals = {dict(f).get("c") for f in result.final_states}
        assert finals == {2}

    def test_converging_histories_merge(self):
        # two independent stores commute: 4 interleaving traces of the
        # two orders collapse into a diamond of 4 states (incl. start)
        p = ProgramBuilder("diamond")
        p.thread().store("x", 1)
        p.thread().store("y", 1)
        result = explore_with_state_hashing(p.build())
        assert result.states == 4
        assert result.terminal == 1


class TestCrossOracle:
    def test_final_states_match_hmc_on_random_programs(self):
        """Third oracle triangle: stateful MC's reachable final memory
        equals HMC's under SC.  The operational state only materialises
        written cells, and `final_state` only reports written cells, so
        the comparison is over the same domain modulo explicit zero
        writes — normalise by dropping zero-valued cells on both sides.
        """
        from repro import verify
        from repro.util.randprog import RandomProgramGenerator

        def nonzero(state):
            return tuple((k, v) for k, v in state if v != 0)

        gen = RandomProgramGenerator(
            seed=901, max_threads=2, max_stmts=3, with_fences=False
        )
        for program in gen.programs(10):
            st = explore_with_state_hashing(program)
            hmc = verify(program, "sc", stop_on_error=False)
            hmc_finals = {nonzero(state) for state in hmc.final_states}
            st_finals = {nonzero(state) for state in st.final_states}
            assert hmc_finals == st_finals, program.name
