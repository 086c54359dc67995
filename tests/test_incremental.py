"""Incremental consistency checking: delta logs, cache hand-off across
graph copies, the Pearce–Kelly-style acyclicity checker, and the
differential guarantees (incremental verdicts and relations bit-identical
to from-scratch computation, serial and parallel, hand-coded and .cat
models).  Also pins the satellite bugfixes: ``atomicity_ok`` on
``from_parts`` graphs with inconsistent inputs, the heap-based
``topological_sort`` order, and the monotonic version lineage across
``copy()``.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ProgramBuilder, verify
from repro.cat import CatModel
from repro.events import Event, ReadLabel, WriteLabel
from repro.graphs import ExecutionGraph
from repro.graphs.derived import (
    co,
    eco,
    fr,
    graph_cached,
    po,
    po_loc,
    rf,
    rmw_pairs,
)
from repro.graphs.incremental import (
    AcyclicFamily,
    IncrementalMismatch,
    _eco_successors,
    acyclic_check,
    check_equal,
    coherent_check,
    configure_from_env,
    set_differential,
    set_incremental,
)
from repro.models import all_models, get_model
from repro.models.c11 import hb_pred
from repro.models.common import atomicity_ok, sc_per_location
from repro.obs import Observer
from repro.obs.profile import activation
from repro.relations import Relation, union
from repro.util.randprog import RandomProgramGenerator


@pytest.fixture(autouse=True)
def _restore_flags():
    yield
    set_incremental(True)
    set_differential(False)


def sb_program(n: int = 2):
    p = ProgramBuilder("SB")
    locations = [f"x{i}" for i in range(n)]
    for i in range(n):
        t = p.thread()
        t.store(locations[i], 1)
        t.load(locations[(i + 1) % n])
    return p.build()


def mp_graph() -> ExecutionGraph:
    g = ExecutionGraph(["d", "f"])
    g.add_write(0, WriteLabel(loc="d", value=1))
    wf = g.add_write(0, WriteLabel(loc="f", value=1))
    g.add_read(1, ReadLabel(loc="f"), wf)
    g.add_read(1, ReadLabel(loc="d"), g.init_write("d"))
    return g


# -- satellite regressions ---------------------------------------------------


class TestAtomicityFromParts:
    def _graph(self, co_writes):
        """T0: W x 9  |  T1: R x (exclusive); W x 1 (exclusive), with
        the coherence order of x given explicitly by ``co_writes``
        (indices into the flat event list below)."""
        rd = ReadLabel(loc="x", exclusive=True)
        wr = WriteLabel(loc="x", value=1, exclusive=True)
        base = WriteLabel(loc="x", value=9)
        g = ExecutionGraph.from_parts(
            {0: [base], 1: [rd, wr]},
            rf_map={Event(1, 0): Event(0, 0)},
            co_orders={"x": co_writes},
        )
        return g

    def test_missing_exclusive_write_in_co_returns_false(self):
        # the exclusive write never appears in x's coherence order:
        # inconsistent input must be inconsistent, not a ValueError
        g = self._graph([Event(0, 0)])
        assert atomicity_ok(g) is False

    def test_missing_rf_source_in_co_returns_false(self):
        g = self._graph([Event(1, 1)])
        assert atomicity_ok(g) is False

    def test_consistent_rmw_still_passes(self):
        g = ExecutionGraph(["x"])
        w0 = g.init_write("x")
        r = g.add_read(0, ReadLabel(loc="x", exclusive=True), w0)
        g.add_write(0, WriteLabel(loc="x", value=1, exclusive=True))
        assert atomicity_ok(g) is True


class TestTopologicalSort:
    def test_emits_lexicographically_smallest_order(self):
        rel = Relation([("y", "x")])
        # FIFO would emit y, z, x; the heap emits y then x (index 0)
        assert rel.topological_sort(["x", "y", "z"]) == ["y", "x", "z"]

    def test_no_edges_preserves_universe_order(self):
        rel = Relation()
        assert rel.topological_sort([3, 1, 2]) == [3, 1, 2]

    def test_cycle_raises(self):
        rel = Relation([("a", "b"), ("b", "a")])
        with pytest.raises(ValueError):
            rel.topological_sort(["a", "b"])

    def test_order_respects_relation(self):
        rel = Relation([(1, 5), (5, 2), (2, 8)])
        out = rel.topological_sort([8, 5, 2, 1])
        assert out.index(1) < out.index(5) < out.index(2) < out.index(8)


class TestVersionLineage:
    def test_copy_inherits_version(self):
        g = mp_graph()
        assert g.copy()._version == g._version

    def test_mutation_after_copy_bumps_version(self):
        g = mp_graph()
        child = g.copy()
        v = child._version
        child.add_write(0, WriteLabel(loc="d", value=2))
        # one bump per delta record: ("event", ev) then ("co", ev)
        assert child._version == v + 2
        assert g._version == v

    def test_no_stale_relations_after_copy_mutation(self):
        g = mp_graph()
        po(g), rf(g), co(g), fr(g), eco(g)  # warm the caches
        child = g.copy()
        w = child.add_write(1, WriteLabel(loc="d", value=7))
        a, b = child.thread_events(1)[:2]
        assert (b, w) in po(child)
        assert (a, w) in po(child)
        # and the parent's relations are untouched
        assert w not in po(g).nodes()

    def test_relation_extension_matches_scratch(self):
        g = mp_graph()
        for fn in (po, rf, co, fr, eco):
            fn(g)
        child = g.copy()
        child.add_write(1, WriteLabel(loc="d", value=7))
        child.add_read(0, ReadLabel(loc="d"), child.thread_events(1)[-1])
        for fn in (po, rf, co, fr, eco):
            incremental = fn(child)
            scratch = fn.__wrapped__(child)
            assert incremental == scratch, fn.__name__


class TestRelationExtended:
    def test_extended_adds_pairs_without_mutating_original(self):
        base = Relation([(1, 2)])
        ext = base.extended([(1, 3), (4, 5)])
        assert (1, 3) in ext and (4, 5) in ext and (1, 2) in ext
        assert (1, 3) not in base and (4, 5) not in base

    def test_extended_shares_untouched_sources(self):
        base = Relation([(1, 2), (6, 7)])
        ext = base.extended([(1, 3)])
        assert ext._succ[6] is base._succ[6]
        assert ext._succ[1] is not base._succ[1]


class TestDeltaLog:
    def test_deltas_since_covers_mutations(self):
        g = ExecutionGraph(["x"])
        v = g._version
        g.add_write(0, WriteLabel(loc="x", value=1))
        deltas = g.deltas_since(v)
        assert deltas is not None
        assert [d[0] for d in deltas] == ["event", "co"]

    def test_set_rf_resets_log(self):
        g = mp_graph()
        v = g._version
        read = g.thread_events(1)[1]
        g.set_rf(read, g.thread_events(0)[0])
        assert g._version == v + 1
        assert g.deltas_since(v) is None
        assert g.deltas_since(g._version) == []

    def test_restricted_starts_fresh_log(self):
        g = mp_graph()
        kept = [e for e in g.events() if e.tid != 1]
        sub = g.restricted(kept)
        assert sub._version == g._version
        assert sub.deltas_since(sub._version) == []
        assert not sub._derived


# -- the incremental acyclicity checker --------------------------------------


COHERENCEISH = AcyclicFamily(
    "test-porf", (po, rf), build=lambda g: union(po(g), rf(g))
)

#: po and rf are forward, co is not: the family keeps the ordinal path
PORF_CO = AcyclicFamily(
    "test-porf-co", (po, rf, co), build=lambda g: union(po(g), rf(g), co(g))
)


@graph_cached
def po_inverse(graph):
    return po.__wrapped__(graph).inverse()


# a false promise: every pair ends at an older event
@po_inverse.register_delta_pairs(forward=True)
def _po_inverse_delta(graph, delta):
    return [(b, a) for a, b in po.delta_pairs(graph, delta)]


class TestAcyclicCheck:
    def test_matches_full_dfs(self):
        g = mp_graph()
        assert acyclic_check(g, COHERENCEISH) is union(
            po(g), rf(g)
        ).is_acyclic()

    @staticmethod
    def _checked_child(family):
        """The state ``family`` stores on a child copy extended by one
        write, checked with one incremental hit."""
        obs = Observer()
        from repro.obs.profile import activation

        g = mp_graph()
        assert acyclic_check(g, family)
        child = g.copy()
        child.add_write(0, WriteLabel(loc="d", value=3))
        with activation(obs):
            assert acyclic_check(child, family)
        assert obs.metrics.counters.get("acyclic:incremental_hit", 0) == 1
        state = child._derived["acyc:" + family.name]
        assert state[0] == child._version
        return child, state

    def test_incremental_across_copy(self):
        # a forward certification counts as a hit like an absorbed order
        # and stores no order
        assert COHERENCEISH.forward
        child, state = self._checked_child(COHERENCEISH)
        assert state == (child._version,)

    def test_non_forward_family_keeps_its_order(self):
        assert not PORF_CO.forward
        child, state = self._checked_child(PORF_CO)
        order = state[1]
        for a, b in PORF_CO.build(child).pairs():
            assert order[a] < order[b]

    def test_false_forward_promise_raises_in_differential_mode(self):
        family = AcyclicFamily("test-po-inverse", (po_inverse,), build=po_inverse)
        assert family.forward
        g = mp_graph()
        assert acyclic_check(g, family)
        child = g.copy()
        child.add_write(0, WriteLabel(loc="d", value=3))
        set_differential(True)
        with pytest.raises(IncrementalMismatch, match="po_inverse"):
            acyclic_check(child, family)

    @pytest.mark.parametrize("family", [COHERENCEISH, PORF_CO])
    def test_lineage_cut_counts_a_fallback(self, family):
        from repro.obs.profile import activation

        g = mp_graph()
        assert acyclic_check(g, family)
        g.set_rf(g.thread_events(1)[1], g.thread_events(0)[0])
        obs = Observer()
        with activation(obs):
            assert acyclic_check(g, family)
        assert obs.metrics.counters.get("acyclic:fallback", 0) == 1

    def test_exhausted_ordinals_fall_back_to_the_full_dfs(self):
        # x: init -> w1 -> w2 in co, and w1 po-before wy (a write to y).
        # The stored order packs w1, w2 and wy onto three adjacent
        # floats, so no ordinal lies strictly between any two of them.
        g = ExecutionGraph(["x", "y"])
        w1 = g.add_write(0, WriteLabel(loc="x", value=1))
        wy = g.add_write(0, WriteLabel(loc="y", value=1))
        w2 = g.add_write(1, WriteLabel(loc="x", value=2))
        assert acyclic_check(g, PORF_CO)
        state = g._derived[PORF_CO.key]
        order = {g.init_write("x"): 0.0, g.init_write("y"): 0.5, w1: 1.0}
        order[w2] = math.nextafter(1.0, 2.0)
        order[wy] = math.nextafter(order[w2], 2.0)
        for a, b in PORF_CO.build(g).pairs():
            assert order[a] < order[b]
        g._derived[PORF_CO.key] = (state[0], order, order[wy], *state[3:])
        # a write between w1 and w2 in co must sit between their
        # ordinals, and moving either neighbour needs the same room
        child = g.copy()
        child.add_write(2, WriteLabel(loc="x", value=3), co_index=2)
        obs = Observer()
        with activation(obs):
            verdict = acyclic_check(child, PORF_CO)
        assert verdict is PORF_CO.build(child).is_acyclic() is True
        counters = obs.metrics.counters
        assert counters.get("acyclic:fallback", 0) == 1
        assert counters.get("acyclic:incremental_hit", 0) == 0
        # the full DFS stored a fresh order with integer ordinals
        rebuilt = child._derived[PORF_CO.key]
        assert rebuilt[0] == child._version
        assert all(value == int(value) for value in rebuilt[1].values())

    def test_disabled_mode_bypasses_state(self):
        set_incremental(False)
        g = mp_graph()
        assert acyclic_check(g, COHERENCEISH)
        assert not any(k.startswith("acyc:") for k in g._derived)

    def test_family_requires_delta_components(self):
        def plain(graph):
            return Relation()

        with pytest.raises(TypeError):
            AcyclicFamily("bad", (plain,), build=plain)

    def test_check_equal_raises_with_sample(self):
        with pytest.raises(IncrementalMismatch):
            check_equal("demo", Relation([(1, 2)]), Relation([(1, 3)]))


class TestCoherentCheck:
    @pytest.mark.parametrize(
        "name", ["2+2W", "2xFAI", "CAS-race", "IRIW", "R", "S", "WRC"]
    )
    def test_eco_successors_match_eco(self, name):
        from repro import get_litmus

        result = verify(
            get_litmus(name).program,
            "coherence",
            stop_on_error=False,
            collect_executions=True,
        )
        assert result.execution_graphs
        for graph in result.execution_graphs:
            eco_rel = eco.__wrapped__(graph)
            for ev in graph.events():
                assert _eco_successors(graph, ev) == eco_rel.successors(ev)


# -- the verified-version rule -----------------------------------------------


#: the checks besides acyclicity (TestAcyclicCheck covers its two
#: paths) that go through the verified-version rule, with the counter
#: prefix each reports under
RULE_CHECKS = {
    "coh": (lambda g: coherent_check(g, "test", hb_pred(g)), "coherent"),
    "coherence-keys": (sc_per_location, "coherence"),
    "atomicity": (atomicity_ok, "coherence"),
}


class TestVerifiedVersionRule:
    @pytest.mark.parametrize("name", sorted(RULE_CHECKS))
    def test_lineage_cut_counts_one_fallback(self, name):
        check, counter = RULE_CHECKS[name]
        g = mp_graph()
        assert check(g)
        child = g.copy()
        child.add_write(0, WriteLabel(loc="d", value=3))
        obs = Observer()
        with activation(obs):
            assert check(child)
        counters = obs.metrics.counters
        assert counters.get(f"{counter}:incremental_hit", 0) == 1
        assert counters.get(f"{counter}:fallback", 0) == 0
        # the set_rf cut leaves the stored version unreachable by replay
        child.set_rf(child.thread_events(1)[1], child.thread_events(0)[0])
        obs = Observer()
        with activation(obs):
            assert check(child) == check(child.restricted(child.events()))
        counters = obs.metrics.counters
        assert counters.get(f"{counter}:fallback", 0) == 1
        assert counters.get(f"{counter}:incremental_hit", 0) == 0


# -- coherence keys and atomicity per insertion -------------------------------


LOCATIONS = ("x", "y")

#: one generated step: (kind, thread, location, rf choice, co choice,
#: whether an RMW's write half fires)
STEP = st.tuples(
    st.sampled_from(("read", "write", "rmw")),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 7),
    st.integers(0, 7),
    st.booleans(),
)


def _mutations(step, threads: int, locations: int) -> list:
    """The add_read/add_write calls of one generated step."""
    kind, tid, loc, source, position, fires = step
    tid, loc = tid % threads, LOCATIONS[loc % locations]

    def read(g):
        order = g.co_order(loc)
        label = ReadLabel(loc=loc, exclusive=kind == "rmw")
        g.add_read(tid, label, order[source % len(order)])

    def write(g):
        label = WriteLabel(loc=loc, value=1, exclusive=kind == "rmw")
        g.add_write(tid, label, 1 + position % len(g.co_order(loc)))

    if kind == "write":
        return [write]
    return [read, write] if kind == "rmw" and fires else [read]


def _full_checks(g) -> tuple:
    """SC-per-location as the union's DFS, atomicity read straight off
    its definition."""
    coherent = union(po_loc(g), rf(g), co(g), fr(g)).is_acyclic()
    atomic = True
    for read, write in rmw_pairs(g).pairs():
        order = g.co_order(g.label(write).location)
        if order.index(write) != order.index(g.rf(read)) + 1:
            atomic = False
    return coherent, atomic


class TestCoherenceKeys:
    @given(
        st.integers(2, 3),
        st.integers(1, 2),
        st.integers(1, 3),
        st.lists(STEP, min_size=1, max_size=10),
    )
    # two writes land between an RMW's source and its write in one
    # child: only the second one is right before the RMW's write
    @example(
        2,
        1,
        2,
        [
            ("rmw", 0, 0, 0, 0, True),
            ("read", 1, 0, 0, 0, False),
            ("write", 1, 0, 0, 0, False),
            ("write", 1, 0, 0, 1, False),
        ],
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_checks(self, threads, locations, batch, steps):
        # each child takes ``batch`` steps past its passing parent, so
        # the delta path sees one to several events (and co insertions)
        parent = ExecutionGraph(LOCATIONS[:locations])
        assert sc_per_location(parent) and atomicity_ok(parent)
        for start in range(0, len(steps), batch):
            child = parent.copy()
            for step in steps[start:start + batch]:
                for mutate in _mutations(step, threads, locations):
                    mutate(child)
            fresh = child.restricted(child.events())
            expected = _full_checks(fresh)
            assert (sc_per_location(fresh), atomicity_ok(fresh)) == expected
            assert (sc_per_location(child), atomicity_ok(child)) == expected
            if all(expected):
                parent = child

    def test_delta_path_counts_its_hits(self):
        obs = Observer()
        verify(sb_program(3), "tso", observer=obs)
        assert obs.metrics.counters.get("coherence:incremental_hit", 0) > 0


# -- differential property tests ---------------------------------------------


CAT_RC11ISH = """(* repro: name=cat-rc11ish *)
let sync = [W & REL] ; rf ; [R & ACQ]
let hb = (po | sync)+
acyclic po | rf as porf
irreflexive hb ; eco as coherence
"""


def _outcome(program, model, **kw):
    r = verify(program, model, **kw)
    return (
        r.executions,
        r.blocked,
        r.duplicates,
        sorted((str(k), v) for k, v in r.outcomes.items()),
    )


def _programs():
    yield sb_program(2)
    yield sb_program(3)
    gen = RandomProgramGenerator(seed=11, max_threads=3, max_stmts=4)
    for program in gen.programs(6):
        yield program


class TestDifferential:
    @pytest.mark.parametrize("model", sorted(m.name for m in all_models()))
    def test_models_identical_serial(self, model, monkeypatch):
        for flip, program in enumerate(_programs()):
            if flip % 2:
                monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
            monkeypatch.setenv("REPRO_INCREMENTAL", "1")
            inc = _outcome(program, model)
            monkeypatch.setenv("REPRO_INCREMENTAL", "0")
            monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "0")
            scratch = _outcome(program, model)
            assert inc == scratch, program.name

    def test_cat_model_identical(self, monkeypatch):
        model = CatModel.from_source(CAT_RC11ISH)
        for program in _programs():
            monkeypatch.setenv("REPRO_INCREMENTAL", "1")
            monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
            inc = _outcome(program, model)
            monkeypatch.setenv("REPRO_INCREMENTAL", "0")
            monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "0")
            scratch = _outcome(program, model)
            assert inc == scratch, program.name

    def test_parallel_identical(self, monkeypatch):
        program = sb_program(3)
        for model in ("sc", "tso", "rc11"):
            monkeypatch.setenv("REPRO_INCREMENTAL", "1")
            inc = _outcome(program, model, jobs=2)
            monkeypatch.setenv("REPRO_INCREMENTAL", "0")
            scratch = _outcome(program, model, jobs=2)
            serial = _outcome(program, model)
            assert inc == scratch == serial

    def test_differential_mode_clean_on_litmus(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
        from repro import all_litmus_tests, run_litmus

        for lt in list(all_litmus_tests())[:4]:
            for model in ("sc", "tso", "ra", "imm"):
                run_litmus(lt, model=model)  # IncrementalMismatch on bug


class TestCounters:
    def test_incremental_hits_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "1")
        obs = Observer()
        verify(sb_program(3), "rc11", observer=obs)
        counters = obs.metrics.counters
        assert any(
            k.startswith("relation:") and k.endswith(":incremental_hit")
            for k in counters
        )
        assert counters.get("acyclic:incremental_hit", 0) > 0

    def test_incremental_hits_have_matching_phase(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "1")
        obs = Observer()
        verify(sb_program(3), "rc11", observer=obs)
        phases = obs.metrics.phase_stats()
        for key in obs.metrics.counters:
            if key.startswith("relation:") and key.endswith(":incremental_hit"):
                name = key[len("relation:"):-len(":incremental_hit")]
                assert f"relation:{name}" in phases, key

    def test_scratch_mode_records_no_incremental_hits(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        obs = Observer()
        verify(sb_program(3), "tso", observer=obs)
        counters = obs.metrics.counters
        assert not any(k.endswith(":incremental_hit") for k in counters)
        assert "acyclic:incremental_hit" not in counters


class TestConfigureFromEnv:
    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
        configure_from_env()
        from repro.graphs.incremental import (
            differential_enabled,
            incremental_enabled,
        )

        assert incremental_enabled() is False
        assert differential_enabled() is True
        monkeypatch.delenv("REPRO_INCREMENTAL")
        monkeypatch.delenv("REPRO_CHECK_INCREMENTAL")
        configure_from_env()
        assert incremental_enabled() is True
        assert differential_enabled() is False
