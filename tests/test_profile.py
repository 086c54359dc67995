"""Tests for the deep-profiling layer (repro.obs.profile).

Covers the process-global activation hook (armed exactly while an
observed run is live, nested activations compose, disabled runs never
touch it), the hotspot metrics the hooks record (per-relation memo
hits and compute phases, cat memo hit/miss attribution, fixpoint
rounds, fanout histograms), snapshot merging, the ``--stats`` profile
rendering, and the disabled-overhead claim.
"""

import time

from repro import ProgramBuilder, verify
from repro.cat import CatModel
from repro.obs import (
    NULL_OBSERVER,
    Histogram,
    MetricsRegistry,
    Observer,
    format_profile,
    memo_rates,
)
from repro.obs import profile as profile_mod
from repro.obs.profile import activation, active


def sb_program(n: int = 2):
    p = ProgramBuilder(f"sb({n})" if n != 2 else "SB")
    locations = [f"x{i}" for i in range(n)]
    for i in range(n):
        t = p.thread()
        t.store(locations[i], 1)
        t.load(locations[(i + 1) % n])
    return p.build()


CAT_MPORF = """(* repro: name=test-porf *)
let rec hb = po | rf | (hb ; hb)
acyclic hb as porf
"""


class TestActivation:
    def test_off_by_default(self):
        assert active() is None

    def test_activation_installs_and_restores(self):
        obs = Observer()
        with activation(obs):
            assert active() is obs.metrics
        assert active() is None

    def test_disabled_observer_activates_nothing(self):
        with activation(NULL_OBSERVER):
            assert active() is None

    def test_nesting_restores_outer_registry(self):
        outer, inner = Observer(), Observer()
        with activation(outer):
            with activation(inner):
                assert active() is inner.metrics
            assert active() is outer.metrics
        assert active() is None

    def test_unobserved_run_leaves_hook_untouched(self):
        result = verify(sb_program(), "tso")
        assert result.executions == 4
        assert active() is None

    def test_observed_run_detaches_on_exit(self):
        obs = Observer()
        verify(sb_program(), observer=obs)
        assert active() is None


class TestHotspotMetrics:
    def test_relation_memo_attribution(self):
        obs = Observer()
        verify(sb_program(), "rc11", observer=obs)
        counters = obs.metrics.counters
        hits = {k for k in counters if k.endswith(":memo_hit")}
        assert any(k.startswith("relation:") for k in hits)
        # every relation that was memo-hit was also computed (timed)
        phases = obs.metrics.phase_stats()
        for key in hits:
            name = key[len("relation:"):-len(":memo_hit")]
            assert f"relation:{name}" in phases

    def test_relation_phases_nest_inside_checks(self):
        obs = Observer()
        verify(sb_program(), "tso", observer=obs)
        phases = obs.metrics.phase_stats()
        axiom = phases["check:axiom:tso"]
        # relation computation is charged to the relation phase, so the
        # axiom's self time excludes it (self <= total strictly when a
        # relation phase ran inside)
        assert axiom.self_time <= axiom.total

    def test_fanout_histograms(self):
        obs = Observer()
        verify(sb_program(), "tso", observer=obs)
        hists = obs.metrics.histograms
        assert hists["rf_fanout"].count > 0
        assert hists["co_fanout"].count > 0
        assert hists["graph_events"].count == 4  # one per execution
        assert hists["graph_events"].max == 6  # 3 events per thread

    def test_cat_memo_and_fixpoint_attribution(self):
        model = CatModel.from_source(CAT_MPORF)
        obs = Observer()
        verify(sb_program(), model, observer=obs)
        counters = obs.metrics.counters
        assert any(k.startswith("cat:memo_hit:") for k in counters)
        assert any(k.startswith("cat:memo_miss:") for k in counters)
        fixpoints = [
            h
            for name, h in obs.metrics.histograms.items()
            if name.startswith("cat:fixpoint_iters:")
        ]
        assert fixpoints and all(h.min >= 1 for h in fixpoints)

    def test_axiom_fail_counter(self):
        # message passing under a porf-acyclicity .cat model: litmus IRIW
        # style program where some graphs violate the axiom
        p = ProgramBuilder("lb")
        t0 = p.thread()
        t0.load("y")
        t0.store("x", 1)
        t1 = p.thread()
        t1.load("x")
        t1.store("y", 1)
        model = CatModel.from_source(CAT_MPORF)
        obs = Observer()
        verify(p.build(), model, observer=obs)
        # the porf-acyclic filter prunes candidate revisits; whether the
        # failure lands on the axiom or coherence counter is model
        # detail — the run must simply have recorded its checks
        assert obs.metrics.phase_stats()["check:axiom:test-porf"].calls > 0


class TestSnapshotMerge:
    def test_histogram_merge_dict(self):
        a, b = Histogram(), Histogram()
        for v in (1, 3, 200):
            a.observe(v)
        for v in (2, 64):
            b.observe(v)
        a.merge_dict(b.as_dict())
        assert a.count == 5
        assert a.total == 270
        assert a.min == 1 and a.max == 200
        assert sum(a.counts) == 5
        assert a.counts[-1] == 1  # only 200 overflows

    def test_merge_snapshot_counters_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b")
        a.gauge("g", 5)
        b.gauge("g", 3)
        a.merge_snapshot(b.snapshot())
        assert a.counters == {"n": 5, "only_b": 1}
        assert a.gauges["g"] == 5  # max wins

    def test_merge_snapshot_skips_phases_by_default(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        with b.phase("work"):
            pass
        a.merge_snapshot(b.snapshot())
        assert "work" not in a.phase_stats()


class TestFormatProfile:
    def test_sections_render(self):
        reg = MetricsRegistry()
        reg.inc("cat:memo_hit:hb", 3)
        reg.inc("cat:memo_miss:hb", 1)
        reg.observe("rf_fanout", 2)
        text = format_profile(reg.snapshot())
        assert "profile:" in text
        assert "cat memo hit rates:" in text
        assert "hb: 75.0% (3 hit / 1 miss)" in text
        assert "rf_fanout: n=1" in text

    def test_empty_snapshot(self):
        assert "no profile data" in format_profile(MetricsRegistry().snapshot())

    def test_memo_rates(self):
        rates = memo_rates(
            {"cat:memo_hit:a": 9, "cat:memo_miss:a": 1, "other": 5}
        )
        assert rates == {"a": {"hits": 9, "misses": 1, "hit_rate": 0.9}}


class TestDisabledOverhead:
    def test_disabled_run_does_zero_profile_work(self, monkeypatch):
        # plant a canary where a registry would go: it has none of a
        # registry's methods, so any hook that fires during the run
        # would AttributeError.  An unobserved run masks the hook with
        # None for its whole duration (and restores the canary after).
        canary = object()
        monkeypatch.setattr(profile_mod._STATE, "registry", canary)
        result = verify(sb_program(), "tso")
        assert result.executions == 4
        assert profile_mod._STATE.registry is canary

    def test_disabled_overhead_bounded(self):
        # the <5% claim can't be A/B-tested against a build without the
        # hooks, so this guards the proxy that matters: repeated
        # disabled runs stay within a generous factor of each other
        # (the hooks are a single attribute load + None check).  The
        # bound is deliberately loose — it catches an accidentally
        # always-armed registry (which costs >2x), not scheduler noise.
        program = sb_program(3)
        verify(program, "tso")  # warm imports and caches

        def best_of(runs: int = 3) -> float:
            best = float("inf")
            for _ in range(runs):
                t0 = time.perf_counter()
                verify(program, "tso")
                best = min(best, time.perf_counter() - t0)
            return best

        baseline = best_of()
        again = best_of()
        assert again <= baseline * 3 + 0.05
