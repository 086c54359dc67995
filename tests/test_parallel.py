"""Tests for the parallel subtree-sharding engine (`repro.core.parallel`)
and the result-merge machinery it relies on."""

import os
import pickle

import pytest

from repro.core import (
    ExplorationOptions,
    Explorer,
    VerificationResult,
    effective_jobs,
    from_json,
    split_frontier,
    to_json,
    verify,
    verify_parallel,
)
from repro.bench.workloads import FAMILIES, ainc, fib_bench, lastzero
from repro.core.result import ExecutionRecord, Stats
from repro.graphs import canonical_key
from repro.lang import ProgramBuilder
from repro.litmus import MODELS, all_litmus_tests
from repro.obs import NULL_OBSERVER
from repro.util.randprog import RandomProgramGenerator


def sb():
    p = ProgramBuilder("SB")
    t1 = p.thread(); t1.store("x", 1); a = t1.load("y")
    t2 = p.thread(); t2.store("y", 1); b = t2.load("x")
    p.observe(a, b)
    return p.build()


def sb_n(n):
    p = ProgramBuilder(f"sb({n})")
    regs = []
    for i in range(n):
        t = p.thread()
        t.store(f"x{i}", 1)
        regs.append(t.load(f"x{(i + 1) % n}"))
    p.observe(*regs)
    return p.build()


def racy():
    p = ProgramBuilder("racy-assert")
    t1 = p.thread(); t1.store("x", 1)
    t2 = p.thread(); r = t2.load("x"); t2.assert_(r.eq(0), "saw the store")
    return p.build()


def ainc_checked(n):
    """ainc(n) whose checker asserts that no increment was lost: the
    RMW-heavy shard case, with witnesses."""
    p = ProgramBuilder(f"ainc-checked({n})")
    for _ in range(n):
        p.thread().fai("c", 1)
    checker = p.thread()
    checker.assert_(checker.load("c").eq(n), "lost increment")
    return p.build()


def serial_result(program, model, **overrides):
    options = ExplorationOptions(stop_on_error=False, **overrides)
    return Explorer(program, model, options).run()


class TestStatsMerge:
    def test_fieldwise_sum(self):
        a = Stats(reads_added=3, writes_added=1)
        b = Stats(reads_added=4, revisits_considered=2)
        merged = a.merge(b)
        assert merged.reads_added == 7
        assert merged.writes_added == 1
        assert merged.revisits_considered == 2

    def test_identity(self):
        a = Stats(reads_added=5)
        assert a.merge(Stats()) == a


class TestResultMerge:
    def test_program_mismatch_raises(self):
        left = serial_result(sb(), "sc")
        right = serial_result(sb_n(3), "sc")
        with pytest.raises(ValueError):
            left.merge(right)

    def test_keyed_merge_equals_serial(self):
        """Splitting records across parts and re-merging reproduces the
        serial counts exactly."""
        whole = serial_result(sb(), "tso", collect_keys=True)
        assert whole.keyed
        records = whole.execution_records
        for cut in range(len(records) + 1):
            left = VerificationResult(program=whole.program, model=whole.model)
            left.execution_records = list(records[:cut])
            left.executions = cut
            right = VerificationResult(program=whole.program, model=whole.model)
            right.execution_records = list(records[cut:])
            right.executions = len(records) - cut
            merged = left.merge(right)
            assert merged.executions == whole.executions
            assert merged.outcomes == whole.outcomes
            assert {r.key for r in merged.execution_records} == {
                r.key for r in records
            }

    def test_merge_dedups_shared_executions(self):
        whole = serial_result(sb(), "tso", collect_keys=True)
        merged = whole.merge(whole)
        assert merged.executions == whole.executions
        assert merged.duplicates == whole.executions  # every right rec dup

    def test_merge_associative(self):
        whole = serial_result(sb_n(3), "tso", collect_keys=True)
        records = whole.execution_records
        thirds = [records[0::3], records[1::3], records[2::3]]
        parts = []
        for chunk in thirds:
            part = VerificationResult(program=whole.program, model=whole.model)
            part.execution_records = list(chunk)
            part.executions = len(chunk)
            parts.append(part)
        a, b, c = parts
        left_assoc = a.merge(b).merge(c)
        right_assoc = a.merge(b.merge(c))
        assert left_assoc.executions == right_assoc.executions == len(records)
        assert {r.key for r in left_assoc.execution_records} == {
            r.key for r in right_assoc.execution_records
        }

    def test_blocked_truncated_elapsed(self):
        a = VerificationResult(program="p", model="sc", blocked=2, elapsed=1.0)
        b = VerificationResult(
            program="p", model="sc", blocked=3, truncated=True, elapsed=0.5
        )
        merged = a.merge(b)
        assert merged.blocked == 5
        assert merged.truncated
        assert merged.elapsed == 1.0


class TestJsonRoundTrip:
    def test_round_trip_counts_and_outcomes(self):
        result = serial_result(sb(), "tso", collect_executions=True)
        back = from_json(to_json(result))
        assert back.executions == result.executions
        assert back.blocked == result.blocked
        assert back.outcomes == result.outcomes
        assert back.final_states == result.final_states
        assert back.model == result.model

    def test_round_trip_errors_and_meta(self):
        result = verify(racy(), "sc", stop_on_error=False)
        result.meta["jobs"] = 4
        back = from_json(to_json(result))
        assert len(back.errors) == len(result.errors)
        assert back.errors[0].message == result.errors[0].message
        assert back.meta["jobs"] == 4


class TestPickling:
    def test_result_with_witness_graph_pickles(self):
        result = verify(racy(), "sc", stop_on_error=True)
        assert result.errors and result.errors[0].graph is not None
        clone = pickle.loads(pickle.dumps(result))
        assert clone.errors[0].graph.pretty() == result.errors[0].graph.pretty()
        assert clone.executions == result.executions

    def test_execution_record_pickles(self):
        whole = serial_result(sb(), "sc", collect_keys=True)
        rec = whole.execution_records[0]
        clone = pickle.loads(pickle.dumps(rec))
        assert isinstance(clone, ExecutionRecord)
        assert clone.key == rec.key


class TestEffectiveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs(ExplorationOptions()) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert effective_jobs(ExplorationOptions()) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert effective_jobs(ExplorationOptions(jobs=2)) == 2

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs(ExplorationOptions(jobs=0)) == (
            os.cpu_count() or 1
        )

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        with pytest.raises(ValueError):
            effective_jobs(ExplorationOptions())

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExplorationOptions(jobs=-1)


class TestSplitFrontier:
    def test_subtrees_partition_the_search(self):
        program = sb_n(3)
        options = ExplorationOptions(stop_on_error=False, collect_keys=True)
        subtrees, partial, aborted = split_frontier(
            program, "tso", options, target=4, observer=NULL_OBSERVER
        )
        assert not aborted
        assert len(subtrees) >= 4
        merged = partial
        for root in subtrees:
            part = Explorer(program, "tso", options, root=root).run()
            merged = merged.merge(part)
        serial = serial_result(program, "tso", collect_keys=True)
        assert merged.executions == serial.executions
        assert merged.blocked == serial.blocked

    def test_tiny_program_completes_during_split(self):
        p = ProgramBuilder("one-store")
        p.thread().store("x", 1)
        program = p.build()
        options = ExplorationOptions(stop_on_error=False, collect_keys=True)
        subtrees, partial, aborted = split_frontier(
            program, "sc", options, target=8, observer=NULL_OBSERVER
        )
        assert not aborted
        assert subtrees == []
        assert partial.executions == 1


class TestParallelEquivalence:
    def test_dispatch_guard(self, monkeypatch):
        """verify() shards exhaustive deduplicated runs only: a bounded
        run and a run that explicitly disabled deduplication stay
        serial."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        bounded = verify(sb(), "tso", jobs=2, max_executions=2)
        assert "jobs" not in bounded.meta  # stayed serial
        assert bounded.executions == 2 and bounded.truncated
        no_dedup = verify(
            sb(), "tso", jobs=2, stop_on_error=False, deduplicate=False
        )
        assert "jobs" not in no_dedup.meta  # stayed serial
        sharded = verify(sb(), "tso", jobs=2, stop_on_error=False)
        assert sharded.meta.get("jobs") == 2

    def test_deduplicate_takes_a_bool_only(self, monkeypatch):
        """``deduplicate=0`` means off to the explorer, but the shard
        guard tested ``is not False`` and sharded it: the merge then
        deduplicated, returning 24 executions where no-dedup runs
        count 40."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(TypeError, match="deduplicate"):
            verify(ainc(3), "imm", stop_on_error=False, deduplicate=0, jobs=2)
        off = verify(
            ainc(3), "imm", stop_on_error=False, deduplicate=False, jobs=2
        )
        assert "jobs" not in off.meta  # stayed serial
        assert (off.executions, off.duplicates) == (40, 0)
        on = verify(ainc(3), "imm", stop_on_error=False, jobs=2)
        assert on.meta.get("jobs") == 2
        assert on.executions == 24

    def test_jobs_equivalent_on_workload(self):
        """``jobs=2`` reports every count of the serial run: the shard
        tasks claim each revisit state from one memo, so together they
        explore the serial run's set of states.  With one memo per
        task, ainc(3)/imm read 40 duplicates against serial's 16."""

        def counts(result):
            return (
                result.executions,
                result.blocked,
                result.duplicates,
                len(result.errors),
                result.outcomes,
                result.final_states,
                result.stats.as_dict(),
            )

        cells = [(sb_n(3), model) for model in ("sc", "tso", "imm")]
        cells += [
            (ainc(3), "imm"), (lastzero(3), "imm"), (fib_bench(2), "tso")
        ]
        cells += [
            (program, model)
            for seed in (5, 17, 29)
            for program in RandomProgramGenerator(
                seed=seed, max_threads=3, max_stmts=4
            ).programs(10)
            for model in MODELS
        ]
        dispatched = 0
        for program, model in cells:
            serial = serial_result(program, model)
            parallel = verify_parallel(
                program,
                model,
                ExplorationOptions(stop_on_error=False),
                jobs=2,
            )
            label = f"{program.name}/{model}"
            assert counts(parallel) == counts(serial), label
            dispatched += parallel.meta["tasks"] > 0
        # most small random programs finish during the split; the rest
        # and the named programs really run subtree tasks
        assert dispatched >= 100, dispatched

    def test_witnesses_and_graphs_in_fixed_order(self):
        """Which task explores a revisit state depends on scheduling,
        so a sharded run sorts its witnesses and collected graphs: they
        are the serial run's, sorted, whichever task found them."""
        program = ainc_checked(3)
        serial = serial_result(program, "imm", collect_executions=True)
        parallel = verify_parallel(
            program,
            "imm",
            ExplorationOptions(stop_on_error=False, collect_executions=True),
            jobs=2,
        )
        assert parallel.meta["tasks"] > 0
        witnesses = [error.witness for error in serial.errors]
        assert len(witnesses) > 1 and witnesses != sorted(witnesses)
        assert [error.witness for error in parallel.errors] == sorted(witnesses)
        assert [repr(canonical_key(g)) for g in parallel.execution_graphs] == (
            sorted(repr(canonical_key(g)) for g in serial.execution_graphs)
        )

    def test_stop_on_error_still_reports(self):
        result = verify_parallel(
            racy(),
            "sc",
            ExplorationOptions(stop_on_error=True),
            jobs=2,
        )
        assert result.errors
        assert not result.ok

    def test_jobs_one_degrades_to_serial(self):
        result = verify_parallel(
            sb(), "sc", ExplorationOptions(stop_on_error=False), jobs=1
        )
        serial = serial_result(sb(), "sc")
        assert result.executions == serial.executions
        assert "jobs" not in result.meta


class TestBoundedRuns:
    """A search bounded by ``max_executions`` is its serial DFS-order
    prefix, so ``jobs`` must not change which executions it returns."""

    @pytest.mark.parametrize(
        "family,n,model",
        [("sb", 3, "tso"), ("fib", 2, "sc"), ("ainc", 3, "imm")],
    )
    def test_bounded_run_is_the_serial_prefix(self, family, n, model):
        program = FAMILIES[family](n)
        total = verify(program, model, stop_on_error=False, jobs=1).executions
        for k in range(1, total):
            serial = verify(
                program, model, stop_on_error=False, max_executions=k, jobs=1
            )
            bounded = verify(
                program, model, stop_on_error=False, max_executions=k, jobs=2
            )
            assert bounded.executions == serial.executions == k, k
            assert bounded.outcomes == serial.outcomes, k
            assert bounded.final_states == serial.final_states, k
            assert bounded.truncated == serial.truncated, k
            assert "jobs" not in bounded.meta, k


class TestWorkerMetricsMerge:
    """Worker-side registries must not be lost: their snapshots merge
    into the coordinator's registry, reproducing the serial counters."""

    #: per engine, the (program, model) tasks it runs
    FOLD_TASKS = {
        "verify": [(sb_n(3), "tso")],
        "run_suite": [(sb_n(3), "tso"), (fib_bench(2), "sc")],
    }

    def fold_view(self, path, obs, results):
        """What a traced run reports, by every telemetry route: the
        trace-summary counts, the merged counters and histograms, and
        each task's phase call counts."""
        from repro.obs import summarize_file

        summary = summarize_file(path)
        snap = obs.metrics.snapshot()
        return {
            "trace": (
                summary.executions,
                summary.blocked,
                summary.duplicates,
                summary.events_added,
            ),
            "counters": snap["counters"],
            "histograms": {
                name: (h["count"], h["buckets"], h["min"], h["max"])
                for name, h in snap["histograms"].items()
            },
            "phase_calls": [
                {name: stat["calls"] for name, stat in r.phase_times.items()}
                for r in results
            ],
        }

    def serial_view(self, tasks, tmp_path):
        """The serial run: each task explored in turn by the serial
        Explorer under one traced observer.  Each task's phase calls
        come from a standalone run, since one registry accumulates
        phases across the tasks it observes."""
        from repro.obs import Observer

        path = str(tmp_path / "serial.jsonl")
        obs = Observer.to_file(path)
        options = ExplorationOptions(stop_on_error=False)
        for program, model in tasks:
            Explorer(program, model, options, observer=obs).run()
        obs.close()
        alone = [
            Explorer(program, model, options, observer=Observer()).run()
            for program, model in tasks
        ]
        return self.fold_view(path, obs, alone)

    @pytest.mark.parametrize("mode", ["jobs1", "jobs2", "fallback"])
    @pytest.mark.parametrize("engine", ["verify", "run_suite"])
    def test_merged_counters_match_serial(
        self, engine, mode, tmp_path, monkeypatch
    ):
        """However a run is split — serially, over a pool, or with a
        task forced onto the coordinator's serial fallback on every
        attempt — its telemetry folds back to the serial run's."""
        from repro.obs import Observer
        from repro.suite import program_task, run_suite

        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        tasks = self.FOLD_TASKS[engine]
        expected = self.serial_view(tasks, tmp_path)
        if mode == "fallback":
            monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:0")
        jobs = 1 if mode == "jobs1" else 2
        path = str(tmp_path / "run.jsonl")
        obs = Observer.to_file(path)
        if engine == "verify":
            [(program, model)] = tasks
            result = verify_parallel(
                program,
                model,
                ExplorationOptions(stop_on_error=False),
                observer=obs,
                jobs=jobs,
            )
            results = [result]
            fallbacks = result.meta.get("tasks_fallback", 0)
            if jobs > 1:
                assert result.meta["tasks"] > 0  # workers really ran
        else:
            suite = run_suite(
                [program_task(p, m) for p, m in tasks],
                jobs=jobs,
                cache=False,
                observer=obs,
            )
            results = [t.result for t in suite.tasks]
            fallbacks = suite.acct.get("tasks_fallback", 0)
        obs.close()
        assert (fallbacks >= 1) == (mode == "fallback")
        assert self.fold_view(path, obs, results) == expected

    def traced_run(self, engine, path):
        """Run the engine's tasks with ``jobs=2`` under a file trace;
        returns (tasks dispatched to the pool, tasks that fell back)."""
        from repro.obs import Observer
        from repro.suite import program_task, run_suite

        tasks = self.FOLD_TASKS[engine]
        obs = Observer.to_file(path)
        if engine == "verify":
            [(program, model)] = tasks
            result = verify_parallel(
                program,
                model,
                ExplorationOptions(stop_on_error=False),
                observer=obs,
                jobs=2,
            )
            counts = result.meta["tasks"], result.meta["tasks_fallback"]
        else:
            suite = run_suite(
                [program_task(p, m) for p, m in tasks],
                jobs=2,
                cache=False,
                observer=obs,
            )
            counts = suite.pool_tasks, suite.acct["tasks_fallback"]
        obs.close()
        return counts

    @pytest.mark.parametrize("engine", ["verify", "run_suite"])
    def test_dispatch_and_fallback_reach_the_trace(
        self, engine, tmp_path, monkeypatch
    ):
        from repro.obs import summarize_file

        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:0")
        path = str(tmp_path / "run.jsonl")
        dispatched, fallback = self.traced_run(engine, path)
        assert dispatched > 0 and fallback == 1
        summary = summarize_file(path)
        assert summary.tasks_dispatched == dispatched
        assert summary.tasks_fallback == fallback

    @pytest.mark.parametrize("engine", ["verify", "run_suite"])
    def test_folded_worker_traces_are_removed(
        self, engine, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        self.traced_run(engine, str(tmp_path / "run.jsonl"))
        assert os.listdir(tmp_path) == ["run.jsonl"]

    def test_unobserved_parallel_collects_nothing(self):
        result = verify_parallel(
            sb_n(3),
            "tso",
            ExplorationOptions(stop_on_error=False),
            jobs=2,
        )
        assert result.executions == 8
        assert result.phase_times == {}

    def test_worker_metrics_trace_records(self, tmp_path):
        from repro.obs import Observer, summarize_file

        trace_path = str(tmp_path / "run.jsonl")
        obs = Observer.to_file(trace_path)
        verify_parallel(
            sb_n(3),
            "tso",
            ExplorationOptions(stop_on_error=False),
            observer=obs,
            jobs=2,
        )
        obs.close()
        summary = summarize_file(trace_path)
        assert summary.workers  # one record per completed subtree task
        skew = summary.worker_skew
        assert skew is not None and skew["tasks"] == len(summary.workers)
        assert sum(
            w["executions"] + w["blocked"] for w in summary.workers.values()
        ) >= summary.executions


@pytest.mark.slow
class TestLitmusCorpusEquivalence:
    """The acceptance bar: jobs=N matches serial on every litmus test
    under every model."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_corpus_matches_serial(self, model):
        options = ExplorationOptions(stop_on_error=False, collect_executions=True)
        for test in all_litmus_tests():
            serial = Explorer(test.program, model, options).run()
            parallel = verify_parallel(test.program, model, options, jobs=2)
            label = f"{test.name}/{model}"
            assert parallel.executions == serial.executions, label
            assert parallel.blocked == serial.blocked, label
            assert parallel.outcomes == serial.outcomes, label
            assert parallel.final_states == serial.final_states, label
