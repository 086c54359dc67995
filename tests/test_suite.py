"""The batch suite engine: caching, resume, scheduling, parity, CLI."""

import json
import os

import pytest

from repro.bench.workloads import sb_n
from repro.cli import main
from repro.core import ExplorationOptions, verify
from repro.litmus import litmus_names, run_litmus
from repro.obs import SUITE_MANIFEST_KIND, Observer, RunStore
from repro.suite import (
    ResultCache,
    SuiteTask,
    build_suite_manifest,
    check_suite,
    diff_suites,
    format_suite_diff,
    litmus_matrix,
    litmus_task,
    program_task,
    run_suite,
    task_key,
)

NAMES = ["SB", "MP", "LB", "CoRR"]


@pytest.fixture
def tasks():
    return litmus_matrix(NAMES, models=("sc", "tso"))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _verdict_tuple(v):
    # every LitmusVerdict field except elapsed (wall time is not stable)
    return (v.test, v.model, v.observed, v.executions, v.duplicates)


class TestCache:
    def test_first_run_misses_second_hits_everything(self, tasks, cache):
        first = run_suite(tasks, jobs=1, cache=cache)
        assert first.cache_hits == 0
        assert len(cache) == len(tasks)
        second = run_suite(tasks, jobs=1, cache=cache)
        assert second.cache_hits == len(tasks)
        assert second.pool_tasks == 0
        for a, b in zip(first.tasks, second.tasks):
            assert _verdict_tuple(a.verdict) == _verdict_tuple(b.verdict)
            assert b.cached and b.shards == 0

    def test_serial_and_parallel_share_entries(self, tasks, cache):
        run_suite(tasks, jobs=1, cache=cache)
        parallel = run_suite(tasks, jobs=2, cache=cache)
        assert parallel.cache_hits == len(tasks)

    def test_force_recomputes(self, tasks, cache):
        run_suite(tasks, jobs=1, cache=cache)
        forced = run_suite(tasks, jobs=1, cache=cache, force=True)
        assert forced.cache_hits == 0

    def test_cache_false_disables(self, tasks, tmp_path):
        suite = run_suite(tasks, jobs=1, cache=False)
        assert suite.cache_hits == 0
        assert suite.meta["cache_dir"] is None

    def test_result_relevant_option_change_misses(self, cache):
        a = litmus_task("SB", "tso")
        b = litmus_task("SB", "tso", max_events=5_000)
        assert task_key(
            a.program, a.model, a.options, kind=a.kind, probe="SB"
        ) != task_key(b.program, b.model, b.options, kind=b.kind, probe="SB")
        run_suite([a], jobs=1, cache=cache)
        suite = run_suite([b], jobs=1, cache=cache)
        assert suite.cache_hits == 0

    def test_scheduling_option_change_hits(self, cache):
        a = litmus_task("SB", "tso")
        b = litmus_task("SB", "tso", task_timeout=30.0, task_retries=5)
        run_suite([a], jobs=1, cache=cache)
        suite = run_suite([b], jobs=1, cache=cache)
        assert suite.cache_hits == 1

    def test_resume_after_interruption(self, tasks, cache):
        """Deleting half the entries models an interrupted suite: only
        the missing tasks are recomputed."""
        first = run_suite(tasks, jobs=1, cache=cache)
        kept = {t.key for t in first.tasks[: len(tasks) // 2]}
        for t in first.tasks:
            if t.key not in kept:
                assert cache.evict(t.key)
        resumed = run_suite(tasks, jobs=1, cache=cache)
        assert resumed.cache_hits == len(kept)
        for a, b in zip(first.tasks, resumed.tasks):
            assert _verdict_tuple(a.verdict) == _verdict_tuple(b.verdict)

    def test_rerun_failed_recomputes_truncated_entries(self, cache):
        truncated = litmus_task("SB", "tso", max_explored=1)
        run_suite([truncated], jobs=1, cache=cache)
        served = run_suite([truncated], jobs=1, cache=cache)
        assert served.cache_hits == 1  # plain re-run serves the stale entry
        rerun = run_suite(
            [truncated], jobs=1, cache=cache, rerun_failed=True
        )
        assert rerun.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tasks, cache):
        first = run_suite(tasks[:1], jobs=1, cache=cache)
        with open(cache.path(first.tasks[0].key), "w") as handle:
            handle.write("{not json")
        again = run_suite(tasks[:1], jobs=1, cache=cache)
        assert again.cache_hits == 0

    def test_schema_1_entries_are_not_served(self, cache, monkeypatch):
        """Schema-1 entries may hold a sharded pooled run's blocked and
        duplicate counts, so the current schema must miss them."""
        from repro.suite import cache as cache_module

        task = program_task(sb_n(2), "sc")
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 1)
            stored = run_suite([task], jobs=1, cache=cache)
        assert len(cache) == 1 and not stored.tasks[0].cached
        again = run_suite([task], jobs=1, cache=cache)
        assert again.tasks[0].cached is False


class TestDifferential:
    """Batched verdicts must be bit-identical to individual run_litmus
    calls — serial and through the shared pool."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_run_litmus(self, tasks, jobs):
        suite = run_suite(tasks, jobs=jobs, cache=False)
        for task, got in zip(tasks, suite.tasks):
            expected = run_litmus(task.probe, task.model)
            assert _verdict_tuple(got.verdict) == _verdict_tuple(expected)

    def test_bounded_task_runs_whole(self):
        """A bounded task is not shardable: it runs whole however large
        its estimate, and returns the serial run's prefix."""
        program = sb_n(4)
        serial = verify(
            program, "sc", stop_on_error=False, max_executions=5, jobs=1
        )
        suite = run_suite(
            [program_task(program, "sc", max_executions=5)],
            jobs=2,
            cache=False,
        )
        task = suite.tasks[0]
        assert task.shards == 1
        assert task.result.executions == serial.executions == 5
        assert task.result.outcomes == serial.outcomes
        assert task.result.final_states == serial.final_states
        assert task.result.truncated and serial.truncated

    def test_pooled_run_never_estimates(self, monkeypatch):
        """Cache misses run whole: a pooled suite never sizes a task."""
        from repro.core import estimate

        def refuse(*_args, **_kwargs):
            raise AssertionError("run_suite must not estimate")

        monkeypatch.setattr(estimate, "_one_walk", refuse)
        tasks = litmus_matrix(["SB", "MP", "LB"], models=("sc", "tso"))
        suite = run_suite(tasks, jobs=2, cache=False)
        for task, got in zip(tasks, suite.tasks):
            expected = run_litmus(task.probe, task.model)
            assert _verdict_tuple(got.verdict) == _verdict_tuple(expected)

    def test_whole_corpus_one_pool(self):
        names = litmus_names()[:8]
        suite = run_suite(
            litmus_matrix(names, models=("sc", "tso", "ra")),
            jobs=2,
            cache=False,
        )
        assert len(suite.tasks) == len(names) * 3
        assert suite.acct.get("workers_lost") == 0
        assert not suite.deviations


class TestScheduling:
    def test_pooled_run_dispatches_every_task(self, tasks):
        suite = run_suite(tasks, jobs=2, cache=False)
        assert {t.task_id for t in suite.tasks} == {t.id for t in tasks}
        assert suite.pool_tasks == len(tasks)

    def test_serial_path_without_pool(self, tasks):
        suite = run_suite(tasks, jobs=1, cache=False)
        assert suite.acct == {}
        assert suite.jobs == 1

    def test_metrics_snapshots_merge(self, tasks):
        observer = Observer()
        run_suite(tasks[:2], jobs=2, cache=False, observer=observer)
        assert observer.metrics_snapshot()["counters"]

    def test_inline_tasks_report_their_own_phases(self):
        """A serial suite under one observer: each task's phase_times
        cover that task alone, as a standalone verify reports them."""

        def calls(result):
            return {k: v["calls"] for k, v in result.phase_times.items()}

        specs = [(sb_n(3), "tso"), (sb_n(2), "sc")]
        suite = run_suite(
            [program_task(p, m) for p, m in specs],
            jobs=1,
            cache=False,
            observer=Observer(),
        )
        for (program, model), got in zip(specs, suite.tasks):
            alone = verify(
                program,
                model,
                stop_on_error=False,
                jobs=1,
                observer=Observer(),
            )
            assert calls(got.result) == calls(alone), got.task_id


class TestFaultInjection:
    def test_crashed_worker_is_retried(self, tasks, tmp_path, monkeypatch):
        marker = tmp_path / "crash-once"
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"crash:0:{marker}")
        suite = run_suite(tasks, jobs=2, cache=False)
        assert marker.exists()
        assert suite.acct["workers_lost"] >= 1
        # the marker exists now, so these serial reruns are fault-free
        for task, got in zip(tasks, suite.tasks):
            expected = run_litmus(task.probe, task.model)
            assert _verdict_tuple(got.verdict) == _verdict_tuple(expected)

    def test_persistent_fault_falls_back_serially(self, tasks, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:0")
        suite = run_suite(tasks, jobs=2, cache=False, task_retries=1)
        assert suite.acct["tasks_fallback"] >= 1
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        for task, got in zip(tasks, suite.tasks):
            expected = run_litmus(task.probe, task.model)
            assert _verdict_tuple(got.verdict) == _verdict_tuple(expected)


class TestManifest:
    def test_round_trips_through_run_store(self, tasks, cache, tmp_path):
        suite = run_suite(tasks, jobs=1, cache=cache)
        manifest = build_suite_manifest(suite, command="test")
        store = RunStore(str(tmp_path / "runs"), kind=SUITE_MANIFEST_KIND)
        path = store.save(manifest)
        loaded = store.load(os.path.basename(path)[: -len(".json")])
        assert loaded["kind"] == SUITE_MANIFEST_KIND
        assert loaded["totals"]["tasks"] == len(tasks)
        assert store.latest()["run_id"] == loaded["run_id"]

    def test_run_store_kinds_do_not_mix(self, tasks, cache, tmp_path):
        from repro.obs import RUN_MANIFEST_KIND, build_manifest

        root = str(tmp_path / "runs")
        suite = run_suite(tasks, jobs=1, cache=cache)
        RunStore(root).save(build_suite_manifest(suite))
        result = verify(tasks[0].program, tasks[0].model, stop_on_error=False)
        RunStore(root).save(build_manifest(result))
        assert len(RunStore(root, kind=SUITE_MANIFEST_KIND).list_runs()) == 1
        assert len(RunStore(root, kind=RUN_MANIFEST_KIND).list_runs()) == 1
        assert len(RunStore(root).list_runs()) == 2

    def test_diff_and_check_agree_on_identical_suites(self, tasks, cache):
        suite = run_suite(tasks, jobs=1, cache=cache)
        a = build_suite_manifest(suite)
        b = build_suite_manifest(run_suite(tasks, jobs=1, cache=cache))
        diff = diff_suites(a, b)
        assert not diff["added"] and not diff["removed"] and not diff["changes"]
        assert "agree" in format_suite_diff(diff)
        violations, _warnings = check_suite(b, a)
        assert violations == []

    def test_check_flags_verdict_flip_and_missing_task(self, tasks, cache):
        suite = run_suite(tasks, jobs=1, cache=cache)
        baseline = build_suite_manifest(suite)
        current = json.loads(json.dumps(baseline))
        current["tasks"][0]["observed"] = not current["tasks"][0]["observed"]
        dropped = current["tasks"].pop()
        violations, _warnings = check_suite(current, baseline)
        assert any("observed" in v for v in violations)
        assert any(dropped["id"] in v for v in violations)


class TestTaskConstruction:
    def test_litmus_task_rejects_graphless_options(self):
        with pytest.raises(ValueError, match="collect_executions"):
            litmus_task("SB", "sc", collect_executions=False)

    def test_dual_option_convention_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            litmus_task(
                "SB", "sc", options=ExplorationOptions(), max_events=5
            )

    def test_task_id_names_probe_and_model(self):
        task = litmus_task("SB", "tso")
        assert task.id == "SB:tso"
        assert isinstance(task, SuiteTask)

    def test_matrix_covers_grid(self):
        grid = litmus_matrix(["SB", "MP"], models=("sc", "tso", "ra"))
        assert {t.id for t in grid} == {
            f"{n}:{m}" for n in ("SB", "MP") for m in ("sc", "tso", "ra")
        }


class TestSuiteCli:
    def test_run_then_rerun_hits_cache(self, tmp_path, capsys):
        argv = [
            "suite", "run", "--litmus", "SB", "--litmus", "MP",
            "--models", "sc,tso", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"), "--save-run",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 tasks, 0 cached" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 tasks, 4 cached" in second

    def test_manifest_and_check_gate(self, tmp_path, capsys):
        manifest = tmp_path / "suite.json"
        argv = [
            "suite", "run", "--litmus", "SB", "--models", "sc",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"), "--save-run",
            "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(manifest.read_text())["kind"] == SUITE_MANIFEST_KIND
        assert (
            main(
                [
                    "suite", "check", "--dir", str(tmp_path / "runs"),
                    "--baseline", str(manifest),
                ]
            )
            == 0
        )

    def test_list_and_diff(self, tmp_path, capsys):
        argv = [
            "suite", "run", "--litmus", "SB", "--models", "sc",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"), "--save-run",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["suite", "list", "--dir", str(tmp_path / "runs")]) == 0
        listing = capsys.readouterr().out.strip().splitlines()
        assert len(listing) == 2
        old, new = (line.split()[0] for line in listing)
        assert (
            main(["suite", "diff", "--dir", str(tmp_path / "runs"), old, new])
            == 0
        )
        assert "agree" in capsys.readouterr().out

    def test_unknown_litmus_is_usage_error(self, tmp_path, capsys):
        assert (
            main(
                [
                    "suite", "run", "--litmus", "nope", "--models", "sc",
                    "--no-cache",
                ]
            )
            == 2
        )

    def test_json_output(self, tmp_path, capsys):
        argv = [
            "suite", "run", "--litmus", "SB", "--models", "sc",
            "--no-cache", "--json",
        ]
        assert main(argv) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["totals"]["tasks"] == 1
