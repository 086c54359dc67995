"""Fault-tolerance and budget-correctness tests for the parallel engine.

Covers the fault model (docs/PARALLEL.md): bounded
``max_executions``/``max_explored`` runs that never overshoot,
crash/hang/exception injection with bounded retry and serial fallback,
merge-layer bugfixes (boolean meta, keyed/unkeyed mixing), and
truncated-worker-trace folding.

Fault injection uses the ``REPRO_FAULT_INJECT`` hook in
``repro.core.parallel._maybe_inject_fault`` (documented there): pool
workers crash (SIGKILL themselves), hang, or raise — once (marker file)
or on every attempt (no marker, exercising the serial-fallback path).
"""

import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref

import pytest

from repro.core import (
    ExplorationOptions,
    Explorer,
    PoolSupervisor,
    VerificationResult,
    verify,
    verify_parallel,
)
from repro.core.parallel import FAULT_COUNTERS
from repro.core.result import _merge_meta
from repro.lang import ProgramBuilder
from repro.litmus import get_litmus
from repro.obs import Observer, read_trace_prefix, summarize_file
from repro.bench.workloads import FAMILIES


def sharded_program():
    """A workload big enough that the split phase actually carves out
    subtree tasks for a 2-job pool (sb(3): 8 executions, 8+ tasks)."""
    return FAMILIES["sb"](3)


def racy_wide():
    """A sharded program whose assertion fails in some subtrees, so a
    stop-on-error run stops with tasks in flight."""
    p = ProgramBuilder("racy-wide")
    for i in range(4):
        t = p.thread()
        t.store(f"x{i}", 1)
        t.load(f"x{(i + 1) % 4}")
    t = p.thread()
    r = t.load("x0")
    t.assert_(r.eq(0), "saw the store")
    return p.build()


def serial_result(program, model="tso", **overrides):
    options = ExplorationOptions(stop_on_error=False, **overrides)
    return Explorer(program, model, options).run()


@pytest.fixture
def inject(monkeypatch, tmp_path):
    """Set REPRO_FAULT_INJECT, returning a helper that builds specs."""

    def _set(kind, tasks="", once=True):
        marker = str(tmp_path / f"{kind}-marker") if once else ""
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"{kind}:{tasks}:{marker}"
        )

    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    return _set


# -- satellite: merge-layer bugfixes ---------------------------------------


class TestMergeMeta:
    def test_booleans_not_summed(self):
        merged = _merge_meta({"flag": True, "n": 1}, {"flag": True, "n": 2})
        assert merged["flag"] is True  # was 2 before the fix
        assert merged["n"] == 3

    def test_booleans_left_biased(self):
        assert _merge_meta({"flag": False}, {"flag": True})["flag"] is False

    def test_bool_numeric_mix_left_biased(self):
        merged = _merge_meta({"x": True}, {"x": 5})
        assert merged["x"] is True
        merged = _merge_meta({"x": 5}, {"x": True})
        assert merged["x"] == 5

    def test_result_merge_keeps_boolean_meta(self):
        a = VerificationResult(program="p", model="sc")
        b = VerificationResult(program="p", model="sc")
        a.meta = {"converged": True, "traces": 3}
        b.meta = {"converged": True, "traces": 4}
        merged = a.merge(b)
        assert merged.meta["converged"] is True
        assert merged.meta["traces"] == 7


class TestKeyedUnkeyedMix:
    def test_mixing_raises(self):
        keyed = serial_result(sharded_program(), collect_keys=True)
        stripped = serial_result(sharded_program(), collect_keys=True)
        stripped.execution_records = []  # what an API-boundary strip does
        with pytest.raises(ValueError, match="keyed"):
            keyed.merge(stripped)
        with pytest.raises(ValueError, match="keyed"):
            stripped.merge(keyed)

    def test_empty_side_is_fine(self):
        keyed = serial_result(sharded_program(), collect_keys=True)
        empty = VerificationResult(program=keyed.program, model=keyed.model)
        assert keyed.merge(empty).executions == keyed.executions

    def test_verify_parallel_result_stays_keyed(self):
        result = verify_parallel(
            sharded_program(),
            "tso",
            ExplorationOptions(stop_on_error=False),
            jobs=2,
        )
        assert result.keyed
        # merging the parallel result with itself reconciles by key
        # instead of silently double-counting (the PR-2 bug)
        remerged = result.merge(result)
        assert remerged.executions == result.executions

    def test_verify_strips_at_boundary(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        result = verify(
            sharded_program(), "tso", stop_on_error=False, jobs=2
        )
        assert result.meta.get("jobs") == 2
        assert result.execution_records == []


# -- satellite: truncated worker traces ------------------------------------


class TestTruncatedTraces:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_read_trace_prefix_clean(self, tmp_path):
        p = tmp_path / "t.jsonl"
        self._write(p, ['{"t":"trace_start","seq":1}', '{"t":"run_end","seq":2}'])
        records, truncated = read_trace_prefix(str(p))
        assert [r["t"] for r in records] == ["trace_start", "run_end"]
        assert not truncated

    def test_read_trace_prefix_truncated_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        self._write(
            p,
            [
                '{"t":"trace_start","seq":1}',
                '{"t":"graph_complete","seq":2}',
                '{"t":"graph_blo',  # killed mid-write
            ],
        )
        records, truncated = read_trace_prefix(str(p))
        assert len(records) == 2
        assert truncated

    def test_fold_keeps_valid_prefix_and_marks(self, tmp_path):
        worker = tmp_path / "run.jsonl.worker0"
        self._write(
            worker,
            [
                '{"t":"trace_start","seq":1,"ts":0.0,"schema":1}',
                '{"t":"graph_complete","seq":2,"ts":0.1,"events":4}',
                '{"t":"graph_comp',
            ],
        )
        obs = Observer.in_memory()
        obs.absorb({"trace": str(worker)}, worker=0)
        types = [r["t"] for r in obs.records()]
        assert "graph_complete" in types  # valid prefix folded, not lost
        assert "trace_truncated" in types
        marker = next(r for r in obs.records() if r["t"] == "trace_truncated")
        assert marker["worker"] == 0 and marker["kept"] == 2

    def test_missing_file_still_skipped(self, tmp_path):
        obs = Observer.in_memory()
        obs.absorb({"trace": str(tmp_path / "nope.jsonl")}, worker=0)
        assert [r["t"] for r in obs.records()] == ["trace_start"]


# -- bounded runs ----------------------------------------------------------


class TestGlobalBudget:
    """A bounded ``verify_parallel`` run is not shardable, so it runs
    serially and its limits hold exactly as they do for a serial run."""

    def test_parallel_run_never_exceeds_budget(self):
        program = sharded_program()
        total = serial_result(program).executions
        for limit in (1, 3, total - 1):
            result = verify_parallel(
                program,
                "tso",
                ExplorationOptions(stop_on_error=False, max_executions=limit),
                jobs=2,
            )
            assert result.executions <= limit, limit
            assert result.truncated, limit  # the limit bit

    def test_truncated_false_when_limit_never_bites(self):
        program = sharded_program()
        total = serial_result(program).executions
        result = verify_parallel(
            program,
            "tso",
            ExplorationOptions(
                stop_on_error=False, max_executions=total + 100
            ),
            jobs=2,
        )
        assert result.executions == total
        assert not result.truncated

    def test_max_explored_holds_globally(self):
        program = sharded_program()
        result = verify_parallel(
            program,
            "tso",
            ExplorationOptions(stop_on_error=False, max_explored=4),
            jobs=2,
        )
        assert result.explored <= 4
        assert result.truncated


# -- tentpole: worker supervision ------------------------------------------


class TestWorkerFaults:
    def assert_matches_serial(self, result, serial, label):
        assert result.executions == serial.executions, label
        assert result.outcomes == serial.outcomes, label
        assert result.final_states == serial.final_states, label

    def test_crashed_worker_retried(self, inject):
        """A SIGKILLed worker is detected and its task re-run."""
        program = sharded_program()
        serial = serial_result(program)
        inject("crash", once=True)
        result = verify_parallel(
            program, "tso", ExplorationOptions(stop_on_error=False), jobs=2
        )
        self.assert_matches_serial(result, serial, "crash")
        assert result.meta["workers_lost"] >= 1
        assert result.meta["tasks_retried"] >= 1

    def test_raising_worker_retried(self, inject):
        program = sharded_program()
        serial = serial_result(program)
        inject("raise", tasks="1", once=True)
        result = verify_parallel(
            program, "tso", ExplorationOptions(stop_on_error=False), jobs=2
        )
        self.assert_matches_serial(result, serial, "raise")
        assert result.meta["tasks_failed"] >= 1
        assert result.meta["tasks_retried"] >= 1

    def test_persistent_failure_falls_back_serially(self, inject):
        """A task that fails every attempt is re-explored in the
        coordinator: complete result, no exception."""
        program = sharded_program()
        serial = serial_result(program)
        inject("raise", tasks="0", once=False)
        result = verify_parallel(
            program, "tso", ExplorationOptions(stop_on_error=False), jobs=2
        )
        self.assert_matches_serial(result, serial, "fallback")
        assert result.meta["tasks_fallback"] == 1
        assert result.meta["tasks_failed"] >= 1

    def test_hung_worker_times_out_and_retries(self, inject):
        program = sharded_program()
        serial = serial_result(program)
        inject("hang", tasks="1", once=True)
        result = verify_parallel(
            program,
            "tso",
            ExplorationOptions(stop_on_error=False, task_timeout=1.0),
            jobs=2,
        )
        self.assert_matches_serial(result, serial, "hang")
        assert result.meta["tasks_timeout"] >= 1
        assert result.meta["tasks_retried"] >= 1

    def test_persistent_hang_falls_back(self, inject):
        program = sharded_program()
        serial = serial_result(program)
        inject("hang", tasks="0", once=False)
        result = verify_parallel(
            program,
            "tso",
            ExplorationOptions(
                stop_on_error=False, task_timeout=0.5, task_retries=1
            ),
            jobs=2,
        )
        self.assert_matches_serial(result, serial, "hang-fallback")
        assert result.meta["tasks_fallback"] >= 1

    def test_crash_with_budget_stays_bounded(self, inject):
        """Faults must not let a bounded run overshoot its budget."""
        program = sharded_program()
        inject("crash", once=True)
        result = verify_parallel(
            program,
            "tso",
            ExplorationOptions(stop_on_error=False, max_executions=4),
            jobs=2,
        )
        assert result.executions <= 4

    def test_litmus_determinism_under_crash(self, inject):
        """The acceptance assertion: injected crashes leave litmus
        verdicts identical to serial ones."""
        inject("crash", once=True)
        for name in ("SB", "MP", "LB"):
            program = get_litmus(name).program
            serial = serial_result(program, "tso")
            result = verify_parallel(
                program,
                "tso",
                ExplorationOptions(stop_on_error=False),
                jobs=2,
            )
            self.assert_matches_serial(result, serial, name)

    def test_crash_is_charged_to_its_task_alone(self, inject):
        """One SIGKILLed worker costs one retry, not one per task in
        flight."""
        program = sharded_program()
        serial = serial_result(program)
        inject("crash", tasks="0", once=True)
        result = verify(program, "tso", stop_on_error=False, jobs=2)
        self.assert_matches_serial(result, serial, "crash:0")
        assert result.meta["workers_lost"] == 1
        assert result.meta["tasks_retried"] == 1

    def test_hang_is_charged_to_its_task_alone(self, inject):
        program = sharded_program()
        serial = serial_result(program)
        inject("hang", tasks="0", once=True)
        result = verify(
            program, "tso", stop_on_error=False, jobs=2, task_timeout=1.0
        )
        self.assert_matches_serial(result, serial, "hang:0")
        assert result.meta["tasks_timeout"] == 1
        assert result.meta["tasks_retried"] == 1


def _work(index, attempt, steps, claim):
    """A supervised test task: the step for this attempt (the last step
    repeats) sleeps, then returns ``value`` — or crashes, raises, or
    returns ``value`` zero bytes."""
    delay, action, value = steps[min(attempt, len(steps) - 1)]
    time.sleep(delay)
    if action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "raise":
        raise RuntimeError("injected")
    if action == "bulk":
        return bytes(value)
    return value


def _claiming(index, attempt, steps, claim):
    """A supervised test task that claims revisit states: the step for
    this attempt (the last step repeats) claims its keys in order, then
    returns the answers — or crashes or raises."""
    keys, action = steps[min(attempt, len(steps) - 1)]
    granted = [claim(key) for key in keys]
    if action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "raise":
        raise RuntimeError("injected")
    return granted


def _live_children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def _run_bounded(
    supervisor, payloads, stop=lambda index: False, fn=_work, **settings
):
    """``supervisor.run`` of ``fn`` on a thread, joined with a timeout;
    returns the values it delivered and the seconds it took.
    ``stop(index)`` is ``on_result``'s verdict; ``settings`` are the
    run's keyword arguments."""
    results = {}

    def on_result(index, value):
        results[index] = value
        return stop(index)

    thread = threading.Thread(
        target=supervisor.run,
        args=(fn, payloads, on_result),
        kwargs=settings,
        daemon=True,
    )
    start = time.monotonic()
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "PoolSupervisor.run did not return"
    return results, time.monotonic() - start


def _task(delay, action, value):
    """One task's steps: the same step on every attempt."""
    return [(delay, action, value)]


class TestSupervisor:
    """PoolSupervisor driven directly with module-level task functions."""

    @pytest.mark.parametrize(
        "fault, acct",
        [
            ("crash", {"tasks_failed": 1, "workers_lost": 1}),
            ("raise", {"tasks_failed": 1}),
            ("hang", {"tasks_timeout": 1}),
        ],
    )
    def test_a_fault_costs_only_its_own_task(self, fault, acct):
        """Task 0's first attempt fails while another task is in
        flight on the other worker (1 s tasks; the hang is detected
        mid-way through task 2): only task 0 is charged and run
        again."""
        first = (60, "ok", 0) if fault == "hang" else (0, fault, 0)
        payloads = [[first, (1.0, "ok", 0)]]
        payloads += [_task(1.0, "ok", i) for i in range(1, 4)]
        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        try:
            results, _ = _run_bounded(
                supervisor,
                payloads,
                task_timeout=1.6 if fault == "hang" else None,
            )
        finally:
            supervisor.close()
        assert results == {i: i for i in range(4)}
        assert supervisor.acct == {
            **dict.fromkeys(FAULT_COUNTERS, 0),
            "tasks_retried": 1,
            **acct,
        }
        attempts = [supervisor.states[i].attempts for i in range(4)]
        assert attempts == [2, 1, 1, 1]
        assert supervisor.fallback == []

    @pytest.mark.parametrize("others", [0, 1])
    def test_unpicklable_task_falls_back(self, others):
        """A request that cannot be pickled fails like a raising task:
        retried, then run in-process by the supervisor's serial
        fallback."""
        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        unpicklable = lambda: None  # noqa: E731 - a local cannot pickle
        payloads = [_task(0, "ok", unpicklable)]
        payloads += [_task(0, "ok", i) for i in range(1, 1 + others)]
        try:
            results, _ = _run_bounded(supervisor, payloads)
        finally:
            supervisor.close()
        assert results.pop(0) is unpicklable
        assert results == {i: i for i in range(1, 1 + others)}
        assert supervisor.fallback == [0]
        assert supervisor.acct["tasks_failed"] == 3
        assert supervisor.acct["tasks_retried"] == 2
        assert supervisor.acct["tasks_fallback"] == 1
        assert supervisor.cancelled == 0

    def test_spent_task_is_cancelled_by_a_stop(self):
        """A task whose retries ran out before a stop never runs, and
        counts as cancelled: collected + cancelled == tasks."""
        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        payloads = [_task(0, "raise", 0), _task(1.0, "ok", 1)]
        try:
            results, _ = _run_bounded(
                supervisor, payloads, lambda index: True
            )
        finally:
            supervisor.close()
        assert results == {1: 1}
        assert supervisor.stopped
        assert supervisor.fallback == [0]
        assert supervisor.cancelled == 1
        assert len(results) + supervisor.cancelled == len(payloads)
        assert supervisor.acct["tasks_fallback"] == 0

    def test_a_stop_in_the_fallback_cancels_the_rest(self):
        """Both tasks fail on the workers and succeed in-process; the
        first fallback result stops the run, so the other fallback
        task is cancelled, not run."""
        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        payloads = [[(0, "raise", i)] * 3 + [(0, "ok", i)] for i in range(2)]
        try:
            results, _ = _run_bounded(
                supervisor, payloads, lambda index: True
            )
        finally:
            supervisor.close()
        assert len(results) == 1
        [(index, value)] = results.items()
        assert value == index and supervisor.fallback[0] == index
        assert sorted(supervisor.fallback) == [0, 1]
        assert supervisor.acct["tasks_fallback"] == 1
        assert supervisor.cancelled == 1

    def test_stop_during_a_large_send_returns_promptly(self):
        """A stop requested while another worker is blocked sending a
        16 MB result kills that worker instead of waiting on it; the
        idle worker stays until the owner closes the supervisor."""
        before = _live_children()
        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        payloads = [
            _task(0, "ok", "first"),
            # starts sending while the coordinator sits in on_result
            _task(0.5, "bulk", 16 << 20),
        ]

        def stop(index):
            time.sleep(1.5)
            return True

        try:
            results, elapsed = _run_bounded(supervisor, payloads, stop)
            assert len(_live_children() - before) == 1
        finally:
            supervisor.close()
        assert elapsed < 20
        assert results == {0: "first"}
        assert supervisor.stopped and supervisor.cancelled == 1
        assert _live_children() <= before

    @pytest.mark.parametrize("fault", ["raise", "crash"])
    def test_a_retried_attempt_regains_its_claims(self, fault):
        """Claims are owned per task, not per attempt: task 0 claims a
        key and fails, task 1 (run in between on the one worker) is
        refused it, and task 0's retry is granted it again."""
        payloads = [
            [(["k"], fault), (["k"], "ok")],
            [(["k"], "ok")],
        ]
        supervisor = PoolSupervisor(multiprocessing.get_context(), 1)
        try:
            results, _ = _run_bounded(supervisor, payloads, fn=_claiming)
        finally:
            supervisor.close()
        assert results == {0: [True], 1: [False]}
        assert [s.attempts for s in supervisor.states] == [2, 1]

    def test_the_fallback_regains_its_claims(self):
        """A task whose retries are spent is run in-process and is
        granted the keys its failed attempts claimed."""
        payloads = [
            [(["k", "j"], "raise")] * 3 + [(["k", "j"], "ok")],
            [(["j", "i"], "ok")],
        ]
        supervisor = PoolSupervisor(multiprocessing.get_context(), 1)
        try:
            results, _ = _run_bounded(supervisor, payloads, fn=_claiming)
        finally:
            supervisor.close()
        assert supervisor.fallback == [0]
        assert results == {0: [True, True], 1: [False, True]}

    def test_the_coordinators_states_are_refused_to_every_task(self):
        """A key seeded as the coordinator's (a revisit state of the
        split) is refused to every task, in a worker and in-process;
        other keys are still granted."""
        payloads = [
            [(["split"], "raise")] * 3 + [(["split", "k"], "ok")],
            [(["split", "j"], "ok")],
        ]
        supervisor = PoolSupervisor(multiprocessing.get_context(), 1)
        try:
            results, _ = _run_bounded(
                supervisor, payloads, fn=_claiming, claimed={"split"}
            )
        finally:
            supervisor.close()
        assert supervisor.fallback == [0]
        assert results == {0: [False, True], 1: [False, True]}

    def test_persistent_supervisor_serves_the_next_run_after_a_stop(self):
        before = _live_children()
        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        try:
            first = [_task(0, "ok", 0), _task(60, "ok", 1)]
            _, elapsed = _run_bounded(supervisor, first, lambda index: True)
            assert elapsed < 30
            assert supervisor.cancelled == 1
            results, _ = _run_bounded(
                supervisor, [_task(0, "ok", i) for i in range(6)]
            )
            assert results == {i: i for i in range(6)}
            assert not supervisor.stopped and supervisor.cancelled == 0
            assert supervisor.acct == dict.fromkeys(FAULT_COUNTERS, 0)
        finally:
            supervisor.close()
        assert _live_children() <= before


class TestCancellationAccounting:
    def test_cancelled_consistent_with_folded_traces(self, tmp_path):
        """stop_on_error: collected + cancelled == dispatched, and only
        collected workers' traces are folded back."""
        program = racy_wide()
        trace = tmp_path / "run.jsonl"
        obs = Observer.to_file(str(trace))
        result = verify_parallel(
            program, "sc", ExplorationOptions(stop_on_error=True),
            observer=obs, jobs=2,
        )
        obs.close()
        assert result.errors and result.truncated
        meta = result.meta
        collected = meta["tasks"] - meta["tasks_cancelled"]
        assert 0 <= meta["tasks_cancelled"] <= meta["tasks"]
        summary = summarize_file(str(trace))
        assert summary.tasks_dispatched == meta["tasks"]
        # each collected worker's folded trace carries its own run_end
        # (tagged worker=N); cancelled workers are never folded, so the
        # folded count must equal tasks - tasks_cancelled
        from repro.obs import read_trace

        folded_runs = sum(
            1
            for rec in read_trace(str(trace))
            if rec["t"] == "run_end" and "worker" in rec
        )
        assert folded_runs == collected


class TestIdleSupervisorHoldsNoRun:
    """The service drives every job through one long-lived supervisor,
    so a finished run must leave nothing of its caller on it."""

    def test_observer_and_payloads_are_released(self, tmp_path):
        from repro.suite import litmus_task, run_suite

        supervisor = PoolSupervisor(multiprocessing.get_context(), 2)
        obs = Observer.in_memory()
        try:
            suite = run_suite(
                [litmus_task("SB", "sc"), litmus_task("MP", "tso")],
                jobs=2,
                cache=str(tmp_path),
                observer=obs,
                supervisor=supervisor,
            )
            observed = weakref.ref(obs)
            del obs
            gc.collect()
            assert observed() is None
            assert supervisor._fn is None
            assert supervisor._payloads == []
            # what callers read after the run stays
            assert suite.acct == supervisor.acct
            assert supervisor.cancelled == 0
            assert [s.attempts for s in supervisor.states] == [1, 1]
        finally:
            supervisor.close()

    def test_claim_table_is_released(self):
        """A sharded run's claim table, seeded and grown by claims,
        lives for one run."""
        supervisor = PoolSupervisor(multiprocessing.get_context(), 1)
        try:
            results, _ = _run_bounded(
                supervisor,
                [[(["k"], "ok")]],
                fn=_claiming,
                claimed={"split"},
            )
            assert results == {0: [True]}
            assert supervisor._claims == {}
        finally:
            supervisor.close()


class TestNoWorkerOutlivesItsOwner:
    """Idle workers live until their owner closes the supervisor:
    ``verify(jobs=N)`` and a ``run_suite`` that starts its own pool
    close it before returning, whether the run finished, stopped, fell
    back or raised."""

    @pytest.mark.parametrize("case", ["clean", "stop_on_error", "fallback"])
    def test_verify(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        if case == "fallback":
            monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:0")
        before = _live_children()
        if case == "stop_on_error":
            result = verify(racy_wide(), "sc", jobs=2)
            assert result.errors
        else:
            result = verify(
                sharded_program(), "tso", stop_on_error=False, jobs=2
            )
            assert result.meta["tasks_fallback"] == (case == "fallback")
        assert result.meta["tasks"] > 0
        assert _live_children() <= before

    def test_run_suite_whose_coordinator_raises(self, tmp_path):
        """The first result's cache store raises while the second task
        is still in flight: run() retires the busy worker, and the
        idle one is left for run_suite to close."""
        from repro.suite import (
            ResultCache,
            litmus_task,
            program_task,
            run_suite,
        )

        class FullDisk(ResultCache):
            def store(self, *args, **kwargs):
                raise OSError("no space left on device")

        tasks = [
            litmus_task("SB", "sc"),
            program_task(FAMILIES["ainc"](4), "imm"),
        ]
        before = _live_children()
        with pytest.raises(OSError, match="no space"):
            run_suite(tasks, jobs=2, cache=FullDisk(str(tmp_path)))
        assert _live_children() <= before


BAD_TASK_TIMEOUTS = (float("nan"), float("inf"), 0, -1)


class TestOptionValidation:
    def test_task_timeout_positive(self):
        for bad in BAD_TASK_TIMEOUTS:
            with pytest.raises(ValueError, match="task_timeout"):
                ExplorationOptions(task_timeout=bad)
        assert ExplorationOptions(task_timeout=2.5).task_timeout == 2.5
        assert ExplorationOptions(task_timeout=None).task_timeout is None

    def test_run_suite_checks_task_timeout(self, tmp_path):
        # rejected before any task runs: a NaN deadline never expires
        # and a negative one times every task out into the fallback
        from repro.suite import litmus_task, run_suite

        tasks = [litmus_task("SB", "tso"), litmus_task("MP", "tso")]
        for bad in BAD_TASK_TIMEOUTS:
            with pytest.raises(ValueError, match="task_timeout"):
                run_suite(
                    tasks, jobs=2, task_timeout=bad, cache=str(tmp_path)
                )

    def test_task_retries_non_negative(self):
        with pytest.raises(ValueError, match="task_retries"):
            ExplorationOptions(task_retries=-1)
        assert ExplorationOptions(task_retries=0).task_retries == 0
