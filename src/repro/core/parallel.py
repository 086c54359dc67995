"""Parallel subtree exploration: fault-tolerant work-sharding over
supervised worker processes.

HMC's search is a pure function of the execution graph: once the DFS
branches (over rf sources, co positions, or backward revisits), the
branches share no mutable state, so disjoint subtrees can be explored
by separate worker processes and the per-subtree
:class:`~repro.core.result.VerificationResult`\\ s merged afterwards.
CPython's GIL makes threads useless for this CPU-bound search, hence
``multiprocessing``: task descriptors and results cross the process
boundary by pickling.

The engine has three phases:

1. **Split** — the coordinator expands the DFS root breadth-first,
   re-splitting the shallowest branch points until at least
   ``jobs ×`` :data:`OVERSUBSCRIPTION` independent subtree prefixes
   exist (or the whole search completes during splitting, in which
   case no pool is spawned at all).  Completions, blocked graphs and errors hit
   while splitting are recorded in the coordinator's partial result.
2. **Dispatch** — each prefix becomes a pickled :data:`Task`
   ``(program, model, options, prefix graph, telemetry context)`` run
   by :func:`run_task`; workers resume the DFS from the prefix
   (``Explorer(root=...)``) under a child observer built from the
   coordinator's :class:`~repro.obs.TaskContext`.  The run has one
   revisit memo: a task *claims* each revisit state its own memo has
   not seen from the coordinator's claim table, and drops a refused
   one as a repeat, so the tasks explore each revisit state once, as
   the serial search does.  Dispatch is
   supervised by :class:`PoolSupervisor`: each worker process owns
   one pipe, so the coordinator knows which task every worker holds.
   A worker that raises, is killed (SIGKILL), or hangs past
   ``ExplorationOptions.task_timeout`` costs exactly its own task a
   failure; the task is retried up to ``task_retries`` times, and a
   task that keeps failing is re-explored *serially in the
   coordinator* by the supervisor itself — the run still returns a
   complete result instead of raising or wedging.
3. **Merge** — worker results are combined in task order with
   :meth:`VerificationResult.merge`.  Executions are reconciled by
   canonical key (a graph completed in two subtrees counts once, with
   the re-discovery reported as a duplicate), and each task's
   telemetry (counters, histograms, spans, trace records) is folded
   into the coordinator's observer with ``Observer.absorb`` as the
   task completes, so ``repro trace-summary`` still reconciles.
   Which task explores a revisit state depends on scheduling, so the
   merged errors are then sorted by witness, and collected execution
   graphs by canonical key, into a fixed order.

Only a search :func:`shardable` under its options is split.  A search
bounded by ``max_executions``/``max_explored`` is defined by its
DFS-order prefix, which only the serial explorer produces, so it runs
serially whatever ``jobs`` is.

``stop_on_error`` is propagated by cancelling outstanding tasks (and
killing the workers running them) as soon as any worker reports an
assertion failure.

Determinism guarantee (see docs/PARALLEL.md): for shardable searches
every count of the merged result — ``executions``, ``blocked``,
``duplicates``, errors, ``outcomes``, ``final_states`` and every
``Stats`` field — equals the serial run's, because the subtree
prefixes partition the serial DFS tree, the shared memo explores each
revisit state once, and completions are deduplicated by the same
canonical key serial exploration uses.  Retries and serial fallback
preserve this: claims are owned per task, not per attempt, so a
re-run attempt regains every state the failed attempt was granted.
A state the failed attempt never reached may meanwhile go to another
task, which explores it in its place, so the sub-results can differ
but their union cannot.  Without stop-on-error, the merged errors
and collected graphs come in a fixed order as well.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import partial

from ..graphs import ExecutionGraph
from ..graphs.incremental import configure_from_env
from ..lang import Program
from ..models import MemoryModel, get_model
from ..obs import NULL_OBSERVER, TaskContext
from ..obs.profile import activation as _profile_activation
from .config import ExplorationOptions
from .explorer import Explorer, _SearchLimit, effective_jobs
from .result import VerificationResult, merge_phase_times

#: subtree tasks carved out per worker: more tasks give better load
#: balance at the cost of more coordinator splitting
OVERSUBSCRIPTION = 4

#: one unit of work: (program, model spec, options, prefix graph,
#: telemetry context).  The model spec is the registry name for
#: registered models, and the pickled model object itself otherwise
#: (e.g. a CatModel loaded from a ``.cat`` file) — workers hand either
#: form to the Explorer.  The prefix is the subtree to explore, or None
#: for the whole program.  The context is the coordinator's
#: ``Observer.context()``, or None when it is unobserved.
Task = tuple[
    Program,
    "str | MemoryModel",
    ExplorationOptions,
    "ExecutionGraph | None",
    "TaskContext | None",
]


def _model_spec(model: MemoryModel) -> "str | MemoryModel":
    """What to ship to workers for ``model``: its name when the
    registry resolves that name back to this very model (cheap, and
    robust under any multiprocessing start method), else the model
    object itself, which must then be picklable (CatModel is)."""
    try:
        registered = get_model(model.name)
    except KeyError:
        return model
    return model.name if registered is model else model

#: test-only fault injection hook (see ``_maybe_inject_fault``)
FAULT_ENV = "REPRO_FAULT_INJECT"

#: tags a worker's claim message, ``(CLAIM, key)``, apart from its
#: ``(ok, value)`` reply
CLAIM = "claim"

#: the owner recorded for a revisit state the coordinator explores
COORDINATOR = -1

#: the supervisor's fault accounting, reported in ``result.meta``
FAULT_COUNTERS = (
    "tasks_failed",
    "tasks_retried",
    "tasks_timeout",
    "tasks_fallback",
    "workers_lost",
)


def shardable(options: ExplorationOptions) -> bool:
    """Whether a search under ``options`` may be split into subtree
    tasks: it is exhaustive (a bounded search is defined by its serial
    DFS-order prefix) and deduplicates (the merge reconciles subtree
    results by canonical key, which would collapse the duplicates a
    non-dedup run counts)."""
    return (
        options.max_executions is None
        and options.max_explored is None
        and options.deduplicate
    )


def split_frontier(
    program: Program,
    model: MemoryModel | str,
    options: ExplorationOptions,
    target: int,
    observer=NULL_OBSERVER,
    revisit_states: set | None = None,
) -> tuple[list[ExecutionGraph], VerificationResult, bool]:
    """Expand the DFS root into ``>= target`` independent subtrees.

    Branch points are expanded breadth-first (shallowest first), so the
    returned prefixes are as close to the root frontier as the branching
    structure allows; a prefix that branches again is re-split until the
    target is met or the frontier drains.  Returns the remaining
    frontier, the partial result accumulated while splitting (graphs
    that completed before the target was reached), and whether the
    search aborted during splitting (stop-on-error or a search limit).
    The revisit states the split produced are added to
    ``revisit_states`` when it is given: their subtrees are explored
    through the frontier, so a sharded run's tasks must not claim them.
    """
    # Explorer.run() re-reads the incremental mode flags per run;
    # splitting drives _step directly, so it must do the same
    configure_from_env()
    coordinator = Explorer(program, model, options, observer=observer)
    frontier: deque[ExecutionGraph] = deque(
        [ExecutionGraph(program.location_bases())]
    )
    aborted = False
    try:
        # _step bypasses Explorer.run(), so the profile hook used by the
        # observer-less hot paths (consistency checks, graph_cached
        # memoisation) is armed here
        with _profile_activation(observer):
            while frontier and len(frontier) < target:
                graph = frontier.popleft()
                while True:
                    successors = coordinator._step(graph)
                    if successors is None:
                        break
                    if len(successors) == 1:
                        graph = successors[0]
                        continue
                    frontier.extend(successors)
                    break
    except _SearchLimit:
        coordinator.result.truncated = True
        aborted = True
    if revisit_states is not None:
        revisit_states.update(coordinator._revisit_seen)
    return list(frontier), coordinator.result, aborted


# -- worker side -----------------------------------------------------------

def _worker_loop(conn) -> None:
    """The body of one supervised worker process.

    Receives ``(fn, index, attempt, payload)`` requests on its end of
    the pipe, one at a time, and answers each with ``(True, fn(index,
    attempt, payload, claim))`` or ``(False, repr(error))``.  Each call
    of ``claim(key)`` sends a ``(CLAIM, key)`` message and waits for
    the answer, so the worker holds at most one open claim.  It exits
    when the pipe closes; the supervisor normally kills it first.
    """

    def claim(key) -> bool:
        # the coordinator knows which task this worker holds
        conn.send((CLAIM, key))
        return conn.recv()

    while True:
        try:
            fn, index, attempt, payload = conn.recv()
        except EOFError:
            return
        try:
            _maybe_inject_fault(index, attempt)
            # pickling happens before any byte is written, so a value
            # that cannot be sent still leaves the pipe clean for the
            # error reply
            conn.send((True, fn(index, attempt, payload, claim)))
        except Exception as exc:  # noqa: BLE001 - reported to the coordinator
            conn.send((False, repr(exc)))


def _maybe_inject_fault(index: int, attempt: int) -> None:
    """Test-only fault injection, driven by ``REPRO_FAULT_INJECT``.

    The value is ``kind[:tasks[:marker]]`` where ``kind`` is ``crash``
    (SIGKILL self), ``hang`` (sleep forever) or ``raise``; ``tasks`` is
    a comma-separated list of task indices (empty = any task); and
    ``marker`` is a path created *before* faulting so the fault fires
    only once — leave it empty to fault on every attempt (exercising
    the serial-fallback path).  It fires only inside worker processes,
    so the coordinator's in-process fallback never faults.  Used by the
    fault-tolerance tests and the CI fault-injection smoke leg; ignored
    in normal operation.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    parts = spec.split(":", 2)
    kind = parts[0]
    targets = parts[1] if len(parts) > 1 else ""
    marker = parts[2] if len(parts) > 2 else ""
    if targets and str(index) not in targets.split(","):
        return
    if marker:
        if os.path.exists(marker):
            return
        with open(marker, "w") as handle:
            handle.write(f"task {index} attempt {attempt}\n")
    if kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(3600)
    elif kind == "raise":
        raise RuntimeError(f"injected fault in task {index}")


def run_task(
    index: int, attempt: int, task: Task, claim=None
) -> tuple[VerificationResult, dict]:
    """Explore one task — a whole program or one subtree prefix.

    Both engines run every task through here: supervised workers for
    dispatched tasks, :meth:`PoolSupervisor.run` in-process for serial
    fallbacks, and ``run_suite`` for its inline jobs.  Returns
    ``(result, snapshot)``, where the snapshot is the child observer's,
    for the coordinator's ``Observer.absorb``.  A subtree task claims
    the revisit states it meets through ``claim``, the supervisor's
    claim function for this task; a whole-program task explores all of
    its own.
    """
    program, model_spec, options, prefix, ctx = task
    observer = NULL_OBSERVER if ctx is None else ctx.observer(index, attempt)
    try:
        with observer.tracer.span(
            f"explore:{program.name}",
            cat="worker",
            parent=ctx.span_id if ctx is not None else None,
            task=index,
            attempt=attempt,
        ):
            result = Explorer(
                program,
                model_spec,
                options,
                observer=observer,
                root=prefix,
                claim=None if prefix is None else claim,
            ).run()
    finally:
        observer.close()
    return result, observer.snapshot()


# -- coordinator side ------------------------------------------------------


@dataclass
class _TaskState:
    """Coordinator-side bookkeeping for one supervised task."""

    #: attempts dispatched so far (the next attempt number)
    attempts: int = 0
    #: failures charged (exception, lost worker, timeout)
    failures: int = 0


class _Worker:
    """One supervised worker process, the coordinator's end of its
    pipe, and the task it holds (None while idle)."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: int | None = None
        self.deadline = math.inf


class PoolSupervisor:
    """Supervised worker processes that take a list of tasks to
    completion, with crash/hang detection, bounded retries, and a
    serial fallback.

    Both the subtree-parallel explorer (:func:`verify_parallel`) and
    the batch suite engine (:mod:`repro.suite`) run their work through
    one of these, so the fault semantics — timeout, retry, graceful
    degradation — hold identically for a single sharded
    verification and for an N-task suite sharing one set of workers.

    Work is described, not owned: :meth:`run` takes a picklable worker
    function and a list of plain payloads, and calls ``fn(index,
    attempt, payload, claim)`` once per attempt (the attempt names a
    worker's trace file).  Completed values are handed to
    ``on_result(index, value)``, which returns True to stop the rest
    (stop-on-error); the supervisor stores no results itself.

    The supervisor starts up to ``processes`` workers itself, each
    with one duplex pipe, so it always knows which task each worker
    holds.  It hands a freed worker its next task before processing
    the result that worker returned, and otherwise blocks in
    :func:`multiprocessing.connection.wait` on the busy workers' pipes
    and process sentinels until the nearest ``task_timeout`` deadline.
    A failure costs exactly the task it hit:

    * a worker that **raises** replies with the error, and stays;
    * a worker that **dies** (OOM, SIGKILL) closes its pipe and fires
      its sentinel, and is replaced;
    * a worker that **hangs** past ``task_timeout`` is killed and
      replaced.

    The task is then retried; other in-flight tasks keep running.  A
    task failing more than ``task_retries`` times lands on
    :attr:`fallback`, and once the pool drains :meth:`run` explores it
    in-process through the same ``fn``.  Workers share no lock with
    the coordinator, so stopping a run (stop-on-error, an exception in
    the coordinator) simply kills the busy ones.  Idle workers stay
    warm for the next :meth:`run` (the verification service drives
    every job through one supervisor) until the owner calls
    :meth:`close`.
    """

    def __init__(self, ctx, processes: int) -> None:
        self.ctx = ctx
        self.processes = processes
        self.task_timeout: float | None = None
        self.task_retries = 2
        self.obs = NULL_OBSERVER
        #: task indices whose retries were exhausted, run in-process
        #: unless the run stopped first
        self.fallback: list[int] = []
        self.stopped = False
        #: tasks left without a result by a stop
        self.cancelled = 0
        self.acct = dict.fromkeys(FAULT_COUNTERS, 0)
        self.states: list[_TaskState] = []
        self._workers: list[_Worker] = []
        self._fn = None
        self._payloads: list = []
        self._pending: deque[int] = deque()
        self._outstanding: set[int] = set()
        #: the run's claim table: revisit state -> owning task index
        #: (COORDINATOR for the states the caller explores itself)
        self._claims: dict = {}

    # -- workers ----------------------------------------------------------

    def _start_worker(self) -> _Worker:
        conn, child = self.ctx.Pipe()
        process = self.ctx.Process(
            target=_worker_loop, args=(child,), daemon=True
        )
        process.start()
        child.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Kill and reap one worker, busy, idle or already dead."""
        self._workers.remove(worker)
        worker.process.kill()
        worker.process.join()
        worker.process.close()
        worker.conn.close()

    def close(self) -> None:
        """Kill every worker; the owner calls this when done."""
        for worker in list(self._workers):
            self._retire(worker)

    # -- the supervision loop --------------------------------------------

    def run(
        self,
        fn,
        payloads: list,
        on_result,
        *,
        task_timeout: float | None = None,
        task_retries: int = 2,
        observer=NULL_OBSERVER,
        claimed=(),
    ) -> None:
        """Take every payload to a result: on the workers, with
        retries, and in-process for a task whose retries are spent.

        ``fn`` is the picklable worker entry point, called as
        ``fn(index, attempt, payloads[index], claim)``;
        ``on_result(index, value)`` consumes each completed value and
        returns True to cancel the remaining tasks, which
        :attr:`cancelled` counts.  ``claimed`` holds the revisit states
        the caller explores itself: every task's claim of one is
        refused.
        """
        self._fn = fn
        self._payloads = payloads
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.obs = observer
        self.states = [_TaskState() for _ in payloads]
        self.fallback = []
        self.stopped = False
        self.acct = dict.fromkeys(FAULT_COUNTERS, 0)
        self._pending = deque(range(len(payloads)))
        self._outstanding = set(self._pending)
        self._claims = dict.fromkeys(claimed, COORDINATOR)
        try:
            self._supervise(on_result)
        finally:
            # the supervisor can outlive the run (the service keeps one
            # for every job): hold nothing of the caller's while idle
            self._fn = None
            self._payloads = []
            self._claims = {}
            self.obs = NULL_OBSERVER

    def _supervise(self, on_result) -> None:
        """Run the pool until every task has a result or the run
        stopped, then the spent tasks in-process; sets
        :attr:`cancelled`."""
        try:
            while self._outstanding and not self.stopped:
                self._dispatch()
                for worker in self._ready():
                    self._settle(worker, on_result)
                    if self.stopped:
                        break
                if not self.stopped:
                    self._expire()
        finally:
            # a busy worker now holds a cancelled task: kill it rather
            # than wait for a result nobody reads
            for worker in list(self._workers):
                if worker.task is not None:
                    self._retire(worker)
        # graceful degradation: a task whose retries are spent runs
        # here, so the run still takes every task to a result
        unrun = deque(self.fallback)
        while unrun and not self.stopped:
            index = unrun.popleft()
            self.acct["tasks_fallback"] += 1
            if self.obs.trace_enabled:
                self.obs.emit("task_fallback", task=index)
            value = self._fn(
                index,
                self.states[index].attempts,
                self._payloads[index],
                partial(self._claim, index),
            )
            self.stopped = bool(on_result(index, value))
        self.cancelled = len(self._outstanding) + len(unrun)

    def _claim(self, index: int, key) -> bool:
        """Whether task ``index`` explores revisit state ``key``: the
        ``claim`` a worker asks over its pipe (see :meth:`_settle`) and
        a task run in-process asks directly.

        The first task to claim a key owns it, and its owner is granted
        it again: ownership is per task, not per attempt, so a retried
        attempt or the in-process fallback regains every claim of the
        attempt it replaces."""
        return self._claims.setdefault(key, index) == index

    def _dispatch(self) -> None:
        """Hand pending tasks to idle workers, starting workers (up to
        ``processes``) while tasks are left over."""
        idle = [w for w in self._workers if w.task is None]
        while self._pending and (idle or len(self._workers) < self.processes):
            worker = idle.pop() if idle else self._start_worker()
            index = self._pending.popleft()
            attempt = self.states[index].attempts
            self.states[index].attempts += 1
            try:
                worker.conn.send(
                    (self._fn, index, attempt, self._payloads[index])
                )
            except OSError:
                pass  # died while idle: its sentinel reports the loss
            except Exception as exc:  # noqa: BLE001 - unpicklable request
                # pickling precedes the write, so the worker is still
                # idle and the failure is the task's
                idle.append(worker)
                self.acct["tasks_failed"] += 1
                self._charge(
                    index, "task_failed", reason="exception", error=repr(exc)
                )
                continue
            worker.task = index
            worker.deadline = (
                math.inf
                if self.task_timeout is None
                else time.monotonic() + self.task_timeout
            )

    def _ready(self) -> list[_Worker]:
        """Block until busy workers reply or die, or the nearest
        deadline passes; returns the workers that need settling."""
        # imported on first use: it pulls in subprocess, which importing
        # repro does not otherwise need
        from multiprocessing.connection import wait

        busy = [w for w in self._workers if w.task is not None]
        if not busy:  # the last tasks could not be sent (see _dispatch)
            return []
        nearest = min(w.deadline for w in busy)
        timeout = (
            None
            if nearest == math.inf
            else max(0.0, nearest - time.monotonic())
        )
        ready = set(
            wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy],
                timeout,
            )
        )
        return [
            w for w in busy if w.conn in ready or w.process.sentinel in ready
        ]

    def _settle(self, worker: _Worker, on_result) -> None:
        """Take one ready worker's reply or answer its claim, or charge
        its task when the worker died without one (possibly killed
        mid-send)."""
        index = worker.task
        try:
            reply = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            reply = None
        if reply is None:
            self._retire(worker)
            self.acct["workers_lost"] += 1
            self.acct["tasks_failed"] += 1
            self._charge(index, "task_failed", reason="worker_lost")
            return
        if reply[0] == CLAIM:
            # answered at once; the worker stays on its task, under
            # the same deadline
            try:
                worker.conn.send(self._claim(index, reply[1]))
            except OSError:
                pass  # died meanwhile: its sentinel charges the task
            return
        worker.task = None
        # the freed worker starts its next task while this result is
        # processed
        self._dispatch()
        ok, value = reply
        if not ok:
            self.acct["tasks_failed"] += 1
            self._charge(index, "task_failed", reason="exception", error=value)
            return
        self._outstanding.discard(index)
        self.stopped = bool(on_result(index, value))

    def _expire(self) -> None:
        """Kill each worker whose task overran its deadline, charging
        that task alone."""
        now = time.monotonic()
        expired = [
            w
            for w in self._workers
            if w.task is not None and w.deadline <= now
        ]
        for worker in expired:
            index = worker.task
            self._retire(worker)
            self.acct["tasks_timeout"] += 1
            self._charge(
                index,
                "task_timeout",
                attempt=self.states[index].attempts - 1,
                timeout=self.task_timeout,
            )

    def _charge(self, index: int, event: str, **fields) -> None:
        """Charge task ``index`` one failure: queue a retry, or put it
        on the serial fallback once its retries are spent."""
        state = self.states[index]
        state.failures += 1
        if self.obs.trace_enabled:
            self.obs.emit(event, task=index, **fields)
        if state.failures > self.task_retries:
            self._outstanding.discard(index)
            self.fallback.append(index)
            return
        self.acct["tasks_retried"] += 1
        if self.obs.trace_enabled:
            self.obs.emit("task_retried", task=index, attempt=state.attempts)
        self._pending.append(index)


def verify_parallel(
    program: Program,
    model: MemoryModel | str = "sc",
    options: ExplorationOptions | None = None,
    observer=NULL_OBSERVER,
    jobs: int | None = None,
) -> VerificationResult:
    """Verify ``program`` by sharding the search over worker processes.

    ``jobs`` (default ``options.jobs``) resolves through
    :func:`~repro.core.explorer.effective_jobs`.  Falls back to the
    serial explorer when only one job is requested or the search is
    not :func:`shardable`.

    Fault tolerance (see docs/PARALLEL.md): crashed, killed or hung
    workers are detected, their tasks retried up to
    ``options.task_retries`` times and finally re-explored serially in
    the coordinator, so the merged result is complete even under
    worker faults.  The returned result keeps its
    ``execution_records`` (it is ``keyed``) so it can be merged again
    safely; the public :func:`repro.core.verify` entry point strips
    them at the API boundary.
    """
    options = options or ExplorationOptions()
    jobs = effective_jobs(
        options if jobs is None else replace(options, jobs=jobs)
    )
    if jobs <= 1 or not shardable(options):
        return Explorer(program, model, options, observer=observer).run()
    model = get_model(model) if isinstance(model, str) else model
    start = time.perf_counter()
    obs = observer
    if obs.trace_enabled:
        obs.emit(
            "run_start",
            program=program.name,
            model=model.name,
            threads=program.num_threads,
            jobs=jobs,
        )
    target = jobs * OVERSUBSCRIPTION
    # workers (and the splitting coordinator) record per-execution
    # canonical keys so the merge can reconcile cross-worker duplicates
    split_options = replace(options, collect_keys=True, jobs=None)
    # the run's one revisit memo starts as the split's: the frontier
    # explores those states
    split_states: set = set()
    frontier, merged, aborted = split_frontier(
        program,
        model,
        split_options,
        target,
        observer=obs,
        revisit_states=split_states,
    )
    if aborted:
        frontier = []
    worker_results: dict[int, VerificationResult] = {}

    def absorb(index: int, value) -> bool:
        result, snapshot = value
        worker_results[index] = result
        obs.absorb(snapshot, worker=index)
        return bool(options.stop_on_error and result.errors)

    if frontier and obs.trace_enabled:
        obs.emit("parallel_dispatch", tasks=len(frontier), jobs=jobs)
    model_spec = _model_spec(model)
    telemetry = obs.context()
    # no worker starts for an empty frontier: workers start on dispatch
    supervisor = PoolSupervisor(
        multiprocessing.get_context(), min(jobs, len(frontier))
    )
    try:
        supervisor.run(
            run_task,
            [
                (program, model_spec, split_options, prefix, telemetry)
                for prefix in frontier
            ],
            absorb,
            task_timeout=options.task_timeout,
            task_retries=options.task_retries,
            observer=obs,
            claimed=split_states,
        )
    finally:
        supervisor.close()
    for index in sorted(worker_results):
        sub = worker_results[index]
        merged = merged.merge(sub)
        if obs.trace_enabled:
            obs.emit(
                "worker_metrics",
                worker=index,
                executions=sub.executions,
                blocked=sub.blocked,
                errors=len(sub.errors),
                elapsed=round(sub.elapsed, 6),
            )
    # which task explores a revisit state depends on scheduling, so the
    # task-order merge leaves the witnesses and the collected graphs in
    # a varying order; sort them into a fixed one
    merged.errors.sort(key=lambda e: (e.witness, e.thread, e.message))
    if merged.execution_graphs:
        merged.execution_records.sort(key=lambda record: repr(record.key))
        merged.execution_graphs = [
            record.graph for record in merged.execution_records
        ]
    merged.elapsed = time.perf_counter() - start
    merged.truncated = merged.truncated or supervisor.cancelled > 0
    merged.meta.update(
        {
            "jobs": jobs,
            "tasks": len(frontier),
            "tasks_cancelled": supervisor.cancelled,
            **supervisor.acct,
        }
    )
    if obs.enabled:
        # the workers recorded their phases; this is the split's share
        split = obs.phase_report()
        obs.tracer.record_phases(split)
        merged.phase_times = merge_phase_times(merged.phase_times, split)
        obs.emit(
            "run_end",
            executions=merged.executions,
            blocked=merged.blocked,
            duplicates=merged.duplicates,
            errors=len(merged.errors),
            truncated=merged.truncated,
            elapsed=round(merged.elapsed, 6),
            stats=merged.stats.as_dict(),
            phases=merged.phase_times,
            jobs=jobs,
            tasks=len(frontier),
        )
        obs.finish(executions=merged.executions, blocked=merged.blocked)
    return merged
