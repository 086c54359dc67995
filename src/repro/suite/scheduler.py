"""The batch execution engine: one worker pool for a whole suite.

``run_suite`` takes an arbitrary mix of tasks — litmus tests, programs,
declarative ``.cat`` models, per-task options — and drives them all
through **one** :class:`~repro.core.parallel.PoolSupervisor`, instead
of spinning a pool up and down per verification the way N individual
``verify(jobs=...)`` calls would.  Scheduling is task-level:

* Each task is first looked up in the content-addressed
  :class:`~repro.suite.cache.ResultCache`; hits are served without
  touching the pool (``--force`` recomputes, ``--rerun-failed``
  re-runs only tasks whose cached result has errors or truncation).
* Every cache miss runs whole: one pool task with the task's own
  options, dispatched in the caller's order.  The pool parallelises
  across tasks only; splitting one search over workers is
  ``verify(jobs=N)``'s job.  Every pool task gets the supervisor's
  fault handling (timeout, retry, serial fallback).

Results are finalised *as they complete* — probe-evaluated (for litmus
tasks) with :func:`~repro.litmus.runner.verdict_from_result` so
batched verdicts are bit-identical to individual
:func:`~repro.litmus.run_litmus` calls, and written to the cache
immediately, so an interrupted suite resumes where it stopped on the
next run.
"""

from __future__ import annotations

import multiprocessing
import time

from dataclasses import dataclass

from ..core.config import (
    ExplorationOptions,
    check_task_timeout,
    resolve_options,
)
from ..core.explorer import effective_jobs
from ..core.parallel import PoolSupervisor, _model_spec, run_task
from ..core.report import from_dict
from ..lang import Program
from ..litmus.catalog import LitmusTest, get_litmus, litmus_names
from ..litmus.expectations import allowed
from ..litmus.runner import (
    LITMUS_DEFAULTS,
    LitmusVerdict,
    verdict_from_result,
)
from ..models import MemoryModel, get_model
from ..obs import NULL_OBSERVER
from .cache import ResultCache, task_key
from .result import SuiteResult, TaskResult


@dataclass(frozen=True)
class SuiteTask:
    """One unit of suite work: a program under a model with options.

    Build these with :func:`program_task`, :func:`litmus_task` or
    :func:`litmus_matrix` rather than directly — the constructors
    resolve model names and apply the right option defaults.
    """

    program: Program
    model: MemoryModel
    options: ExplorationOptions
    kind: str = "program"  #: "program" or "litmus"
    probe: LitmusTest | None = None  #: set iff kind == "litmus"

    @property
    def id(self) -> str:
        name = self.probe.name if self.probe is not None else self.program.name
        return f"{name}:{self.model.name}"


def program_task(
    program: Program,
    model: MemoryModel | str,
    *,
    options: ExplorationOptions | None = None,
    **option_overrides,
) -> SuiteTask:
    """A plain verification task.  Defaults ``stop_on_error=False`` so
    the suite reports full counts (compare/bench semantics); pass
    ``stop_on_error=True`` for fail-fast."""
    model = get_model(model) if isinstance(model, str) else model
    options = resolve_options(options, option_overrides, stop_on_error=False)
    return SuiteTask(program=program, model=model, options=options)


def litmus_task(
    test: LitmusTest | str,
    model: MemoryModel | str,
    *,
    options: ExplorationOptions | None = None,
    **option_overrides,
) -> SuiteTask:
    """A litmus verdict task, with :func:`~repro.litmus.run_litmus`'s
    option defaults so batched verdicts match individual calls."""
    if isinstance(test, str):
        test = get_litmus(test)
    model = get_model(model) if isinstance(model, str) else model
    options = resolve_options(options, option_overrides, **LITMUS_DEFAULTS)
    if not options.collect_executions:
        raise ValueError("litmus evaluation needs collect_executions")
    return SuiteTask(
        program=test.program,
        model=model,
        options=options,
        kind="litmus",
        probe=test,
    )


def litmus_matrix(
    tests=None,
    models=("sc", "tso", "ra"),
    *,
    options: ExplorationOptions | None = None,
    **option_overrides,
) -> list[SuiteTask]:
    """The full ``tests × models`` grid as suite tasks (every catalog
    test when ``tests`` is None)."""
    names = litmus_names() if tests is None else list(tests)
    grid = []
    for entry in names:
        test = entry if isinstance(entry, LitmusTest) else get_litmus(entry)
        for model in models:
            grid.append(
                litmus_task(
                    test, model, options=options, **option_overrides
                )
            )
    return grid


# -- coordinator side ------------------------------------------------------


@dataclass
class _Plan:
    """A cache-miss task scheduled for execution."""

    pos: int  #: index into the caller's task list
    task: SuiteTask
    key: str
    span: dict | None = None  #: the open suite-task span (tracer on)


def _expected(task: SuiteTask) -> bool | None:
    if task.kind != "litmus" or task.probe is None:
        return None
    try:
        return allowed(task.probe.name, task.model.name)
    except KeyError:
        return None


def _cached_task_result(
    task: SuiteTask, key: str, entry: dict
) -> TaskResult | None:
    """Rebuild a TaskResult from a cache entry, or None when the entry
    cannot serve this task (e.g. a litmus task whose entry predates
    verdict storage)."""
    observed = entry.get("observed")
    if task.kind == "litmus" and not isinstance(observed, bool):
        return None
    result = from_dict(entry["result"])
    verdict = None
    if task.kind == "litmus":
        verdict = LitmusVerdict(
            test=task.probe.name,
            model=task.model.name,
            observed=observed,
            executions=result.executions,
            duplicates=result.duplicates,
            elapsed=result.elapsed,
        )
    return TaskResult(
        task_id=task.id,
        kind=task.kind,
        program=task.program.name,
        model=task.model.name,
        key=key,
        cached=True,
        shards=0,
        result=result,
        verdict=verdict,
        expected=_expected(task),
    )


def run_suite(
    tasks,
    *,
    jobs: int | None = None,
    cache=None,
    force: bool = False,
    rerun_failed: bool = False,
    task_timeout: float | None = None,
    task_retries: int = 2,
    observer=NULL_OBSERVER,
    seed: int = 0,
    supervisor: PoolSupervisor | None = None,
) -> SuiteResult:
    """Run every task in ``tasks`` through one shared worker pool, one
    whole task per pool job, in the caller's order.

    ``jobs`` follows :func:`~repro.core.explorer.effective_jobs`
    resolution (None → ``REPRO_JOBS`` or serial; 0 → one per CPU).
    ``cache`` is a :class:`ResultCache`, a directory path, None for
    the default store (``REPRO_SUITE_CACHE_DIR`` or
    ``.repro/suite-cache``), or False to disable caching.  ``force``
    recomputes everything; ``rerun_failed`` recomputes only tasks whose
    cached result has errors or was truncated.  ``task_timeout`` /
    ``task_retries`` are the pool's fault knobs; ``task_timeout``
    follows :func:`~repro.core.config.check_task_timeout`.

    ``supervisor`` lets a long-lived caller (the verification service)
    pass its own :class:`~repro.core.parallel.PoolSupervisor` so idle
    worker processes stay warm across suites; the caller owns its
    lifetime.  A pool this run starts itself is closed before it
    returns.

    ``seed`` is accepted for compatibility and ignored: nothing in a
    suite run is random.  A pooled run never splits a task; use
    ``verify(jobs=N)`` to spread one search over workers.
    """
    check_task_timeout(task_timeout)
    tasks = list(tasks)
    start = time.perf_counter()
    jobs = effective_jobs(ExplorationOptions(jobs=jobs))
    store = None
    if cache is not False:
        store = cache if isinstance(cache, ResultCache) else ResultCache(cache)

    obs = observer
    tracer = obs.tracer
    results: dict[int, TaskResult] = {}
    plans: list[_Plan] = []

    # -- cache pass -------------------------------------------------------
    for pos, task in enumerate(tasks):
        key = task_key(
            task.program,
            task.model,
            task.options,
            kind=task.kind,
            probe=task.probe.name if task.probe is not None else None,
        )
        served = None
        if store is not None and not force:
            entry = store.load(key)
            if entry is not None:
                served = _cached_task_result(task, key, entry)
                if served is not None and rerun_failed and (
                    served.result.errors or served.result.truncated
                ):
                    served = None
        if served is not None:
            results[pos] = served
            if tracer.enabled:
                # a near-instant span so cache hits show on the timeline
                tracer.end_span(
                    tracer.start_span(
                        f"suite:{task.id}", cat="task", cached=True
                    ),
                    executions=served.result.executions,
                )
            if obs.trace_enabled:
                obs.emit(
                    "suite_task_cached",
                    task=task.id,
                    executions=served.result.executions,
                )
        else:
            plans.append(_Plan(pos=pos, task=task, key=key))

    def _complete(job: int, value) -> bool:
        result, snapshot = value
        obs.absorb(snapshot, worker=job)
        plan = plans[job]
        task = plan.task
        verdict = None
        if task.kind == "litmus":
            verdict = verdict_from_result(task.probe, task.model.name, result)
        if store is not None:
            store.store(
                plan.key,
                result,
                task={
                    "id": task.id,
                    "kind": task.kind,
                    "program": task.program.name,
                    "model": task.model.name,
                },
                observed=verdict.observed if verdict is not None else None,
            )
        results[plan.pos] = TaskResult(
            task_id=task.id,
            kind=task.kind,
            program=task.program.name,
            model=task.model.name,
            key=plan.key,
            cached=False,
            shards=1,
            result=result,
            verdict=verdict,
            expected=_expected(task),
        )
        if plan.span is not None:
            tracer.end_span(
                plan.span,
                executions=result.executions,
                errors=len(result.errors),
            )
        if obs.trace_enabled:
            obs.emit(
                "suite_task_done",
                task=task.id,
                executions=result.executions,
                errors=len(result.errors),
                observed=verdict.observed if verdict is not None else None,
            )
        return False  # a suite never stops early: other tasks are independent

    if tracer.enabled:
        # a detached span per scheduled task: lifetimes overlap (N tasks
        # in flight on the pool), so the nesting stack can't carry them;
        # workers parent their explore spans on it
        for plan in plans:
            plan.span = tracer.start_span(
                f"suite:{plan.task.id}", cat="task", kind=plan.task.kind
            )

    acct: dict = {}
    payloads = [
        (
            plan.task.program,
            _model_spec(plan.task.model),
            plan.task.options,
            None,
            obs.context(plan.span),
        )
        for plan in plans
    ]
    if jobs > 1 and payloads:
        if obs.trace_enabled:
            obs.emit("suite_dispatch", tasks=len(payloads), jobs=jobs)
        pool = supervisor or PoolSupervisor(
            multiprocessing.get_context(), min(jobs, len(payloads))
        )
        try:
            pool.run(
                run_task,
                payloads,
                _complete,
                task_timeout=task_timeout,
                task_retries=task_retries,
                observer=obs,
            )
        finally:
            if pool is not supervisor:
                pool.close()
        acct = dict(pool.acct)
    else:
        for job, payload in enumerate(payloads):
            _complete(job, run_task(job, 0, payload))

    suite = SuiteResult(
        tasks=[results[pos] for pos in sorted(results)],
        jobs=jobs,
        elapsed=time.perf_counter() - start,
        pool_tasks=len(plans),
        acct=acct,
        meta={
            "cache_dir": store.root if store is not None else None,
            "forced": force,
        },
    )
    if obs.trace_enabled:
        obs.emit(
            "suite_done",
            tasks=len(suite.tasks),
            cache_hits=suite.cache_hits,
            pool_tasks=len(plans),
        )
    return suite
