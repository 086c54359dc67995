"""The service executor: queued jobs onto one long-lived worker pool.

One :class:`JobExecutor` thread owns exactly one
:class:`~repro.core.parallel.PoolSupervisor` and drives every job
through :func:`repro.suite.run_suite` with it — the same engine, the
same pool, the same PR-3 crash/hang/retry semantics as a direct
``run_suite`` call, but with worker processes (and the result cache,
and every model registry) staying hot across requests.  A ``verify``
or ``litmus`` job is simply a one-task suite, so all three kinds share
one execution path and one cache.

Progress streaming rides the existing observer/trace layer: each job
runs under an :class:`~repro.obs.Observer` whose trace sink appends
records straight onto the job's event ring
(``suite_task_cached`` / ``suite_dispatch`` / ``suite_task_done`` /
``run_end`` ...), which ``GET /v1/jobs/<id>/events`` serves as NDJSON.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

from ..core.explorer import effective_jobs
from ..core.config import ExplorationOptions
from ..core.parallel import PoolSupervisor
from ..core.report import to_dict
from ..obs import Observer, TraceWriter
from ..obs.spans import SpanTracer
from ..suite import build_suite_manifest, run_suite
from ..suite.cache import ResultCache
from .protocol import CANCELLED, DONE, FAILED, RUNNING, Job


class ServiceStats:
    """Thread-safe counters behind ``/metrics`` and ``Retry-After``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.time()
        self.submitted = 0
        self.rejected = 0
        self.jobs = {DONE: 0, FAILED: 0, CANCELLED: 0}
        self.cache_hits = 0
        self.executions = 0
        self.job_seconds = 0.0
        self.inflight = 0
        self.events_dropped = 0

    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_started(self) -> None:
        with self._lock:
            self.inflight += 1

    def record_finished(
        self,
        state: str,
        *,
        seconds: float = 0.0,
        cache_hits: int = 0,
        executions: int = 0,
    ) -> None:
        with self._lock:
            self.inflight = max(0, self.inflight - 1)
            self.jobs[state] = self.jobs.get(state, 0) + 1
            self.cache_hits += cache_hits
            self.executions += executions
            self.job_seconds += seconds

    def record_events_dropped(self, count: int) -> None:
        with self._lock:
            self.events_dropped += count

    def record_cancelled_queued(self) -> None:
        with self._lock:
            self.jobs[CANCELLED] = self.jobs.get(CANCELLED, 0) + 1

    def avg_job_seconds(self) -> float:
        with self._lock:
            finished = sum(self.jobs.values())
            return self.job_seconds / finished if finished else 0.0

    def snapshot(self, queue_depth: int = 0) -> dict:
        """The dict :func:`repro.obs.export.service_families` renders."""
        with self._lock:
            return {
                "jobs": dict(self.jobs),
                "queue_depth": queue_depth,
                "inflight": self.inflight,
                "submitted": self.submitted,
                "rejected": self.rejected,
                "cache_hits": self.cache_hits,
                "executions": self.executions,
                "events_dropped": self.events_dropped,
                "uptime_seconds": time.time() - self.started,
            }


class _JobEventSink:
    """A trace sink that appends records to a job's event ring.

    Plugged into a :class:`~repro.obs.TraceWriter`, so the exact
    records the JSONL trace layer would write to disk become the job's
    streamable progress events (minus the writer's own seq/ts stamps —
    the ring re-stamps with job-level sequence numbers).
    """

    def __init__(self, job: Job) -> None:
        self.job = job

    def write(self, record: dict) -> None:
        fields = {
            k: v for k, v in record.items() if k not in ("t", "seq", "ts")
        }
        self.job.add_event(record.get("t", "trace"), **fields)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JobExecutor(threading.Thread):
    """The single thread that executes queued jobs, in order.

    One executor means jobs never compete for the pool: a ``verify``
    or ``litmus`` job runs whole on one worker, and a ``suite`` job
    spreads its tasks over all ``jobs`` workers, which is the right
    shape for a verification server — latency of the job at the head
    of the queue beats fairness games.
    """

    daemon = True

    def __init__(
        self,
        queue,
        stats: ServiceStats,
        *,
        jobs: int | None = None,
        cache=None,
        task_timeout: float | None = None,
        task_retries: int = 2,
        runs_dir: str | None = None,
        save_runs: bool = False,
    ) -> None:
        super().__init__(name="repro-service-executor")
        self.queue = queue
        self.stats = stats
        self.jobs = effective_jobs(ExplorationOptions(jobs=jobs))
        if cache is False:
            self.cache = False
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.runs_dir = runs_dir
        self.save_runs = save_runs
        self._supervisor: PoolSupervisor | None = None
        self._halt = threading.Event()
        self._drain = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def request_drain(self) -> None:
        """Finish everything already accepted, then exit the loop."""
        self._drain.set()
        self.queue.close()

    def request_stop(self) -> None:
        """Exit as soon as the in-flight job (if any) completes."""
        self._halt.set()
        self.queue.close()

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                job = self.queue.get(timeout=0.1)
                if job is None:
                    if self._drain.is_set() and self.queue.empty():
                        break
                    continue
                self._execute(job)
        finally:
            self._close_pool()

    def _close_pool(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    def _pool(self) -> PoolSupervisor | None:
        """The one supervisor, created on first parallel job; its idle
        workers stay warm until shutdown closes it."""
        if self.jobs <= 1:
            return None
        if self._supervisor is None:
            self._supervisor = PoolSupervisor(
                multiprocessing.get_context(), self.jobs
            )
        return self._supervisor

    # -- execution --------------------------------------------------------

    def _execute(self, job: Job) -> None:
        if not job.transition(RUNNING):
            return  # cancelled while queued, between pop and start
        self.stats.record_started()
        started = time.perf_counter()
        writer = TraceWriter(_JobEventSink(job))
        # every finished span — the job span, suite-task spans, absorbed
        # worker spans — streams onto the event ring as a t="span" record
        tracer = SpanTracer(
            trace_id=job.trace_id,
            remote_parent=(
                job.span_context.get("span_id")
                if job.span_context is not None
                else None
            ),
            on_finish=lambda span: writer.emit("span", **span),
        )
        observer = Observer(trace=writer, tracer=tracer)
        try:
            timeout = (
                job.submission.task_timeout
                if job.submission.task_timeout is not None
                else self.task_timeout
            )
            with tracer.span(
                f"job:{job.submission.kind}", cat="job", job=job.id
            ):
                suite = run_suite(
                    job.submission.tasks,
                    jobs=self.jobs,
                    cache=self.cache,
                    task_timeout=timeout,
                    task_retries=self.task_retries,
                    observer=observer,
                    supervisor=self._pool(),
                )
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.spans.extend(tracer.snapshot())
            job.spans_dropped = tracer.dropped
            self.stats.record_finished(
                FAILED, seconds=time.perf_counter() - started
            )
            job.fail(f"{type(exc).__name__}: {exc}")
            return
        finally:
            observer.close()
        job.spans.extend(tracer.snapshot())
        job.spans_dropped = tracer.dropped
        payload = self._payload(job, suite)
        self._maybe_save_run(job, suite)
        self.stats.record_finished(
            DONE,
            seconds=time.perf_counter() - started,
            cache_hits=suite.cache_hits,
            executions=sum(t.result.executions for t in suite.tasks),
        )
        job.finish(payload)

    def _payload(self, job: Job, suite) -> dict:
        """The result document ``GET /v1/jobs/<id>/result`` serves."""
        kind = job.submission.kind
        payload: dict = {
            "kind": kind,
            "job": job.id,
            "elapsed": round(suite.elapsed, 6),
            "cache_hits": suite.cache_hits,
            "jobs": suite.jobs,
        }
        if kind == "suite":
            payload["manifest"] = build_suite_manifest(
                suite, command=f"service job {job.id}"
            )
            return payload
        task = suite.tasks[0]
        payload["cached"] = task.cached
        payload["result"] = to_dict(task.result)
        if task.verdict is not None:
            verdict = task.verdict
            payload["verdict"] = {
                "test": verdict.test,
                "model": verdict.model,
                "observed": verdict.observed,
                "executions": verdict.executions,
                "duplicates": verdict.duplicates,
                "elapsed": round(verdict.elapsed, 6),
            }
            payload["expected"] = task.expected
        return payload

    def _maybe_save_run(self, job: Job, suite) -> None:
        if not self.save_runs:
            return
        from ..obs import RunStore

        try:
            manifest = build_suite_manifest(
                suite, command=f"service job {job.id} ({job.submission.label})"
            )
            path = RunStore(self.runs_dir).save(manifest)
            job.add_event("run_saved", path=path)
        except OSError as exc:  # pragma: no cover - disk trouble
            job.add_event("run_save_failed", error=str(exc))
