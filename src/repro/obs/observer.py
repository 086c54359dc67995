"""The observer facade the checker is instrumented against.

Instrumented code (``core/explorer.py``, ``core/revisits.py``,
``models/base.py``, the baselines) talks to exactly one small
interface — ``phase``/``emit``/``inc``/``tick`` — and never knows
whether anything is listening.  Two implementations exist:

* :data:`NULL_OBSERVER`, the default: every method is a no-op and
  ``enabled``/``trace_enabled`` are False, so hot paths can guard any
  non-trivial argument construction behind a plain attribute check.
  This is what makes the instrumentation cost ~nothing when off.
* :class:`Observer`, which fans out to a
  :class:`~repro.obs.metrics.MetricsRegistry`, an optional
  :class:`~repro.obs.trace.TraceWriter` and an optional
  :class:`~repro.obs.progress.ProgressReporter`.

A coordinator that splits a run into tasks (``verify(jobs=N)``,
``run_suite``) hands each task one :class:`TaskContext` from
:meth:`Observer.context`; the task runs under the child observer the
context builds, and the child's :meth:`~Observer.snapshot` comes back
through :meth:`Observer.absorb`.  That is the only way worker
telemetry returns, whether the task ran in a pool worker or in the
coordinator's own process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .metrics import MetricsRegistry
from .progress import ProgressReporter
from .spans import NULL_TRACER, SpanTracer
from .trace import FileSink, MemorySink, TraceWriter, read_trace_prefix


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullContext()


class NullObserver:
    """Observer that observes nothing, as cheaply as possible."""

    #: False ⇒ skip metric/phase work (and arg construction) entirely
    enabled: bool = False
    #: False ⇒ skip building trace-record fields entirely
    trace_enabled: bool = False
    #: the span tracer (NULL by default; see repro.obs.spans)
    tracer = NULL_TRACER

    def phase(self, name: str):
        return _NULL_CTX

    def emit(self, type_: str, **fields) -> None:
        pass

    def inc(self, name: str, by: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def tick(self, **counts) -> None:
        pass

    def phase_report(self) -> dict:
        return {}

    def metrics_snapshot(self) -> dict:
        return {}

    def context(self, span=None) -> "TaskContext | None":
        return None

    def snapshot(self) -> dict:
        return {}

    def absorb(self, snapshot: dict, worker: int) -> None:
        pass

    def finish(self, **counts) -> None:
        pass

    def close(self) -> None:
        pass


#: the shared do-nothing observer; safe to use from anywhere
NULL_OBSERVER = NullObserver()


class Observer(NullObserver):
    """Fan observations out to metrics, an optional trace and an
    optional progress reporter."""

    enabled = True

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceWriter | None = None,
        progress: ProgressReporter | None = None,
        tracer=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        self.progress = progress
        self.trace_enabled = trace is not None
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- construction helpers -------------------------------------------

    @classmethod
    def to_file(
        cls,
        path: str,
        progress: ProgressReporter | None = None,
        buffer_size: int = 512,
    ) -> "Observer":
        """An observer tracing to a JSONL file at ``path``."""
        return cls(
            trace=TraceWriter(FileSink(path, buffer_size=buffer_size)),
            progress=progress,
        )

    @classmethod
    def in_memory(
        cls, capacity: int = 10_000, progress: ProgressReporter | None = None
    ) -> "Observer":
        """An observer tracing into a bounded in-memory ring buffer."""
        return cls(
            trace=TraceWriter(MemorySink(capacity)), progress=progress
        )

    # -- the instrumented interface -------------------------------------

    def phase(self, name: str):
        return self.metrics.phase(name)

    def emit(self, type_: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(type_, **fields)

    def inc(self, name: str, by: float = 1) -> None:
        self.metrics.inc(name, by)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def tick(self, **counts) -> None:
        if self.progress is not None:
            self.progress.tick(**counts)

    # -- reporting -------------------------------------------------------

    def phase_report(self) -> dict:
        return self.metrics.phase_report()

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    # -- tasks -----------------------------------------------------------

    def context(self, span=None) -> "TaskContext":
        """The telemetry hand-off for one task.  Its spans hang under
        ``span`` (a span dict), or under the current span when None."""
        if span is None:
            current = self.tracer.current_context()
            span_id = current["span_id"] if current is not None else None
        else:
            span_id = span["span_id"]
        trace_path = None
        if self.trace is not None and isinstance(self.trace.sink, FileSink):
            trace_path = self.trace.sink.path
        return TaskContext(
            self,
            trace_path,
            self.tracer.trace_id if self.tracer.enabled else None,
            span_id,
        )

    def snapshot(self) -> dict:
        """What a task hands back to its coordinator: counters, gauges
        and histograms as plain picklable data.  Phase timings are left
        out; they travel in ``VerificationResult.phase_times``."""
        snap = self.metrics.snapshot()
        del snap["phases"]
        return snap

    def absorb(self, snapshot: dict, worker: int) -> None:
        """Fold one task's :meth:`snapshot` into this observer.

        Counters and histograms sum and gauges keep the maximum; the
        task's finished spans join this tracer; and the records of the
        task's trace file are re-emitted here, tagged ``worker`` and
        re-stamped with this trace's ``seq``/``ts`` (its
        ``trace_start`` is dropped, so the trace keeps one header).  A
        file cut off mid-record contributes its valid prefix plus a
        ``trace_truncated`` marker; a missing file contributes nothing.
        A folded file is removed: its records now live in this trace.
        """
        self.metrics.merge_snapshot(snapshot)
        self.tracer.absorb(snapshot.get("spans"))
        path = snapshot.get("trace")
        if path is None:
            return
        try:
            records, truncated = read_trace_prefix(path)
        except OSError:
            return
        for record in records:
            type_ = record.pop("t")
            if type_ == "trace_start":
                continue
            record.pop("seq", None)
            record.pop("ts", None)
            self.emit(type_, worker=worker, **record)
        if truncated:
            self.emit("trace_truncated", worker=worker, kept=len(records))
        try:
            os.remove(path)
        except OSError:
            pass

    def records(self) -> list[dict]:
        """The buffered records, when tracing to a MemorySink."""
        if self.trace is not None and isinstance(self.trace.sink, MemorySink):
            return list(self.trace.sink.records)
        return []

    def finish(self, **counts) -> None:
        if self.progress is not None:
            self.progress.finish(**counts)

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()


class TaskObserver(Observer):
    """The child observer one task runs under (see :class:`TaskContext`).

    It owns its metrics registry, so the task's ``phase_times`` cover
    that task alone.  In a pool worker it also owns its trace file and
    span tracer, and :meth:`snapshot` hands both back.  In the
    coordinator's process it shares the coordinator's trace writer,
    tracer and progress reporter, whose records and spans then need no
    fold, and :meth:`close` leaves them open.
    """

    def __init__(self, shared: bool, **parts) -> None:
        super().__init__(**parts)
        self.shared = shared

    def snapshot(self) -> dict:
        snap = super().snapshot()
        if not self.shared:
            snap["spans"] = self.tracer.snapshot()
            if self.trace is not None:
                snap["trace"] = self.trace.sink.path
        return snap

    def close(self) -> None:
        if not self.shared:
            super().close()


@dataclass(frozen=True)
class TaskContext:
    """A coordinator's telemetry, handed to one task.

    Picklable, so it rides in pool task payloads.  Pickling leaves the
    live coordinator behind: a pool worker builds its own observer,
    tracing to ``<trace_path>.worker<i>[.retry<k>]`` when the
    coordinator traces to a file, and recording spans under
    ``span_id`` when it records spans.  Used in the coordinator's own
    process, the context builds a child that shares the coordinator's
    trace writer, tracer and progress reporter.
    """

    parent: Observer | None
    trace_path: str | None
    trace_id: str | None
    span_id: str | None

    def __reduce__(self):
        return (
            TaskContext,
            (None, self.trace_path, self.trace_id, self.span_id),
        )

    def observer(self, worker: int, attempt: int) -> TaskObserver:
        """The child observer for one attempt of task ``worker``."""
        parent = self.parent
        if parent is not None:
            return TaskObserver(
                shared=True,
                trace=parent.trace,
                progress=parent.progress,
                tracer=parent.tracer,
            )
        trace = None
        if self.trace_path is not None:
            # a retry must not clobber what a failed attempt left behind
            path = f"{self.trace_path}.worker{worker}"
            if attempt:
                path += f".retry{attempt}"
            trace = TraceWriter(FileSink(path))
        tracer = None
        if self.trace_id is not None:
            tracer = SpanTracer(
                trace_id=self.trace_id, remote_parent=self.span_id
            )
        return TaskObserver(shared=False, trace=trace, tracer=tracer)
