"""Versioned wire protocol for the verification service.

Everything that crosses the HTTP boundary is defined here: the submit
payload schema (with byte-size caps and a strict field whitelist, so a
malformed or hostile request dies with a 400 before it touches the
engine), the job lifecycle state machine, and the :class:`Job` record
the server keeps per submission.

A submit payload is a JSON object::

    {
      "v": 1,                      # protocol version (optional)
      "kind": "verify" | "litmus" | "suite",
      "priority": "high" | "normal" | "low",      # or 0 / 1 / 2
      "task_timeout": 30.0,        # per-job hang recovery (optional)

      # kind == "verify": one program under one model
      "program": {"litmus": "SB"}            # catalog program
               | {"family": "sb", "n": 3}    # workload family
               | {"source": "<litmus text>"} # column-format source
      "model": "tso" | {"cat": "<.cat source>", "name": "mine"},
      "options": {"max_executions": 100, ...},    # whitelisted knobs

      # kind == "litmus": one probe verdict
      "test": "SB" | {"source": "<litmus text>"},
      "model": ...as above...,

      # kind == "suite": a tests x models matrix
      "tests": ["SB", "MP"] | null,           # null = whole corpus
      "models": ["sc", "tso", {"cat": ...}],
    }

Validation resolves names and parses sources eagerly, so an unknown
litmus test or a broken ``.cat`` model is a 400 at submit time, never
a failed job.  The jobs the validator builds are exactly the
:class:`~repro.suite.scheduler.SuiteTask` objects the direct API uses,
which is what makes service results bit-identical to in-process calls.
"""

from __future__ import annotations

import threading
import time
import uuid

from ..core.config import ExplorationOptions, check_task_timeout
from ..obs.spans import make_span, new_trace_id

#: bump on incompatible changes to the submit/status/result schemas
PROTOCOL_VERSION = 1

#: hard cap on a request body (the server rejects larger with 413)
MAX_BODY_BYTES = 1 << 20

#: cap on any embedded source text (litmus or .cat)
MAX_SOURCE_BYTES = 256 << 10

#: cap on tests x models in one suite submission
MAX_SUITE_TASKS = 1024

#: cap on a workload family's size parameter
MAX_WORKLOAD_N = 64

#: per-job ring buffer of progress events (oldest dropped beyond this)
MAX_JOB_EVENTS = 4096

# -- job lifecycle ----------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job can never leave
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: the legal state machine (see docs/SERVICE.md)
TRANSITIONS = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

PRIORITIES = {"high": 0, "normal": 1, "low": 2}
PRIORITY_NAMES = {value: name for name, value in PRIORITIES.items()}

#: exploration knobs a remote caller may set; scheduling fields stay
#: server-owned (the pool belongs to the server, not the request)
ALLOWED_OPTION_FIELDS = frozenset(
    {
        "max_executions",
        "max_explored",
        "max_events",
        "stop_on_error",
        "deduplicate",
        "backward_revisits",
        "maximality_check",
        "incremental_checks",
    }
)

VALID_KINDS = ("verify", "litmus", "suite")


class ProtocolError(ValueError):
    """A request the protocol rejects; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def parse_priority(value) -> int:
    if value is None:
        return PRIORITIES["normal"]
    if isinstance(value, str):
        try:
            return PRIORITIES[value]
        except KeyError:
            raise ProtocolError(
                f"unknown priority {value!r}; "
                f"use {'/'.join(PRIORITIES)} or 0..2"
            ) from None
    if isinstance(value, int) and not isinstance(value, bool):
        if value in PRIORITY_NAMES:
            return value
        raise ProtocolError(f"priority must be 0..2, got {value}")
    raise ProtocolError(f"priority must be a name or 0..2, got {value!r}")


def parse_options(raw) -> dict:
    """Validate the ``options`` object into keyword overrides."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError("options must be an object")
    unknown = sorted(set(raw) - ALLOWED_OPTION_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown option field(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(ALLOWED_OPTION_FIELDS))}"
        )
    overrides = dict(raw)
    try:
        # borrow ExplorationOptions' own range validation
        ExplorationOptions(**overrides)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid options: {exc}") from None
    return overrides


def parse_task_timeout(value) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("task_timeout must be a number of seconds")
    try:
        return float(check_task_timeout(value))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _source_text(value, what: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"{what} source must be a non-empty string")
    if len(value.encode()) > MAX_SOURCE_BYTES:
        raise ProtocolError(
            f"{what} source exceeds {MAX_SOURCE_BYTES} bytes", status=413
        )
    return value


def resolve_model(spec):
    """A model name or ``{"cat": source}`` into something the suite
    constructors accept (a name string or a loaded CatModel)."""
    if isinstance(spec, str):
        from ..models import get_model

        try:
            get_model(spec)
        except (KeyError, TypeError) as exc:
            raise ProtocolError(str(exc)) from None
        return spec
    if isinstance(spec, dict) and "cat" in spec:
        from ..cat import CatError, CatModel
        from ..cat.lint import lint_source

        source = _source_text(spec["cat"], ".cat model")
        name = spec.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("model name must be a string")
        try:
            for diag in lint_source(source):
                if diag.severity == "error":
                    raise ProtocolError(f".cat model: {diag.message}")
            return CatModel.from_source(source, name=name)
        except CatError as exc:
            raise ProtocolError(f".cat model: {exc}") from None
    raise ProtocolError(
        'model must be a registered name or {"cat": "<source>"}'
    )


def resolve_litmus(spec):
    """A test name or ``{"source": text}`` into a LitmusTest."""
    from ..litmus import get_litmus
    from ..litmus.parser import LitmusParseError, parse_litmus

    if isinstance(spec, str):
        try:
            return get_litmus(spec)
        except KeyError:
            from ..litmus import litmus_names

            raise ProtocolError(
                f"unknown litmus test {spec!r}; "
                f"known: {', '.join(litmus_names())}"
            ) from None
    if isinstance(spec, dict) and "source" in spec:
        source = _source_text(spec["source"], "litmus")
        try:
            return parse_litmus(source)
        except LitmusParseError as exc:
            raise ProtocolError(f"litmus source: {exc}") from None
    raise ProtocolError(
        'test must be a catalog name or {"source": "<litmus text>"}'
    )


def resolve_program(spec):
    """A program spec into a Program (see the module docstring)."""
    if not isinstance(spec, dict):
        raise ProtocolError("program must be an object")
    if "litmus" in spec:
        return resolve_litmus(spec["litmus"]).program
    if "source" in spec:
        return resolve_litmus({"source": spec["source"]}).program
    if "family" in spec:
        family = spec["family"]
        n = spec.get("n", 2)
        if not isinstance(family, str):
            raise ProtocolError("program family must be a string")
        if (
            isinstance(n, bool)
            or not isinstance(n, int)
            or not 1 <= n <= MAX_WORKLOAD_N
        ):
            raise ProtocolError(f"program n must be 1..{MAX_WORKLOAD_N}")
        from ..bench import workloads
        from ..bench.datastructures import DATA_STRUCTURES

        factory = workloads.FAMILIES.get(family) or DATA_STRUCTURES.get(
            family
        )
        if factory is None:
            known = sorted(
                list(workloads.FAMILIES) + list(DATA_STRUCTURES)
            )
            raise ProtocolError(
                f"unknown family {family!r}; known: {', '.join(known)}"
            )
        return factory(n)
    raise ProtocolError(
        'program must carry "litmus", "family" or "source"'
    )


class Submission:
    """A validated submit payload, resolved to runnable suite tasks."""

    __slots__ = ("kind", "priority", "task_timeout", "label", "tasks")

    def __init__(self, kind, priority, task_timeout, label, tasks):
        self.kind = kind
        self.priority = priority
        self.task_timeout = task_timeout
        self.label = label
        self.tasks = tasks


def validate_submit(payload) -> Submission:
    """Validate one submit payload into a :class:`Submission`.

    Raises :class:`ProtocolError` (status 400/413) on anything that is
    not a well-formed, in-bounds request.
    """
    from ..suite import litmus_matrix, litmus_task, program_task

    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in VALID_KINDS:
        raise ProtocolError(
            f"kind must be one of {'/'.join(VALID_KINDS)}, got {kind!r}"
        )
    known_fields = {
        "v", "kind", "priority", "task_timeout", "options",
        "program", "test", "model", "tests", "models",
    }
    unknown = sorted(set(payload) - known_fields)
    if unknown:
        raise ProtocolError(f"unknown field(s): {', '.join(unknown)}")
    priority = parse_priority(payload.get("priority"))
    task_timeout = parse_task_timeout(payload.get("task_timeout"))
    overrides = parse_options(payload.get("options"))

    if kind == "verify":
        program = resolve_program(payload.get("program"))
        model = resolve_model(payload.get("model", "sc"))
        task = program_task(program, model, **overrides)
        label = task.id
        tasks = [task]
    elif kind == "litmus":
        test = resolve_litmus(payload.get("test"))
        model = resolve_model(payload.get("model", "sc"))
        try:
            task = litmus_task(test, model, **overrides)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        label = task.id
        tasks = [task]
    else:  # suite
        raw_tests = payload.get("tests")
        if raw_tests is not None:
            if not isinstance(raw_tests, list) or not raw_tests:
                raise ProtocolError("tests must be null or a non-empty list")
            tests = [resolve_litmus(entry) for entry in raw_tests]
        else:
            tests = None
        raw_models = payload.get("models")
        if not isinstance(raw_models, list) or not raw_models:
            raise ProtocolError("models must be a non-empty list")
        models = [resolve_model(entry) for entry in raw_models]
        from ..litmus import litmus_names

        n_tests = len(tests) if tests is not None else len(litmus_names())
        if n_tests * len(models) > MAX_SUITE_TASKS:
            raise ProtocolError(
                f"suite too large: {n_tests} tests x {len(models)} models "
                f"> {MAX_SUITE_TASKS} tasks",
                status=413,
            )
        try:
            tasks = litmus_matrix(tests, models=models, **overrides)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        label = f"suite[{len(tasks)}]"
    return Submission(kind, priority, task_timeout, label, tasks)


# -- the server-side job record ---------------------------------------------


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


class Job:
    """One accepted submission: state, progress events, final payload.

    Thread-safe: HTTP handler threads read status and wait on events
    while the executor thread drives the state machine.  Events form a
    bounded ring with absolute sequence numbers, so a streaming client
    that falls behind sees an ``events_dropped`` marker instead of
    silently missing records.
    """

    def __init__(self, submission: Submission, job_id: str | None = None):
        self.id = job_id if job_id is not None else new_job_id()
        self.submission = submission
        self.state = QUEUED
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.error: str | None = None
        self.payload: dict | None = None
        #: the job's trace id: every span this job produces — the HTTP
        #: submit span, the executor's job span, suite-task and worker
        #: subtree spans — shares it (see repro.obs.spans)
        self.trace_id = new_trace_id()
        #: the propagation token the executor parents the job span on
        #: (set by note_submit_span)
        self.span_context: dict | None = None
        #: finished span records (the submit span immediately; the full
        #: set once the executor finishes the job)
        self.spans: list[dict] = []
        #: spans lost to the executor tracer's bounded ring
        self.spans_dropped = 0
        #: events lost to the bounded event ring (exported as
        #: repro_service_events_dropped_total)
        self.events_dropped = 0
        #: called with the drop count whenever ring capacity evicts
        #: events (the server wires this to ServiceStats)
        self.on_drop = None
        self._cond = threading.Condition()
        self._events: list[dict] = []
        self._first_seq = 1  # seq of the oldest retained event
        self._next_seq = 1
        self.add_event("job_queued", kind=submission.kind,
                       label=submission.label, priority=submission.priority,
                       trace_id=self.trace_id)

    # -- events -----------------------------------------------------------

    def add_event(self, type_: str, **fields) -> None:
        on_drop = None
        dropped = 0
        with self._cond:
            record = {"seq": self._next_seq, "t": type_, "ts": time.time()}
            record.update(fields)
            self._next_seq += 1
            self._events.append(record)
            if len(self._events) > MAX_JOB_EVENTS:
                dropped = len(self._events) - MAX_JOB_EVENTS
                del self._events[:dropped]
                self._first_seq = self._events[0]["seq"]
                self.events_dropped += dropped
                on_drop = self.on_drop
            self._cond.notify_all()
        if on_drop is not None:
            # outside the lock: the hook takes the stats lock
            on_drop(dropped)

    def note_submit_span(self, started: float) -> None:
        """Record the HTTP submit as this trace's root span (``started``
        is the ``time.time()`` the handler began processing) and derive
        the propagation token the executor adopts."""
        span = make_span(
            "http:submit",
            trace_id=self.trace_id,
            start=started,
            dur=time.time() - started,
            cat="http",
            attrs={"job": self.id, "kind": self.submission.kind,
                   "label": self.submission.label},
        )
        self.span_context = {
            "trace_id": self.trace_id,
            "span_id": span["span_id"],
        }
        self.spans.append(span)
        self.add_event("span", **span)

    def events_since(self, since: int) -> tuple[list[dict], int]:
        """Events with ``seq > since`` plus the new cursor; prefixes an
        ``events_dropped`` marker when the ring already lost some."""
        with self._cond:
            out: list[dict] = []
            if since + 1 < self._first_seq:
                out.append(
                    {
                        "seq": since,
                        "t": "events_dropped",
                        "dropped": self._first_seq - since - 1,
                    }
                )
            out.extend(e for e in self._events if e["seq"] > since)
            return out, self._next_seq - 1

    def wait_event(self, since: int, timeout: float) -> bool:
        """Block until an event newer than ``since`` exists (or the job
        is terminal, or ``timeout`` elapses)."""
        with self._cond:
            if self._next_seq - 1 > since or self.state in TERMINAL_STATES:
                return True
            return self._cond.wait(timeout)

    def wait_terminal(self, timeout: float) -> bool:
        """Block until the job is terminal (or ``timeout`` elapses);
        returns whether it is."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.state in TERMINAL_STATES, timeout
            )

    # -- the state machine ------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str, **fields) -> bool:
        """Move to ``state`` if the machine allows it; returns whether
        the move happened (a cancel racing a start simply loses)."""
        with self._cond:
            if state not in TRANSITIONS[self.state]:
                return False
            self.state = state
            now = time.time()
            if state == RUNNING:
                self.started = now
            elif state in TERMINAL_STATES:
                self.finished = now
        self.add_event(f"job_{state}", **fields)
        return True

    def cancel_if_queued(self) -> bool:
        """Atomically cancel a still-queued job.  A job the executor
        already started runs to completion (the worker pool has no
        safe mid-exploration abort), so this is the only cancel path
        the server exposes."""
        with self._cond:
            if self.state != QUEUED:
                return False
            self.state = CANCELLED
            self.finished = time.time()
        self.add_event("job_cancelled")
        return True

    def finish(self, payload: dict) -> None:
        self.payload = payload
        self.transition(DONE)

    def fail(self, error: str) -> None:
        self.error = error
        self.transition(FAILED, error=error)

    # -- rendering --------------------------------------------------------

    def status(self) -> dict:
        with self._cond:
            return {
                "v": PROTOCOL_VERSION,
                "id": self.id,
                "kind": self.submission.kind,
                "label": self.submission.label,
                "state": self.state,
                "priority": PRIORITY_NAMES[self.submission.priority],
                "tasks": len(self.submission.tasks),
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "error": self.error,
                "events": self._next_seq - 1,
                "events_dropped": self.events_dropped,
                "trace_id": self.trace_id,
                "spans": len(self.spans),
                "result_ready": self.payload is not None,
            }
