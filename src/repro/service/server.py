"""The HTTP verification server.

A stdlib-only ``ThreadingHTTPServer`` front end over the job queue and
executor, speaking HTTP/1.1 with keep-alive::

    POST   /v1/jobs              submit (202; 429 when the queue is full,
                                 503 while draining, 413 oversized)
    GET    /v1/jobs              recent jobs, newest first
    GET    /v1/jobs/<id>         status document
    GET    /v1/jobs/<id>/events  NDJSON progress stream (?since=&timeout=)
    GET    /v1/jobs/<id>/result  final result (409 until terminal;
                                 ?wait=SECS long-polls until it is)
    GET    /v1/jobs/<id>/spans   finished trace spans (submit span
                                 immediately; the full tree once done)
    DELETE /v1/jobs/<id>         cancel a queued job (409 once running)
    GET    /metrics              Prometheus text (service job families)
    GET    /healthz              liveness (always 200 while serving)
    GET    /readyz               readiness (503 once draining)

Handler threads only ever touch the queue, the job registry and the
stats — execution happens on the single executor thread, so a slow
exploration can never starve the HTTP plane.  Each connection has its
own handler thread; every response but the event stream carries a
``Content-Length`` and leaves the connection open for the next request.

Graceful drain (``SIGTERM``/``SIGINT`` under :func:`serve`): intake
stops (``readyz`` flips to 503, new ``POST`` s get 503), every job
already accepted — in flight *and* queued — runs to completion, run
manifests are flushed to the run store, the pool and listener are torn
down, and the process exits 0.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
import time

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..obs import to_prometheus
from .protocol import (
    CANCELLED,
    DONE,
    FAILED,
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    Job,
    ProtocolError,
    validate_submit,
)
from .queue import JobQueue, QueueFull
from .worker import JobExecutor, ServiceStats

#: the default service port (override with --port / REPRO_SERVICE_URL)
DEFAULT_PORT = 8321

#: terminal jobs retained for `jobs list` / late result fetches
MAX_JOB_HISTORY = 1024

#: default / maximum client-controlled event-stream duration
DEFAULT_STREAM_TIMEOUT = 300.0
MAX_STREAM_TIMEOUT = 3600.0

#: seconds a connection's socket may wait on one read or write (a body
#: that stalls, a kept-alive connection left idle) before it is closed
IDLE_TIMEOUT = 30.0


class VerificationService:
    """Queue + executor + HTTP listener, wired together.

    Tests drive this in-process (``start(start_executor=False)`` lets
    them freeze the queue); :func:`serve` wraps it with signal-driven
    drain for the CLI.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int | None = None,
        queue_size: int = 64,
        cache=None,
        task_timeout: float | None = None,
        task_retries: int = 2,
        runs_dir: str | None = None,
        save_runs: bool = False,
        max_body: int = MAX_BODY_BYTES,
        quiet: bool = True,
    ) -> None:
        self.stats = ServiceStats()
        self.queue = JobQueue(queue_size)
        self.executor = JobExecutor(
            self.queue,
            self.stats,
            jobs=jobs,
            cache=cache,
            task_timeout=task_timeout,
            task_retries=task_retries,
            runs_dir=runs_dir,
            save_runs=save_runs,
        )
        self.max_body = max_body
        self.quiet = quiet
        self.draining = threading.Event()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self._http_thread: threading.Thread | None = None

    # -- addresses --------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------

    def start(self, *, start_executor: bool = True) -> None:
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        if start_executor:
            self.executor.start()

    def begin_drain(self) -> None:
        """Stop intake; safe to call from a signal handler."""
        self.draining.set()

    def drain(self) -> None:
        """Finish all accepted jobs, then tear everything down."""
        self.begin_drain()
        if self.executor.is_alive():
            self.executor.request_drain()
            self.executor.join()
        else:
            self.queue.close()
            self.executor._close_pool()
        self.httpd.shutdown()
        self.httpd.server_close()

    def stop(self) -> None:
        """Hard stop: finish only the in-flight job, drop the queue."""
        self.begin_drain()
        if self.executor.is_alive():
            self.executor.request_stop()
            self.executor.join()
        else:
            self.executor._close_pool()
        self.httpd.shutdown()
        self.httpd.server_close()

    # -- job plumbing -----------------------------------------------------

    def retry_after(self) -> int:
        """Seconds a rejected client should back off: the queue's
        expected drain time from recent job durations."""
        pending = len(self.queue) + self.stats.snapshot()["inflight"]
        avg = self.stats.avg_job_seconds() or 1.0
        return max(1, min(600, round(avg * max(1, pending))))

    def submit(self, payload, *, received: float | None = None) -> Job:
        if self.draining.is_set():
            raise ProtocolError("server is draining", status=503)
        if received is None:
            received = time.time()
        submission = validate_submit(payload)
        job = Job(submission)
        job.on_drop = self.stats.record_events_dropped
        job.note_submit_span(received)
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._evict_locked()
        try:
            self.queue.put(job, retry_after=self.retry_after())
        except QueueFull:
            with self._jobs_lock:
                self._jobs.pop(job.id, None)
            self.stats.record_rejected()
            raise
        self.stats.record_submitted()
        return job

    def _evict_locked(self) -> None:
        if len(self._jobs) <= MAX_JOB_HISTORY:
            return
        for job_id, job in list(self._jobs.items()):
            if len(self._jobs) <= MAX_JOB_HISTORY:
                break
            if job.is_terminal:
                del self._jobs[job_id]

    def job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def list_jobs(self, limit: int = 100) -> list[dict]:
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        jobs.sort(key=lambda j: j.created, reverse=True)
        return [j.status() for j in jobs[:limit]]

    def cancel(self, job: Job) -> tuple[bool, str]:
        """Cancel a queued job; running/terminal jobs refuse."""
        if job.cancel_if_queued():
            self.stats.record_cancelled_queued()
            return True, "cancelled"
        if job.is_terminal:
            return False, f"job already {job.state}"
        return False, "job is running; in-flight jobs run to completion"

    def metrics_text(self) -> str:
        return to_prometheus(
            {}, service=self.stats.snapshot(queue_depth=len(self.queue))
        )


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    # headers and body go out as two sends; with Nagle on, the body
    # waits for the client's delayed ACK of the headers
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT
        super().setup()

    @property
    def service(self) -> VerificationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if not self.service.quiet:
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    # -- plumbing ---------------------------------------------------------

    def _send_json(self, status: int, payload: dict, **headers) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **headers) -> None:
        self._send_json(status, {"error": message}, **headers)

    def _content_length(self) -> int:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ProtocolError("Content-Length required", status=411)
        if not length.isdecimal():
            raise ProtocolError(
                "Content-Length must be a non-negative integer"
            )
        if int(length) > self.service.max_body:
            raise ProtocolError(
                f"body exceeds {self.service.max_body} bytes", status=413
            )
        return int(length)

    def _job_or_404(self, job_id: str):
        job = self.service.job(job_id)
        if job is None:
            self._error(404, f"no such job {job_id!r}")
        return job

    # -- routing ----------------------------------------------------------

    def _route(self):
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        query = parse_qs(parts.query)
        return segments, query

    def do_GET(self) -> None:  # noqa: N802 - stdlib convention
        try:
            segments, query = self._route()
            if segments == ["healthz"]:
                return self._send_text(200, "ok\n", "text/plain")
            if segments == ["readyz"]:
                if self.service.draining.is_set():
                    return self._send_text(503, "draining\n", "text/plain")
                return self._send_text(200, "ready\n", "text/plain")
            if segments == ["metrics"]:
                return self._send_text(
                    200,
                    self.service.metrics_text(),
                    "text/plain; version=0.0.4",
                )
            if segments == ["v1", "jobs"]:
                limit = query.get("limit", ["100"])[0]
                if not limit.isdecimal():
                    raise ProtocolError(
                        "limit must be a non-negative integer"
                    )
                return self._send_json(
                    200,
                    {
                        "v": PROTOCOL_VERSION,
                        "jobs": self.service.list_jobs(int(limit)),
                    },
                )
            if len(segments) == 3 and segments[:2] == ["v1", "jobs"]:
                job = self._job_or_404(segments[2])
                if job is not None:
                    self._send_json(200, job.status())
                return
            if len(segments) == 4 and segments[:2] == ["v1", "jobs"]:
                job = self._job_or_404(segments[2])
                if job is None:
                    return
                if segments[3] == "result":
                    return self._serve_result(job, query)
                if segments[3] == "events":
                    return self._serve_events(job, query)
                if segments[3] == "spans":
                    return self._serve_spans(job)
            self._error(404, f"no route for GET {self.path}")
        except ProtocolError as exc:
            self._error(exc.status, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802
        received = time.time()
        try:
            segments, _query = self._route()
            try:
                if segments != ["v1", "jobs"]:
                    raise ProtocolError(
                        f"no route for POST {self.path}", status=404
                    )
                length = self._content_length()
            except ProtocolError as exc:
                # the body stays unread; on a kept-alive connection it
                # would be parsed as the next request
                return self._error(exc.status, str(exc), Connection="close")
            try:
                payload = json.loads(self.rfile.read(length))
            except ValueError:
                return self._error(400, "body is not valid JSON")
            try:
                job = self.service.submit(payload, received=received)
            except QueueFull as exc:
                return self._error(
                    429,
                    str(exc),
                    Retry_After=max(1, round(exc.retry_after)),
                )
            except ProtocolError as exc:
                headers = (
                    {"Retry_After": 5} if exc.status == 503 else {}
                )
                return self._error(exc.status, str(exc), **headers)
            self._send_json(
                202, job.status(), Location=f"/v1/jobs/{job.id}"
            )
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            segments, _query = self._route()
            if len(segments) == 3 and segments[:2] == ["v1", "jobs"]:
                job = self._job_or_404(segments[2])
                if job is None:
                    return
                ok, reason = self.service.cancel(job)
                status = job.status()
                status["cancelled"] = ok
                status["reason"] = reason
                return self._send_json(200 if ok else 409, status)
            self._error(404, f"no route for DELETE {self.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- bodies -----------------------------------------------------------

    def _serve_result(self, job, query) -> None:
        if "wait" in query:
            try:
                wait = float(query["wait"][0])
            except ValueError:
                wait = math.nan
            if not (math.isfinite(wait) and wait >= 0):
                raise ProtocolError(
                    "wait must be a finite number of seconds >= 0"
                )
            job.wait_terminal(min(wait, MAX_STREAM_TIMEOUT))
        state = job.state
        if state == DONE:
            return self._send_json(200, job.payload)
        if state == FAILED:
            return self._send_json(
                500, {"error": job.error, "id": job.id, "state": state}
            )
        message = (
            f"job {job.id} was cancelled"
            if state == CANCELLED
            else f"job {job.id} is {state}; result not ready"
        )
        self._send_json(409, {"error": message, "id": job.id, "state": state})

    def _serve_spans(self, job) -> None:
        self._send_json(
            200,
            {
                "v": PROTOCOL_VERSION,
                "id": job.id,
                "trace_id": job.trace_id,
                "state": job.state,
                "spans": list(job.spans),
                "dropped": job.spans_dropped,
            },
        )

    def _serve_events(self, job, query) -> None:
        since = query.get("since", ["0"])[0]
        if not since.isdecimal():
            raise ProtocolError("since must be a non-negative integer")
        try:
            timeout = float(
                query.get("timeout", [str(DEFAULT_STREAM_TIMEOUT)])[0]
            )
        except ValueError:
            raise ProtocolError("timeout must be a number") from None
        timeout = min(max(0.0, timeout), MAX_STREAM_TIMEOUT)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        # no Content-Length: the end of the stream is the end of the
        # connection
        self.send_header("Connection", "close")
        self.end_headers()
        deadline = time.monotonic() + timeout
        cursor = int(since)
        while True:
            events, cursor = job.events_since(cursor)
            for event in events:
                line = json.dumps(event, sort_keys=True) + "\n"
                self.wfile.write(line.encode())
            if events:
                self.wfile.flush()
            if job.is_terminal and not events:
                remaining, _ = job.events_since(cursor)
                if not remaining:
                    break
                continue
            remaining_time = deadline - time.monotonic()
            if remaining_time <= 0:
                break
            job.wait_event(cursor, min(0.5, remaining_time))


def _write_port_file(path: str, port: int) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(f"{port}\n")
    os.replace(tmp, path)


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    jobs: int | None = None,
    queue_size: int = 64,
    cache=None,
    task_timeout: float | None = None,
    task_retries: int = 2,
    runs_dir: str | None = None,
    save_runs: bool = False,
    port_file: str | None = None,
    quiet: bool = False,
    log=print,
) -> int:
    """Run the verification server until SIGTERM/SIGINT, then drain.

    Blocks the calling (main) thread.  Returns 0 after a clean drain:
    intake stopped, every accepted job finished, manifests flushed,
    pool and listener closed.  ``port=0`` binds an ephemeral port;
    ``port_file`` publishes whichever port was bound (written
    atomically, for scripts and the CI smoke leg).
    """
    service = VerificationService(
        host,
        port,
        jobs=jobs,
        queue_size=queue_size,
        cache=cache,
        task_timeout=task_timeout,
        task_retries=task_retries,
        runs_dir=runs_dir,
        save_runs=save_runs,
        quiet=quiet,
    )
    stop = threading.Event()

    def _signal(signum, _frame):
        service.begin_drain()  # readyz flips immediately
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _signal)
    service.start()
    if port_file:
        _write_port_file(port_file, service.port)
    log(
        f"repro-service v{__version__} listening on {service.url} "
        f"(jobs={service.executor.jobs}, queue={service.queue.capacity}, "
        f"cache={'off' if service.executor.cache is False else service.executor.cache.root})"
    )
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    log("draining: intake stopped, finishing accepted jobs ...")
    service.drain()
    snapshot = service.stats.snapshot()
    log(
        "drained cleanly: "
        f"{snapshot['jobs'].get('done', 0)} done, "
        f"{snapshot['jobs'].get('failed', 0)} failed, "
        f"{snapshot['jobs'].get('cancelled', 0)} cancelled, "
        f"{snapshot['cache_hits']} cache hits"
    )
    return 0
