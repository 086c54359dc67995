"""A stdlib (http.client) client for the verification service.

>>> client = ServiceClient("http://127.0.0.1:8321")
>>> job = client.submit({"kind": "litmus", "test": "SB", "model": "tso"})
>>> result = client.wait(job["id"])
>>> result["verdict"]["observed"]
True

Each calling thread keeps one HTTP/1.1 connection open across calls,
so a submit and its ``wait`` cost two requests on one connection.
``wait`` is a single long-poll ``GET .../result?wait=`` request; with
``on_event`` it reads the NDJSON event stream first.  Errors surface
as :class:`ServiceError` carrying the HTTP status — a 429 also carries
the server's ``Retry-After`` hint as ``retry_after``, and a result
that is not ready the job's ``state``.
"""

from __future__ import annotations

import json
import os
import threading
import time

from datetime import timezone
from email.utils import parsedate_to_datetime
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import urlsplit

from .protocol import QUEUED, RUNNING

#: environment override for the default service URL
SERVICE_URL_ENV = "REPRO_SERVICE_URL"

DEFAULT_URL = "http://127.0.0.1:8321"

#: the longest wait one long-poll request asks the server for
LONG_POLL_SECONDS = 300.0


def default_url() -> str:
    return os.environ.get(SERVICE_URL_ENV, DEFAULT_URL)


def _parse_retry_after(value: str | None) -> float | None:
    """RFC 7231 Retry-After: delta-seconds or an HTTP-date, both of
    which proxies are free to rewrite — anything unparseable degrades
    to None rather than raising mid-error-handling."""
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


class ServiceError(Exception):
    """An HTTP-level failure; ``status`` is the response code (0 when
    the server was unreachable), ``state`` the job's state when the
    error body names one."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        retry_after: float | None = None,
        state: str | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.state = state


class ServiceClient:
    """Submit, watch and fetch verification jobs over HTTP."""

    def __init__(self, url: str | None = None, timeout: float = 30.0):
        self.url = (url or default_url()).rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        self._connection_class = (
            HTTPSConnection if parts.scheme == "https" else HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    # -- transport --------------------------------------------------------

    def _open(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ):
        """Send one request on the calling thread's connection and
        return the response, its body unread.

        A connection that served an earlier request may have been
        closed by the server since (idle timeout); a request that fails
        on one before any response arrives is sent once more on a new
        connection.
        """
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(
                self._netloc, timeout=self.timeout
            )
        for attempt in (1, 2):
            reused = conn.sock is not None
            try:
                if not reused:
                    conn.connect()
                conn.sock.settimeout(
                    timeout if timeout is not None else self.timeout
                )
                conn.request(method, self._prefix + path, data, headers)
                return conn.getresponse()
            except (OSError, HTTPException) as exc:
                conn.close()
                stale = reused and isinstance(exc, ConnectionError)
                if not (stale and attempt == 1):
                    raise self._unreachable(exc) from None

    def _unreachable(self, exc: Exception) -> ServiceError:
        return ServiceError(f"service unreachable at {self.url}: {exc}")

    def _read(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> bytes:
        """The body of a successful response; a status >= 400 raises."""
        response = self._open(method, path, body, timeout)
        try:
            data = response.read()
        except (OSError, HTTPException) as exc:
            self._local.conn.close()
            raise self._unreachable(exc) from None
        if response.status >= 400:
            raise self._service_error(response.status, response.headers, data)
        return data

    @staticmethod
    def _service_error(status: int, headers, body: bytes) -> ServiceError:
        """The error a response with ``status``, ``headers`` (a message
        with ``get``) and ``body`` stands for."""
        try:
            doc = json.loads(body)
        except ValueError:
            doc = None
        if not isinstance(doc, dict):
            doc = {}
        return ServiceError(
            doc.get("error") or f"HTTP {status}",
            status=status,
            retry_after=_parse_retry_after(headers.get("Retry-After")),
            state=doc.get("state"),
        )

    def _json(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ):
        return json.loads(self._read(method, path, body, timeout))

    def _text(self, path: str) -> str:
        return self._read("GET", path).decode()

    # -- the API ----------------------------------------------------------

    def submit(self, payload: dict) -> dict:
        """POST a submit payload; returns the job status document."""
        return self._json("POST", "/v1/jobs", payload)

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str, wait: float | None = None) -> dict:
        """The final result document.  With ``wait``, the server holds
        the request up to ``wait`` seconds for the job to finish.
        Raises :class:`ServiceError`: 409 while the job is queued or
        running (or when it was cancelled), 500 when it failed."""
        path = f"/v1/jobs/{job_id}/result"
        if wait is None:
            return self._json("GET", path)
        return self._json(
            "GET", f"{path}?wait={wait}", timeout=wait + self.timeout
        )

    def spans(self, job_id: str) -> dict:
        """The job's trace spans document (``trace_id`` + finished
        spans; the full tree once the job is terminal)."""
        return self._json("GET", f"/v1/jobs/{job_id}/spans")

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    def list_jobs(self, limit: int = 100) -> list[dict]:
        return self._json("GET", f"/v1/jobs?limit={limit}")["jobs"]

    def metrics(self) -> str:
        """The raw Prometheus exposition text."""
        return self._text("/metrics")

    def health(self) -> bool:
        try:
            return self._text("/healthz").strip() == "ok"
        except ServiceError:
            return False

    def ready(self) -> bool:
        """False while the server is draining (or down)."""
        try:
            return self._text("/readyz").strip() == "ready"
        except ServiceError:
            return False

    # -- watching ---------------------------------------------------------

    def stream(self, job_id: str, since: int = 0, timeout: float = 300.0):
        """Yield progress events as dicts.

        The server streams NDJSON and closes the connection when the
        job completes or at the requested ``timeout``, which ends the
        generator.
        """
        path = f"/v1/jobs/{job_id}/events?since={since}&timeout={timeout}"
        response = self._open("GET", path, timeout=timeout + 10.0)
        with response:
            if response.status >= 400:
                raise self._service_error(
                    response.status, response.headers, response.read()
                )
            try:
                for raw in response:
                    line = raw.strip()
                    if line:
                        yield json.loads(line)
            except (OSError, HTTPException) as exc:
                raise self._unreachable(exc) from None

    def wait(
        self, job_id: str, timeout: float | None = None, on_event=None
    ) -> dict:
        """Block until the job is terminal; return the result document.

        One long-poll ``result?wait=`` request, repeated only while the
        job outlives :data:`LONG_POLL_SECONDS`.  With ``on_event``, the
        job's event stream is read first and each event passed to
        ``on_event(event)``.  A failed job raises
        :class:`ServiceError` with the job's error (status 500); a
        cancelled one raises with status 409.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float:
            if deadline is None:
                return LONG_POLL_SECONDS
            return min(
                LONG_POLL_SECONDS, max(0.0, deadline - time.monotonic())
            )

        if on_event is not None:
            for event in self.stream(job_id, timeout=remaining()):
                on_event(event)
        while True:
            try:
                return self.result(job_id, wait=remaining())
            except ServiceError as exc:
                if exc.status != 409 or exc.state not in (QUEUED, RUNNING):
                    raise
                if deadline is not None and time.monotonic() >= deadline:
                    raise ServiceError(
                        f"timed out waiting for job {job_id}"
                    ) from None
