"""repro.service — a long-running HTTP verification server.

A stdlib-only service layer over the suite engine: a versioned JSON
protocol (:mod:`repro.service.protocol`), a bounded priority queue
with 429 backpressure (:mod:`repro.service.queue`), a single executor
thread driving jobs onto one long-lived worker pool
(:mod:`repro.service.worker`), the HTTP server with NDJSON progress
streaming and SIGTERM graceful drain (:mod:`repro.service.server`),
and an http.client client with one kept-alive connection per thread
(:mod:`repro.service.client`).

See docs/SERVICE.md for the wire protocol and job lifecycle.
"""

from .client import ServiceClient, ServiceError, default_url
from .protocol import (
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    TRANSITIONS,
    Job,
    ProtocolError,
    Submission,
    validate_submit,
)
from .queue import JobQueue, QueueFull
from .server import DEFAULT_PORT, VerificationService, serve
from .worker import JobExecutor, ServiceStats

__all__ = [
    "ServiceClient",
    "ServiceError",
    "default_url",
    "MAX_BODY_BYTES",
    "PROTOCOL_VERSION",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "Job",
    "ProtocolError",
    "Submission",
    "validate_submit",
    "JobQueue",
    "QueueFull",
    "DEFAULT_PORT",
    "VerificationService",
    "serve",
    "JobExecutor",
    "ServiceStats",
]
