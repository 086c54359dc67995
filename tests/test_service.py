"""The verification service: protocol, queue, HTTP end-to-end, drain."""

import http.client
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from urllib.parse import urlsplit

import pytest

from repro.bench.workloads import ainc
from repro.cli import main
from repro.core import verify
from repro.core.report import to_dict
from repro.litmus import get_litmus, run_litmus
from repro.obs import service_families, to_prometheus
from repro.service import (
    Job,
    JobQueue,
    ProtocolError,
    QueueFull,
    ServiceClient,
    ServiceError,
    Submission,
    VerificationService,
    validate_submit,
)
from repro.service import protocol, server
from repro.suite import ResultCache, run_suite, litmus_task, task_key

CAT_SC = '"sc-inline"\nlet com = rf | co | fr\nacyclic po | com as sc\n'


def normalize(result_dict):
    """to_dict minus the wall-clock and bookkeeping fields."""
    return {
        k: v
        for k, v in result_dict.items()
        if k not in ("elapsed_seconds", "phases", "meta")
    }


def make_submission(priority=1, label="t"):
    return Submission("litmus", priority, None, label, [])


@pytest.fixture
def service(tmp_path):
    svc = VerificationService(
        port=0, jobs=1, queue_size=8, cache=str(tmp_path / "cache")
    )
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


@pytest.fixture
def wire(service, monkeypatch):
    """What the server's handlers saw: one ``opened`` and one
    ``closed`` entry per connection, one ``request`` per request.

    Only ``service``'s own handlers count: a connection an earlier
    test left open is still served by a ``_Handler`` after its server
    stopped, and closes whenever its client is collected or its idle
    timeout runs out.
    """
    seen = []

    def count(name, entry):
        original = getattr(server._Handler, name)

        def counted(self):
            if self.server is service.httpd:
                seen.append(entry)
            return original(self)

        monkeypatch.setattr(server._Handler, name, counted)

    count("setup", "opened")
    count("finish", "closed")
    for method in ("do_GET", "do_POST", "do_DELETE"):
        count(method, "request")
    return seen


#: a request sent as another request's body: a server that answers it
#: took leftover body bytes for the next request on the connection
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def raw_exchange(url: str, data: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection
    (a server that keeps it open fails the read with a timeout)."""
    parts = urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), 5) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestProtocol:
    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            validate_submit([1, 2])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="kind"):
            validate_submit({"kind": "nope"})

    def test_rejects_unknown_field(self):
        with pytest.raises(ProtocolError, match="unknown field"):
            validate_submit({"kind": "litmus", "test": "SB", "bogus": 1})

    def test_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="protocol version"):
            validate_submit({"v": 99, "kind": "litmus", "test": "SB"})

    def test_rejects_unknown_litmus_name(self):
        with pytest.raises(ProtocolError, match="unknown litmus"):
            validate_submit({"kind": "litmus", "test": "NOPE"})

    def test_rejects_unknown_option_field(self):
        with pytest.raises(ProtocolError, match="jobs"):
            validate_submit(
                {"kind": "litmus", "test": "SB", "options": {"jobs": 4}}
            )

    def test_rejects_bad_priority(self):
        with pytest.raises(ProtocolError, match="priority"):
            validate_submit(
                {"kind": "litmus", "test": "SB", "priority": "urgent"}
            )

    def test_rejects_bad_task_timeout(self):
        for bad in (-1, 0, float("nan"), float("inf"), "30", True):
            with pytest.raises(ProtocolError, match="task_timeout"):
                validate_submit(
                    {"kind": "litmus", "test": "SB", "task_timeout": bad}
                )

    def test_rejects_broken_cat_model(self):
        with pytest.raises(ProtocolError, match=".cat model"):
            validate_submit(
                {
                    "kind": "litmus",
                    "test": "SB",
                    "model": {"cat": "acyclic nonsense_rel as x\n"},
                }
            )

    def test_oversized_source_is_413(self):
        huge = "(* pad *)\n" * 100_000
        with pytest.raises(ProtocolError) as info:
            validate_submit(
                {"kind": "litmus", "test": "SB", "model": {"cat": huge}}
            )
        assert info.value.status == 413

    def test_oversized_suite_is_413(self):
        with pytest.raises(ProtocolError) as info:
            validate_submit(
                {"kind": "suite", "tests": None, "models": ["sc"] * 200}
            )
        assert info.value.status == 413

    def test_verify_accepts_family_and_litmus_programs(self):
        by_family = validate_submit(
            {"kind": "verify", "program": {"family": "sb", "n": 2}}
        )
        by_litmus = validate_submit(
            {"kind": "verify", "program": {"litmus": "SB"}}
        )
        assert len(by_family.tasks) == len(by_litmus.tasks) == 1

    def test_priority_names_and_numbers_agree(self):
        named = validate_submit(
            {"kind": "litmus", "test": "SB", "priority": "high"}
        )
        numbered = validate_submit(
            {"kind": "litmus", "test": "SB", "priority": 0}
        )
        assert named.priority == numbered.priority == 0

    def test_suite_builds_the_matrix(self):
        sub = validate_submit(
            {"kind": "suite", "tests": ["SB", "MP"], "models": ["sc", "tso"]}
        )
        assert sub.kind == "suite"
        assert len(sub.tasks) == 4


class TestJobStateMachine:
    def test_happy_path(self):
        job = Job(make_submission())
        assert job.state == "queued" and not job.is_terminal
        assert job.transition("running")
        assert job.transition("done")
        assert job.is_terminal

    def test_cancel_only_wins_while_queued(self):
        queued = Job(make_submission())
        assert queued.cancel_if_queued()
        assert queued.state == "cancelled"
        running = Job(make_submission())
        assert running.transition("running")
        assert not running.cancel_if_queued()
        assert running.state == "running"

    def test_terminal_states_are_sticky(self):
        job = Job(make_submission())
        job.transition("cancelled")
        assert not job.transition("running")
        assert job.state == "cancelled"

    def test_events_accumulate_with_sequence_numbers(self):
        job = Job(make_submission())
        job.add_event("alpha", x=1)
        job.add_event("beta")
        events, cursor = job.events_since(0)
        assert [e["t"] for e in events] == ["job_queued", "alpha", "beta"]
        assert cursor == 3
        later, _ = job.events_since(cursor)
        assert later == []

    def test_ring_overflow_leaves_a_dropped_marker(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_JOB_EVENTS", 4)
        job = Job(make_submission())
        for i in range(10):
            job.add_event("tick", i=i)
        events, _ = job.events_since(0)
        assert events[0]["t"] == "events_dropped"
        assert events[0]["dropped"] == 7
        assert [e["i"] for e in events[1:]] == [6, 7, 8, 9]


class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        q = JobQueue(capacity=8)
        low = Job(make_submission(priority=2, label="low"))
        first = Job(make_submission(priority=1, label="first"))
        second = Job(make_submission(priority=1, label="second"))
        high = Job(make_submission(priority=0, label="high"))
        for job in (low, first, second, high):
            q.put(job)
        order = [q.get(timeout=0.1).submission.label for _ in range(4)]
        assert order == ["high", "first", "second", "low"]

    def test_put_raises_queue_full_at_capacity(self):
        q = JobQueue(capacity=2)
        q.put(Job(make_submission()))
        q.put(Job(make_submission()))
        with pytest.raises(QueueFull) as info:
            q.put(Job(make_submission()), retry_after=7.5)
        assert info.value.retry_after == 7.5

    def test_cancelled_jobs_free_capacity_and_are_skipped(self):
        q = JobQueue(capacity=1)
        doomed = Job(make_submission(label="doomed"))
        q.put(doomed)
        assert doomed.transition("cancelled")
        assert len(q) == 0
        survivor = Job(make_submission(label="survivor"))
        q.put(survivor)  # capacity freed by the lazy cancel
        assert q.get(timeout=0.1) is survivor

    def test_get_times_out_empty(self):
        q = JobQueue()
        assert q.get(timeout=0.01) is None

    def test_close_rejects_puts_and_wakes_getters(self):
        q = JobQueue()
        q.close()
        with pytest.raises(QueueFull):
            q.put(Job(make_submission()))
        assert q.get(timeout=5) is None  # returns immediately, no wait


class TestEndToEnd:
    """The acceptance path: HTTP results vs the direct API."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_litmus_job_bit_identical_to_direct_api(self, tmp_path, jobs):
        svc = VerificationService(
            port=0, jobs=jobs, queue_size=8, cache=str(tmp_path / "c")
        )
        svc.start()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(
                {"kind": "litmus", "test": "SB", "model": "tso"}
            )
            result = client.wait(job["id"], timeout=60)
            verdict = run_litmus(get_litmus("SB"), "tso")
            assert result["verdict"]["observed"] == verdict.observed
            assert result["verdict"]["executions"] == verdict.executions
            assert result["verdict"]["duplicates"] == verdict.duplicates
            direct = run_suite(
                [litmus_task("SB", "tso")], jobs=jobs, cache=False
            )
            assert normalize(result["result"]) == normalize(
                to_dict(direct.tasks[0].result)
            )
        finally:
            svc.stop()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verify_job_bit_identical_to_direct_verify(self, tmp_path, jobs):
        svc = VerificationService(
            port=0, jobs=jobs, queue_size=8, cache=str(tmp_path / "c")
        )
        svc.start()
        # ainc(4)/imm is large and RMW-heavy: its served blocked and
        # duplicate counts must be the whole run's, not a sharded run's
        inputs = [
            ({"litmus": "MP"}, get_litmus("MP").program, "sc"),
            ({"family": "ainc", "n": 4}, ainc(4), "imm"),
        ]
        try:
            client = ServiceClient(svc.url)
            for spec, program, model in inputs:
                job = client.submit(
                    {"kind": "verify", "program": spec, "model": model}
                )
                result = client.wait(job["id"], timeout=120)
                direct = verify(program, model, stop_on_error=False, jobs=1)
                assert normalize(result["result"]) == normalize(
                    to_dict(direct)
                ), spec
        finally:
            svc.stop()

    def test_second_submission_hits_cache_and_metrics_show_it(
        self, service, client
    ):
        payload = {"kind": "litmus", "test": "MP", "model": "sc"}
        first = client.wait(client.submit(payload)["id"], timeout=60)
        assert first["cached"] is False
        second = client.wait(client.submit(payload)["id"], timeout=60)
        assert second["cached"] is True
        assert second["cache_hits"] == 1
        assert normalize(second["result"]) == normalize(first["result"])
        metrics = client.metrics()
        hits = [
            line
            for line in metrics.splitlines()
            if line.startswith("repro_service_cache_hits_total")
        ]
        assert hits and int(hits[0].split()[-1]) >= 1

    def test_inline_cat_model_round_trip(self, service, client):
        job = client.submit(
            {
                "kind": "litmus",
                "test": "SB",
                "model": {"cat": CAT_SC, "name": "sc-inline"},
            }
        )
        result = client.wait(job["id"], timeout=60)
        assert result["verdict"]["model"] == "sc-inline"
        # SB's relaxed outcome is forbidden under an SC-equivalent model
        assert result["verdict"]["observed"] is False

    def test_suite_job_matches_direct_run(self, service, client):
        job = client.submit(
            {
                "kind": "suite",
                "tests": ["SB", "MP"],
                "models": ["sc", "tso"],
            }
        )
        result = client.wait(job["id"], timeout=60)
        manifest = result["manifest"]
        assert manifest["totals"]["tasks"] == 4
        by_pair = {
            (t["program"], t["model"]): t["observed"]
            for t in manifest["tasks"]
        }
        for name in ("SB", "MP"):
            for model in ("sc", "tso"):
                expected = run_litmus(get_litmus(name), model).observed
                assert by_pair[(name, model)] == expected

    def test_event_stream_covers_the_lifecycle(self, service, client):
        job = client.submit({"kind": "litmus", "test": "LB", "model": "sc"})
        types = [e["t"] for e in client.stream(job["id"], timeout=60)]
        assert types[0] == "job_queued"
        assert "job_running" in types
        assert "suite_task_done" in types
        assert types[-1] == "job_done"
        seqs = [
            e["seq"] for e in client.stream(job["id"], timeout=5)
        ]
        assert seqs == sorted(seqs)

    def test_wait_streams_events_then_returns_the_result(
        self, service, client
    ):
        events = []
        job = client.submit({"kind": "litmus", "test": "LB", "model": "sc"})
        result = client.wait(job["id"], timeout=60, on_event=events.append)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs))
        assert events[0]["t"] == "job_queued"
        assert events[-1]["t"] == "job_done"
        assert result == client.result(job["id"])

    def test_submit_stream_prints_events_to_stderr_result_to_stdout(
        self, service, capsys
    ):
        code = main(
            [
                "submit", "litmus", "MP", "--model", "tso", "--stream",
                "--json", "--url", service.url,
            ]
        )
        assert code == 0
        out, err = capsys.readouterr()
        result = json.loads(out)
        direct = run_litmus(get_litmus("MP"), "tso")
        assert result["verdict"]["observed"] == direct.observed
        assert result["verdict"]["executions"] == direct.executions
        ack, *lines = err.splitlines()
        assert ack.startswith(f"job {result['job']} queued")
        events = [json.loads(line) for line in lines]
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
        assert events[-1]["t"] == "job_done"

    def test_options_reach_the_engine(self, service, client):
        job = client.submit(
            {
                "kind": "verify",
                "program": {"litmus": "SB"},
                "model": "sc",
                "options": {"max_executions": 1},
            }
        )
        result = client.wait(job["id"], timeout=60)
        assert result["result"]["truncated"] is True
        assert result["result"]["executions"] == 1

    def test_status_and_list_reflect_the_job(self, service, client):
        job = client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        client.wait(job["id"], timeout=60)
        status = client.status(job["id"])
        assert status["state"] == "done"
        assert status["result_ready"] is True
        assert job["id"] in [j["id"] for j in client.list_jobs()]

    def test_health_and_ready(self, client):
        assert client.health() is True
        assert client.ready() is True

    def test_list_limit_must_be_a_non_negative_integer(self, service, client):
        payload = {"kind": "litmus", "test": "SB", "model": "sc"}
        for _ in range(2):
            client.wait(client.submit(payload)["id"], timeout=60)
        assert client.list_jobs(limit=0) == []
        assert len(client.list_jobs(limit=1)) == 1
        for bad in ("abc", -1, "1.5"):
            with pytest.raises(ServiceError) as info:
                client.list_jobs(limit=bad)
            assert info.value.status == 400
            assert "limit" in str(info.value)

    def test_events_since_must_be_a_non_negative_integer(
        self, service, client
    ):
        job = client.submit({"kind": "litmus", "test": "SB", "model": "tso"})
        client.wait(job["id"], timeout=60)
        assert client.status(job["id"])["events_dropped"] == 0
        events = list(client.stream(job["id"], since=0, timeout=5))
        assert events and events[0]["t"] == "job_queued"
        for bad in (-5, "abc", "1.5"):
            with pytest.raises(ServiceError) as info:
                list(client.stream(job["id"], since=bad, timeout=5))
            assert info.value.status == 400
            assert "since" in str(info.value)

    def test_result_wait_must_be_a_finite_non_negative_number(
        self, service, client
    ):
        job = client.submit({"kind": "litmus", "test": "SB", "model": "tso"})
        result = client.wait(job["id"], timeout=60)
        assert client.result(job["id"], wait=0) == result
        conn = http.client.HTTPConnection(
            urlsplit(service.url).netloc, timeout=10
        )
        try:
            for bad in ("-1", "abc", "nan", "inf"):
                conn.request("GET", f"/v1/jobs/{job['id']}/result?wait={bad}")
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, bad
                assert "wait" in body["error"]
        finally:
            conn.close()


class TestBackpressureAndErrors:
    @pytest.fixture
    def frozen(self, tmp_path):
        """A service whose executor never starts: jobs stay queued."""
        svc = VerificationService(
            port=0, jobs=1, queue_size=1, cache=str(tmp_path / "c")
        )
        svc.start(start_executor=False)
        yield svc, ServiceClient(svc.url)
        svc.stop()

    def test_full_queue_is_429_with_retry_after(self, frozen):
        _svc, client = frozen
        payload = {"kind": "litmus", "test": "SB", "model": "sc"}
        client.submit(payload)
        with pytest.raises(ServiceError) as info:
            client.submit(payload)
        assert info.value.status == 429
        assert info.value.retry_after >= 1

    def test_queued_job_cancels_and_frees_the_slot(self, frozen):
        _svc, client = frozen
        payload = {"kind": "litmus", "test": "SB", "model": "sc"}
        job = client.submit(payload)
        cancelled = client.cancel(job["id"])
        assert cancelled["cancelled"] is True
        assert cancelled["state"] == "cancelled"
        client.submit(payload)  # the 429 slot is free again

    def test_result_before_terminal_is_409(self, frozen):
        _svc, client = frozen
        job = client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        with pytest.raises(ServiceError) as info:
            client.result(job["id"])
        assert info.value.status == 409
        assert info.value.state == "queued"
        started = time.monotonic()
        with pytest.raises(ServiceError) as info:
            client.result(job["id"], wait=0.3)
        assert time.monotonic() - started >= 0.3
        assert (info.value.status, info.value.state) == (409, "queued")

    def test_wait_times_out_and_a_cancelled_job_is_409(self, frozen):
        _svc, client = frozen
        job = client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        with pytest.raises(ServiceError) as info:
            client.wait(job["id"], timeout=0.3)
        assert info.value.status == 0
        assert "timed out" in str(info.value)
        client.cancel(job["id"])
        with pytest.raises(ServiceError) as info:
            client.wait(job["id"], timeout=5)
        assert (info.value.status, info.value.state) == (409, "cancelled")
        assert "cancelled" in str(info.value)

    def test_long_poll_answers_when_the_job_finishes(self, frozen):
        svc, client = frozen
        job = client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        timer = threading.Timer(0.3, svc.executor.start)
        timer.start()
        started = time.monotonic()
        result = client.result(job["id"], wait=60)
        assert time.monotonic() - started < 30
        assert result["verdict"]["test"] == "SB"
        timer.join(5)
        assert not timer.is_alive()

    def test_cancel_terminal_job_is_409(self, service, client):
        job = client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        client.wait(job["id"], timeout=60)
        with pytest.raises(ServiceError) as info:
            client.cancel(job["id"])
        assert info.value.status == 409

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.status("feedfacecafe")
        assert info.value.status == 404

    def test_invalid_payload_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "litmus", "test": "NOPE"})
        assert info.value.status == 400

    def test_nan_task_timeout_is_400(self, frozen):
        # json.loads takes a bare NaN, and NaN <= 0 is False
        svc, _client = frozen
        conn = http.client.HTTPConnection(
            urlsplit(svc.url).netloc, timeout=10
        )
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=b'{"kind": "litmus", "test": "SB", "task_timeout": NaN}',
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "task_timeout" in body["error"]

    def test_option_of_the_wrong_type_is_400(self, frozen):
        # "false" is truthy, and max_events=true is a count of 1 that
        # truncates every run with 0 executions
        _svc, client = frozen
        for options in ({"stop_on_error": "false"}, {"max_events": True}):
            with pytest.raises(ServiceError) as info:
                client.submit(
                    {"kind": "litmus", "test": "SB", "options": options}
                )
            assert info.value.status == 400
            assert next(iter(options)) in str(info.value)

    def test_draining_rejects_submissions_and_flips_readyz(self, frozen):
        svc, client = frozen
        svc.begin_drain()
        assert client.ready() is False
        assert client.health() is True
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        assert info.value.status == 503


class TestKeepAlive:
    """HTTP/1.1: one kept-alive connection per client thread."""

    def test_jobs_share_one_connection_two_requests_each(
        self, service, wire
    ):
        client = ServiceClient(service.url)
        payload = {"kind": "litmus", "test": "SB", "model": "sc"}
        for _ in range(5):
            client.wait(client.submit(payload)["id"], timeout=60)
        assert wire.count("opened") == 1
        assert wire.count("request") == 10

    def test_idle_connection_closes_and_the_client_reconnects(
        self, service, wire, monkeypatch
    ):
        monkeypatch.setattr(server, "IDLE_TIMEOUT", 0.2)
        client = ServiceClient(service.url)
        assert client.list_jobs() == []
        deadline = time.monotonic() + 10
        while "closed" not in wire and time.monotonic() < deadline:
            time.sleep(0.05)
        assert wire.count("closed") == 1
        # the client still holds the closed connection: its next
        # request fails there and is sent again on a new one
        assert client.list_jobs() == []
        assert wire.count("opened") == 2

    @pytest.mark.parametrize(
        "head, status",
        [
            (
                b"POST /v1/nope HTTP/1.1\r\nContent-Length: %d\r\n"
                % len(SMUGGLED),
                404,
            ),
            (b"POST /v1/jobs HTTP/1.1\r\n", 411),
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n", 400),
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -1\r\n", 400),
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2000000\r\n", 413),
        ],
        ids=["unknown-route", "no-length", "bad-length", "negative-length",
             "too-large"],
    )
    def test_post_answered_with_its_body_unread_closes(
        self, service, head, status
    ):
        data = raw_exchange(service.url, head + b"Host: t\r\n\r\n" + SMUGGLED)
        assert data.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close\r\n" in data
        assert data.count(b"HTTP/1.1 ") == 1

    def test_http10_request_is_answered_and_closed(self, service):
        data = raw_exchange(service.url, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 200 ")
        assert data.endswith(b"\r\n\r\nok\n")


class TestSigtermDrain:
    """`hmc serve` under SIGTERM: finish in-flight work, exit 0."""

    def test_serve_drains_and_exits_zero(self, tmp_path):
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert port_file.exists(), "server never published its port"
            port = int(port_file.read_text())
            client = ServiceClient(f"http://127.0.0.1:{port}")
            submitted = [
                client.submit(
                    {"kind": "litmus", "test": name, "model": "tso"}
                )["id"]
                for name in ("SB", "MP", "LB")
            ]
            assert len(submitted) == 3
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        # every accepted job finished before exit — none were dropped
        assert "drained cleanly: 3 done, 0 failed" in out


class TestCachePrune:
    """Satellite: the LRU-by-mtime size cap on the result cache."""

    def _fill(self, cache, count):
        """Store ``count`` distinct entries; returns their keys oldest
        mtime first (mtimes are spread so LRU order is deterministic)."""
        keys = []
        for i in range(count):
            task = litmus_task("SB", "sc", max_executions=100 + i)
            key = task_key(
                task.program,
                task.model,
                task.options,
                kind=task.kind,
                probe="SB",
            )
            result = verify(
                task.program, task.model, options=task.options
            )
            path = cache.store(key, result, task={"id": f"t{i}"})
            os.utime(path, (i, i))
            keys.append(key)
        return keys

    def test_prune_unlimited_is_a_no_op(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._fill(cache, 3)
        assert cache.max_mb is None
        assert cache.prune() == 0
        assert len(cache) == 3

    def test_prune_removes_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        keys = self._fill(cache, 4)
        entry_size = max(
            os.path.getsize(cache.path(k)) for k in keys
        )
        # cap to roughly two entries
        cap_mb = (2 * entry_size + 64) / (1024 * 1024)
        removed = cache.prune(max_mb=cap_mb)
        assert removed >= 1
        remaining = set(cache.keys())
        assert len(remaining) == 4 - removed
        # strictly the oldest-mtime entries went first
        assert remaining == set(keys[removed:])

    def test_store_prunes_automatically_under_a_cap(self, tmp_path):
        tiny = 1 / 1024  # 1 KiB: smaller than a single entry
        cache = ResultCache(str(tmp_path), max_mb=tiny)
        self._fill(cache, 3)
        assert len(cache) <= 1

    def test_env_var_sets_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_CACHE_MAX_MB", "0.5")
        cache = ResultCache(str(tmp_path))
        assert cache.max_mb == 0.5
        monkeypatch.setenv("REPRO_SUITE_CACHE_MAX_MB", "bogus")
        assert ResultCache(str(tmp_path)).max_mb is None

    def test_zero_cap_empties_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._fill(cache, 2)
        assert cache.prune(max_mb=0) == 2
        assert len(cache) == 0


def _store_same_key(root, key, results, index):
    """Worker for the concurrent-store test (threads)."""
    cache = ResultCache(root)
    result = verify(get_litmus("SB").program, "sc", stop_on_error=False)
    for _ in range(20):
        cache.store(key, result, task={"id": "race"})
        entry = cache.load(key)
        results[index] = entry is not None


def _store_in_subprocess(root, key):
    from repro.litmus import get_litmus
    from repro.core import verify
    from repro.suite import ResultCache

    cache = ResultCache(root)
    result = verify(get_litmus("SB").program, "sc", stop_on_error=False)
    for _ in range(20):
        cache.store(key, result, task={"id": "race"})


class TestConcurrentStore:
    """Satellite: same-key stores from two threads and two processes
    publish atomically — a reader never sees torn JSON."""

    def test_two_threads_never_tear_an_entry(self, tmp_path):
        task = litmus_task("SB", "sc")
        key = task_key(
            task.program, task.model, task.options,
            kind=task.kind, probe="SB",
        )
        results = [False, False]
        threads = [
            threading.Thread(
                target=_store_same_key,
                args=(str(tmp_path), key, results, i),
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results)
        entry = ResultCache(str(tmp_path)).load(key)
        assert entry is not None and entry["key"] == key
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_two_processes_never_tear_an_entry(self, tmp_path):
        task = litmus_task("SB", "sc")
        key = task_key(
            task.program, task.model, task.options,
            kind=task.kind, probe="SB",
        )
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(
                target=_store_in_subprocess, args=(str(tmp_path), key)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        entry = ResultCache(str(tmp_path)).load(key)
        assert entry is not None and entry["result"]["executions"] > 0
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


class TestServiceFamilies:
    """Satellite: the service metric families in the Prometheus text."""

    SNAPSHOT = {
        "jobs": {"done": 3, "failed": 1, "cancelled": 0},
        "queue_depth": 2,
        "inflight": 1,
        "submitted": 6,
        "rejected": 4,
        "cache_hits": 2,
        "executions": 123,
        "uptime_seconds": 9.5,
    }

    def test_families_render_and_parse(self):
        text = to_prometheus({}, service=self.SNAPSHOT)
        parsed = {}
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name_labels, value = line.rsplit(" ", 1)
            parsed[name_labels] = float(value)
        assert parsed['repro_service_jobs_total{state="done"}'] == 3
        assert parsed['repro_service_jobs_total{state="failed"}'] == 1
        assert parsed['repro_service_jobs_total{state="cancelled"}'] == 0
        assert parsed["repro_service_queue_depth"] == 2
        assert parsed["repro_service_inflight"] == 1
        assert parsed["repro_service_submitted_total"] == 6
        assert parsed["repro_service_rejected_total"] == 4
        assert parsed["repro_service_cache_hits_total"] == 2
        assert parsed["repro_service_executions_total"] == 123

    def test_every_family_has_help_and_type(self):
        lines = service_families(self.SNAPSHOT)
        names = {
            line.split()[2]
            for line in lines
            if line.startswith("# HELP")
        }
        for name in names:
            assert f"# TYPE {name}" in "\n".join(lines)

    def test_run_manifest_export_is_unchanged(self):
        # the service families ride alongside, never instead of,
        # the per-run export — and an empty manifest contributes
        # nothing but the service block
        text = to_prometheus({}, service=self.SNAPSHOT)
        assert "repro_executions_total" not in text
        assert text.endswith("\n")

    def test_state_labels_survive_escaping_rules(self):
        snapshot = dict(self.SNAPSHOT)
        snapshot["jobs"] = {'do"ne\\': 1}
        text = to_prometheus({}, service=snapshot)
        assert 'state="do\\"ne\\\\"' in text


class TestCliInterrupt:
    """Satellite: Ctrl-C during a run exits 130 with a clean line."""

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def boom(_args):
            sys.stderr.write("exploring... 42%")
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "verify", boom)
        code = main(["verify", "SB"])
        assert code == 130
        err = capsys.readouterr().err
        assert err.endswith("exploring... 42%\ninterrupted\n")

    def test_interrupt_in_suite_run_exits_130(self, monkeypatch):
        from repro import cli

        monkeypatch.setitem(
            cli._COMMANDS,
            "suite",
            lambda _args: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        assert main(["suite", "run"]) == 130


class TestSpansEndToEnd:
    """Tentpole: one trace_id from HTTP submit to worker subprocess."""

    @pytest.fixture
    def traced_job(self, tmp_path):
        # jobs=2 + cache off forces real pool execution so worker
        # processes contribute span segments under the job's trace
        svc = VerificationService(port=0, jobs=2, queue_size=8, cache=False)
        svc.start()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(
                {
                    "kind": "suite",
                    "tests": ["SB", "MP", "LB", "CoRR"],
                    "models": ["sc", "tso"],
                }
            )
            client.wait(job["id"], timeout=300)
            yield client, job["id"]
        finally:
            svc.stop()

    def test_one_trace_spans_submit_to_worker_phase(self, traced_job):
        from repro.obs import to_perfetto, validate_perfetto

        client, job_id = traced_job
        doc = client.spans(job_id)
        spans = doc["spans"]
        assert {s["trace_id"] for s in spans} == {doc["trace_id"]}
        # >= 2 distinct pids: the executor process and pool workers
        assert len({s["pid"] for s in spans}) >= 2
        # the submit span is the single root of the whole tree
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if s.get("parent_id") not in by_id]
        assert [s["name"] for s in roots] == ["http:submit"]
        # chain intact: http -> job -> task -> worker -> phase
        cats = {s["cat"] for s in spans}
        assert {"http", "job", "task", "worker", "phase"} <= cats
        phase = next(
            s
            for s in spans
            if s["cat"] == "phase"
            and by_id[s["parent_id"]]["cat"] == "worker"
        )
        chain = [phase["cat"]]
        cursor = phase
        while cursor.get("parent_id"):
            cursor = by_id[cursor["parent_id"]]
            chain.append(cursor["cat"])
        assert chain[-1] == "http"
        # the exported Perfetto document passes the schema check
        report = validate_perfetto(
            to_perfetto(spans), trace_id=doc["trace_id"], min_pids=2
        )
        assert report["events"] == len(spans)

    def test_event_stream_carries_span_records(self, traced_job):
        client, job_id = traced_job
        events = list(client.stream(job_id, timeout=5.0))
        span_events = [e for e in events if e["t"] == "span"]
        assert span_events
        assert all("span_id" in e and "trace_id" in e for e in span_events)

    def test_status_reports_trace_fields(self, traced_job):
        client, job_id = traced_job
        status = client.status(job_id)
        assert status["trace_id"]
        assert status["spans"] > 0
        assert status["events_dropped"] == 0

    def test_trace_export_cli_against_service(self, traced_job, tmp_path):
        from repro.obs import validate_perfetto

        client, job_id = traced_job
        out = str(tmp_path / "trace.json")
        code = main(
            [
                "trace", "export", "--job", job_id, "--url", client.url,
                "--perfetto", "-o", out,
            ]
        )
        assert code == 0
        import json

        with open(out) as handle:
            doc = json.load(handle)
        validate_perfetto(doc, min_pids=2)

    def test_trace_flame_cli_against_service(self, traced_job, capsys):
        client, job_id = traced_job
        code = main(["trace", "flame", "--job", job_id, "--url", client.url])
        assert code == 0
        flame = capsys.readouterr().out
        assert "http:submit" in flame and "job:suite" in flame


class TestEventsDropped:
    """Satellite: ring eviction is counted, hooked and exported."""

    def test_verify_job_trace_fits_its_rings(self):
        # one aggregated span per phase: a fib(3)/tso job, whose 8,662
        # phase calls each used to become a span, keeps its whole feed
        svc = VerificationService(port=0, jobs=2, queue_size=8, cache=False)
        svc.start()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(
                {
                    "kind": "verify",
                    "program": {"family": "fib", "n": 3},
                    "model": "tso",
                }
            )
            client.wait(job["id"], timeout=300)
            status = client.status(job["id"])
            spans = client.spans(job["id"])
            events = list(client.stream(job["id"], timeout=5.0))
        finally:
            svc.stop()
        assert status["state"] == "done"
        assert status["events_dropped"] == 0
        assert spans["dropped"] == 0
        assert events[0]["t"] == "job_queued"

    def test_job_counts_dropped_events(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_JOB_EVENTS", 4)
        drops = []
        job = Job(make_submission())
        job.on_drop = lambda n: drops.append(n)
        for i in range(10):
            job.add_event("tick", i=i)
        assert job.events_dropped == 7
        assert sum(drops) == 7
        assert job.status()["events_dropped"] == 7

    def test_stats_accumulate_across_jobs(self):
        from repro.service.worker import ServiceStats

        stats = ServiceStats()
        stats.record_events_dropped(3)
        stats.record_events_dropped(4)
        assert stats.snapshot()["events_dropped"] == 7

    def test_family_renders_in_metrics(self):
        text = to_prometheus({}, service={"events_dropped": 12})
        assert "repro_service_events_dropped_total 12" in text
        # shape-stable: absent key renders as zero
        assert (
            "repro_service_events_dropped_total 0"
            in to_prometheus({}, service={})
        )

    def test_submit_wires_the_drop_hook(self, service, client, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_JOB_EVENTS", 4)
        job = client.submit({"kind": "litmus", "test": "SB", "model": "sc"})
        client.wait(job["id"], timeout=60)
        dropped = service.stats.snapshot()["events_dropped"]
        assert dropped == service.job(job["id"]).events_dropped
        assert f"repro_service_events_dropped_total {dropped}" in (
            client.metrics()
        )


class TestRetryAfterParsing:
    """Satellite: Retry-After hardening (delta-seconds, HTTP-date,
    garbage)."""

    def test_delta_seconds(self):
        from repro.service.client import _parse_retry_after

        assert _parse_retry_after("120") == 120.0
        assert _parse_retry_after("1.5") == 1.5
        assert _parse_retry_after("-3") == 0.0

    def test_http_date(self):
        from email.utils import formatdate

        from repro.service.client import _parse_retry_after

        future = _parse_retry_after(formatdate(time.time() + 60, usegmt=True))
        assert future is not None and 50.0 <= future <= 70.0
        past = _parse_retry_after(formatdate(time.time() - 60, usegmt=True))
        assert past == 0.0

    def test_garbage_degrades_to_none(self):
        from repro.service.client import _parse_retry_after

        assert _parse_retry_after(None) is None
        assert _parse_retry_after("") is None
        assert _parse_retry_after("soon") is None
        assert _parse_retry_after("Wed, 99 Xxx") is None

    def test_http_error_with_date_header_does_not_raise(self):
        from email.utils import formatdate
        from http.client import HTTPMessage

        headers = HTTPMessage()
        headers["Retry-After"] = formatdate(time.time() + 30, usegmt=True)
        err = ServiceClient._service_error(
            429, headers, b'{"error": "queue full"}'
        )
        assert err.status == 429
        assert str(err) == "queue full"
        assert err.retry_after is not None and err.retry_after > 0


class TestPrometheusConcurrency:
    """Satellite: label-escaping round-trips and scrapes while a job
    is in flight."""

    def test_counter_label_escaping_round_trips(self):
        from repro.obs import build_manifest

        class FakeResult:
            program = 'p"rog\\ram\nx'
            model = "m"
            executions = 1
            blocked = 0
            duplicates = 0
            errors = ()
            truncated = False
            elapsed = 0.0
            outcomes = {}
            phase_times = {}
            meta = {}

            class stats:
                @staticmethod
                def as_dict():
                    return {}

        snapshot = {
            "counters": {'hit"rate\\per\nsec': 7},
            "gauges": {},
            "histograms": {},
        }
        text = to_prometheus(build_manifest(FakeResult(), snapshot))
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_counter_total")
        )
        # unescape per the exposition format: the original strings
        # round-trip through the label values
        import re

        values = re.findall(r'"((?:[^"\\]|\\.)*)"', line)
        decoded = [
            v.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
            for v in values
        ]
        assert 'p"rog\\ram\nx' in decoded
        assert 'hit"rate\\per\nsec' in decoded

    def test_metrics_scrape_during_inflight_job(self, tmp_path):
        svc = VerificationService(port=0, jobs=1, queue_size=8, cache=False)
        svc.start()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(
                {"kind": "suite", "tests": ["SB", "MP"], "models": ["sc"]}
            )
            texts, errors = [], []

            def scrape():
                try:
                    for _ in range(5):
                        texts.append(client.metrics())
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=scrape) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            client.wait(job["id"], timeout=120)
            assert not errors
            assert len(texts) == 20
            # every concurrent snapshot is a complete, consistent text
            for text in texts:
                assert "repro_service_jobs_total" in text
                assert "repro_service_events_dropped_total" in text
                assert text.endswith("\n")
        finally:
            svc.stop()
