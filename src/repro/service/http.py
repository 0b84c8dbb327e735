"""Thin JSON-over-HTTP front for a :class:`~repro.service.queue.JobQueue`.

Stdlib only (:mod:`http.server`); the handler does no pipeline work —
every request is a queue call, so the slowest endpoint is bounded by a
lock acquisition, never by sampling.

Routes::

    POST /v1/jobs             submit a campaign job        → 201 record
    GET  /v1/jobs/{id}        poll status + stage trace    → 200 record
    GET  /v1/jobs/{id}/result fetch the result             → 200 when done,
                              202 while pending, 409 failed/cancelled
    POST /v1/jobs/{id}/cancel cancel a not-yet-running job → 200 record
    POST /v1/jobs/{id}/update submit an incremental update → 201 record
                              (body: {"delta": {...}, "method"?: "..."})
    GET  /healthz             liveness                     → 200
    GET  /metrics             queue + cache counters       → 200

Errors are JSON too: ``{"error": "..."}`` with 400 (bad spec), 404
(unknown job), 405 (bad verb) or 413 (oversized body).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import ConfigError
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue

__all__ = [
    "InfluenceServer",
    "create_server",
]

#: Submission bodies above this are rejected (spec payloads are tiny).
MAX_BODY_BYTES = 1 << 20


class InfluenceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobQueue`."""

    daemon_threads = True

    def __init__(self, address, queue: JobQueue) -> None:
        super().__init__(address, _Handler)
        self.queue = queue

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and drain the job queue."""
        self.shutdown()
        self.server_close()
        self.queue.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms per
    # response on a kept-alive connection).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002
        pass  # quiet by default: a poll loop would spam stderr

    @property
    def queue(self) -> JobQueue:
        return self.server.queue

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode() or "null")
        except (UnicodeDecodeError, ValueError):
            self._error(400, "request body is not valid JSON")
            return None

    def _job_id(self, parts: list[str]) -> str | None:
        """``["v1", "jobs", "<id>", ...]`` → the id, or 404."""
        job_id = parts[2]
        try:
            self.queue.get(job_id)
        except KeyError:
            self._error(404, f"unknown job {job_id!r}")
            return None
        return job_id

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz":
            self._send_json(
                200, {"status": "ok", "workers": self.queue.workers}
            )
            return
        if path == "/metrics":
            self._send_json(200, self.queue.metrics())
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job_id = self._job_id(parts)
            if job_id is None:
                return
            if len(parts) == 3:
                self._send_json(
                    200, self.queue.payload(job_id, with_result=False)
                )
                return
            if len(parts) == 4 and parts[3] == "result":
                self._get_result(job_id)
                return
        self._error(404, f"no route for GET {path!r}")

    def _get_result(self, job_id: str) -> None:
        payload = self.queue.payload(job_id)
        state = payload["state"]
        if state == "done":
            self._send_json(200, payload)
        elif state in ("queued", "running"):
            self._send_json(202, {"id": job_id, "state": state})
        else:  # failed | cancelled
            self._send_json(
                409,
                {"id": job_id, "state": state, "error": payload["error"]},
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        if parts == ["v1", "jobs"]:
            payload = self._read_body()
            if payload is None:
                return
            try:
                record = self.queue.submit(JobSpec.from_payload(payload))
            except ConfigError as err:
                self._error(400, str(err))
                return
            self._send_json(
                201, self.queue.payload(record.id, with_result=False)
            )
            return
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "cancel"
        ):
            job_id = self._job_id(parts)
            if job_id is None:
                return
            self.queue.cancel(job_id)
            self._send_json(
                200, self.queue.payload(job_id, with_result=False)
            )
            return
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "update"
        ):
            job_id = self._job_id(parts)
            if job_id is None:
                return
            payload = self._read_body()
            if payload is None:
                return
            try:
                record = self.queue.submit_update(job_id, payload)
            except ConfigError as err:
                self._error(400, str(err))
                return
            self._send_json(
                201, self.queue.payload(record.id, with_result=False)
            )
            return
        self._error(405 if parts[:1] == ["healthz"] else 404,
                    f"no route for POST {path!r}")


def create_server(
    queue: JobQueue, *, host: str = "127.0.0.1", port: int = 0
) -> InfluenceServer:
    """Bind an :class:`InfluenceServer` (``port=0`` picks a free port).

    The server is bound but not serving; call ``serve_forever()`` (or
    run it on a thread) and ``close()`` when done.
    """
    return InfluenceServer((host, port), queue)
