"""Local HTTP/JSON API for the campaign daemon (stdlib only).

Endpoints (all JSON in, JSON out):

==========================  ============================================
``GET  /healthz``           liveness: daemon state, current job,
                            queue depth, live workers against the
                            budget, live watchdog stats
``GET  /jobs``              every job, submission order
``POST /jobs``              submit a campaign job spec; ``201`` + job
                            record, ``200`` idempotent replay, ``400``
                            invalid, ``409`` idempotency-key conflict,
                            ``429`` throttled (with ``Retry-After``),
                            ``503`` draining
``GET  /jobs/<id>``         one job record
``GET  /jobs/<id>/result``  the result summary; ``409`` while the job
                            is still pending/running
``POST /jobs/<id>/cancel``  cancel: queued dies now, running drains at
                            the next shard boundary
``POST /drain``             stop accepting work, finish the running
                            job, then exit the serve loop
==========================  ============================================

Idempotency: ``POST /jobs`` honours an ``Idempotency-Key`` header.
Resubmitting the same key with the same spec gets the existing job back
with ``200``; the same key with a *different* spec is a ``409`` — a
retried submit can never double-enqueue.

The handler is deliberately thin: every decision lives on the daemon
object, so tests can drive the same logic without a socket.
"""

from __future__ import annotations

import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..harness import faultrig
from .daemon import IdempotencyConflict

__all__ = ["make_handler", "make_server"]

#: Submissions larger than this are rejected outright; a campaign spec
#: is a handful of scalars.
MAX_BODY_BYTES = 64 * 1024


def make_handler(daemon):
    """A request-handler class bound to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-campaignd/1"
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002
            daemon.log(f"http {self.address_string()} "
                       + (format % args))

        def _reply(self, code: int, payload: dict,
                   retry_after_s: Optional[float] = None) -> None:
            body = json.dumps(payload, sort_keys=True).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after_s is not None:
                self.send_header("Retry-After",
                                 str(max(1, math.ceil(retry_after_s))))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str,
                   retry_after_s: Optional[float] = None) -> None:
            self._reply(code, {"error": message},
                        retry_after_s=retry_after_s)

        def _read_json(self) -> Optional[dict]:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._error(400, "bad Content-Length")
                return None
            if length < 0:
                # rfile.read(-1) would block until the client hangs up.
                self._error(400, "negative Content-Length")
                return None
            if length > MAX_BODY_BYTES:
                self._error(413, "request body too large")
                return None
            raw = self.rfile.read(length) if length else b"{}"
            try:
                obj = json.loads(raw.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                self._error(400, "request body is not valid JSON")
                return None
            if not isinstance(obj, dict):
                self._error(400, "request body must be a JSON object")
                return None
            return obj

        def _job_route(self) -> Tuple[Optional[str], Optional[str]]:
            """``/jobs/<id>[/<verb>]`` -> ``(job_id, verb)``."""
            parts = [p for p in self.path.split("/") if p]
            if len(parts) >= 2 and parts[0] == "jobs":
                return parts[1], parts[2] if len(parts) > 2 else None
            return None, None

        @staticmethod
        def _slow_client_fault() -> None:
            fired = faultrig.should_fire("slow-client")
            if fired is not None:
                # Chaos mode: pin this handler thread the way a stalled
                # client would; the threaded server must keep serving.
                time.sleep(fired[2] if fired[2] is not None else 2.0)

        # -- verbs -----------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802
            self._slow_client_fault()
            try:
                self._get()
            except Exception as exc:  # noqa: BLE001 - never kill the server
                self._error(500, f"{type(exc).__name__}: {exc}")

        def do_POST(self) -> None:  # noqa: N802
            self._slow_client_fault()
            try:
                self._post()
            except Exception as exc:  # noqa: BLE001 - never kill the server
                self._error(500, f"{type(exc).__name__}: {exc}")

        def _get(self) -> None:
            if self.path == "/healthz":
                self._reply(200, daemon.health())
                return
            if self.path == "/jobs":
                self._reply(200, {"jobs": daemon.list_jobs()})
                return
            job_id, verb = self._job_route()
            if job_id is not None and verb is None:
                job = daemon.job_status(job_id)
                if job is None:
                    self._error(404, f"no such job {job_id!r}")
                    return
                self._reply(200, job)
                return
            if job_id is not None and verb == "result":
                job = daemon.job_status(job_id)
                if job is None:
                    self._error(404, f"no such job {job_id!r}")
                    return
                if job.get("result") is None:
                    self._error(
                        409, f"job {job_id!r} is {job['status']}; "
                             f"no result yet")
                    return
                self._reply(200, {"id": job_id, "status": job["status"],
                                  "result": job["result"]})
                return
            self._error(404, f"unknown endpoint {self.path!r}")

        def _post(self) -> None:
            if self.path == "/jobs":
                if daemon.draining:
                    self._error(503, "daemon is draining; "
                                     "not accepting new jobs")
                    return
                if not daemon.bucket.try_acquire():
                    self._error(429, "job submissions are rate-limited; "
                                     "retry later",
                                retry_after_s=daemon.bucket.retry_after_s())
                    return
                spec = self._read_json()
                if spec is None:
                    return
                key = self.headers.get("Idempotency-Key") or None
                try:
                    job = daemon.submit(spec, idempotency_key=key)
                except IdempotencyConflict as exc:
                    self._error(409, str(exc))
                    return
                except ValueError as exc:
                    self._error(400, str(exc))
                    return
                replayed = job.pop("replayed", False)
                self._reply(200 if replayed else 201, job)
                return
            if self.path == "/drain":
                daemon.drain()
                self._reply(202, {"status": "draining"})
                return
            job_id, verb = self._job_route()
            if job_id is not None and verb == "cancel":
                job = daemon.cancel(job_id)
                if job is None:
                    self._error(404, f"no such job {job_id!r}")
                    return
                self._reply(200, job)
                return
            self._error(404, f"unknown endpoint {self.path!r}")

    return Handler


def make_server(daemon, host: str, port: int) -> ThreadingHTTPServer:
    """A threading HTTP server bound to ``host:port`` for ``daemon``."""
    server = ThreadingHTTPServer((host, port), make_handler(daemon))
    server.daemon_threads = True
    return server
