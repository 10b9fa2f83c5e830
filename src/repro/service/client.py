"""Thin stdlib HTTP client for the campaign daemon.

Backs ``python -m repro job ...``; also convenient from tests and
scripts.  The base URL resolves, in order: explicit argument, the
``REPRO_SERVICE_URL`` environment variable, the default local address.

Retry semantics — conservative on purpose:

* Connection failures and ``5xx`` responses retry with capped
  exponential backoff (the daemon may be mid-restart, or a persist hit
  a transient I/O error).  ``503`` is the exception: the daemon sends it
  only while draining, and a draining daemon exits rather than recovers,
  so it raises at once.  Every submit carries an ``Idempotency-Key``
  — auto-generated when the caller does not supply one — so a retried
  submit whose first attempt actually landed returns the *existing* job
  instead of double-enqueueing.
* ``4xx`` responses never retry: the request itself is wrong (or
  throttled), and repeating it verbatim cannot help.  ``429`` surfaces the
  server's ``Retry-After`` on the raised :class:`ServiceError` so the
  *caller* can decide to wait — honouring it automatically would turn
  the client into exactly the polite-looking retry storm rate limiting
  exists to prevent.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
import uuid
from typing import Optional

from .daemon import DEFAULT_PORT

__all__ = ["DEFAULT_URL", "ServiceClient", "ServiceError"]

DEFAULT_URL = f"http://127.0.0.1:{DEFAULT_PORT}"
URL_ENV = "REPRO_SERVICE_URL"

#: Job statuses that will never progress without outside action.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Retry ladder defaults: ``RETRIES`` attempts after the first, backoff
#: starting at ``BACKOFF_S`` and doubling up to ``BACKOFF_CAP_S``.
RETRIES = 3
BACKOFF_S = 0.2
BACKOFF_CAP_S = 2.0


class ServiceError(Exception):
    """An HTTP-level or daemon-reported failure.

    ``retry_after_s`` carries the server's ``Retry-After`` header on
    throttled (429) responses, ``None`` otherwise.
    """

    def __init__(self, code: int, message: str,
                 retry_after_s: Optional[float] = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


class ServiceClient:
    def __init__(self, base_url: Optional[str] = None,
                 timeout_s: float = 10.0,
                 retries: int = RETRIES,
                 backoff_s: float = BACKOFF_S):
        self.base_url = (base_url or os.environ.get(URL_ENV)
                         or DEFAULT_URL).rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None,
                      headers: Optional[dict] = None) -> dict:
        data = None
        all_headers = {"Accept": "application/json"}
        if headers:
            all_headers.update(headers)
        if payload is not None:
            data = json.dumps(payload).encode()
            all_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=all_headers,
            method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                return json.loads(resp.read().decode() or "{}")
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode()).get(
                    "error", exc.reason)
            except (ValueError, AttributeError):
                message = str(exc.reason)
            retry_after = None
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServiceError(exc.code, message,
                               retry_after_s=retry_after) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach campaign daemon at {self.base_url}: "
                   f"{exc.reason}") from None

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 headers: Optional[dict] = None) -> dict:
        """One request with bounded retries on connection errors / 5xx.

        ``4xx`` raises immediately — retrying a request the server
        understood and refused cannot change the answer — and so does
        ``503``, which the daemon sends only while draining.
        """
        delay = self.backoff_s
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload=payload,
                                          headers=headers)
            except ServiceError as exc:
                transient = exc.code == 0 or (
                    exc.code >= 500 and exc.code != 503)
                if not transient or attempt == self.retries:
                    raise
            time.sleep(min(delay, BACKOFF_CAP_S))
            delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, spec: dict,
               idempotency_key: Optional[str] = None) -> dict:
        """Submit a job spec; always carries an ``Idempotency-Key``.

        An auto-generated key makes the built-in retry loop safe: if the
        first attempt enqueued the job but its response was lost, the
        retry returns the existing job instead of a duplicate.
        """
        key = idempotency_key or f"auto-{uuid.uuid4().hex}"
        return self._request("POST", "/jobs", payload=spec,
                             headers={"Idempotency-Key": key})

    def list_jobs(self) -> list:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def drain(self) -> dict:
        return self._request("POST", "/drain")

    def wait(self, job_id: str, timeout_s: Optional[float] = None,
             poll_s: float = 0.5) -> dict:
        """Poll until the job reaches a terminal status; returns it.

        ``interrupted`` is *not* terminal — a restarted daemon will
        resume it — but with no daemon running it would wait forever,
        so respect ``timeout_s``.
        """
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        while True:
            job = self.status(job_id)
            if job["status"] in TERMINAL_STATUSES:
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    0, f"timed out waiting for {job_id} "
                       f"(status {job['status']})")
            time.sleep(poll_s)
