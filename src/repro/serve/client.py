"""A thin blocking client for the experiment server.

:class:`ServeClient` speaks the :mod:`repro.serve.http` wire protocol
over one keep-alive ``http.client`` connection, so a warm-path round
trip costs exactly one request/response on an established socket.
It is deliberately synchronous: ``repro submit`` and the test suite
(whose load tests run many clients on plain threads) both want a
call-and-return API.

Server-side refusals surface as the matching exceptions:

* HTTP 429 -> :class:`~repro.errors.ServeOverloadedError` carrying the
  advertised ``Retry-After``;
* connection failures -> :class:`~repro.errors.ServeUnavailableError`;
* any other non-2xx -> :class:`~repro.errors.ServeError`.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from urllib.parse import urlsplit

from repro.errors import (
    ServeError,
    ServeOverloadedError,
    ServeUnavailableError,
)
from repro.eval.engine import SimJob
from repro.serve.protocol import job_to_dict


def fig4_jobs(model: str = "resnet50", scale="tiny",
              sparsities=None, backend: str | None = None,
              verify: bool = True) -> list[SimJob]:
    """The figure-4 job set as submittable :class:`SimJob` specs:
    every unique GEMM layer of ``model``, baseline and proposed
    kernel, at each N:M sparsity.  ``scale`` is a registered policy
    name or a :class:`~repro.nn.workload.ScalePolicy`."""
    from repro.eval import paper
    from repro.eval.comparison import BASELINE, PROPOSED
    from repro.nn.models import get_model, unique_gemm_layers
    from repro.nn.workload import POLICIES, ScalePolicy

    if isinstance(scale, str):
        if scale not in POLICIES:
            raise ServeError(f"unknown scale policy {scale!r} "
                             f"(known: {', '.join(sorted(POLICIES))})")
        policy = POLICIES[scale]
    elif isinstance(scale, ScalePolicy):
        policy = scale
    else:
        raise ServeError("scale must be a policy name or ScalePolicy")
    if sparsities is None:
        sparsities = paper.SPARSITIES
    return [
        SimJob.for_layer(model=model, layer=layer.name, nm=tuple(nm),
                         policy=policy, kernel=kernel,
                         backend=backend, verify=verify)
        for nm in sparsities
        for layer, _count in unique_gemm_layers(get_model(model))
        for kernel in (BASELINE, PROPOSED)
    ]


class ServeClient:
    """Blocking client for one experiment server.

    Reusable and cheap: the underlying connection is opened lazily and
    re-opened transparently after a keep-alive drop.  Not thread-safe —
    give each thread its own instance (connections are the thing being
    load-tested, after all).
    """

    def __init__(self, url: str = "http://127.0.0.1:8642",
                 timeout: float = 60.0):
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("http", ""):
            raise ServeError(f"unsupported scheme {split.scheme!r} "
                             "(the serve protocol is plain http)")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 8642
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing ------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, payload=None,
                 _retried: bool = False):
        """One round trip; returns (status, headers, body bytes)."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload,
                              separators=(",", ":")).encode()
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=body,
                               headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (ConnectionError, http.client.HTTPException,
                socket.timeout, OSError) as exc:
            self.close()
            if not _retried and not isinstance(exc, socket.timeout):
                # a keep-alive socket the server already closed —
                # one clean reconnect before declaring it down
                return self._request(method, path, payload,
                                     _retried=True)
            raise ServeUnavailableError(
                f"no server at http://{self.host}:{self.port}: "
                f"{exc}") from None
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, response, data

    def _json(self, method: str, path: str, payload=None) -> dict:
        status, response, data = self._request(method, path, payload)
        try:
            decoded = json.loads(data) if data else {}
        except ValueError:
            decoded = {"error": data.decode(errors="replace")}
        if status == 429:
            try:
                retry_after = float(
                    response.getheader("Retry-After", "1"))
            except ValueError:
                retry_after = 1.0
            raise ServeOverloadedError(
                decoded.get("error", "server overloaded"),
                retry_after=retry_after)
        if status >= 400:
            raise ServeError(
                f"HTTP {status}: {decoded.get('error', 'unknown')}")
        return decoded

    # -- API -----------------------------------------------------------
    def healthy(self) -> bool:
        try:
            return bool(self._json("GET", "/v1/healthz").get("ok"))
        except (ServeError, ServeUnavailableError):
            return False

    def wait_until_ready(self, timeout: float = 30.0,
                         poll: float = 0.05) -> None:
        """Block until the server answers its health probe."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthy():
                return
            time.sleep(poll)
        raise ServeUnavailableError(
            f"server at http://{self.host}:{self.port} not ready "
            f"after {timeout:g}s")

    def stats(self) -> dict:
        return self._json("GET", "/v1/stats")

    def submit(self, jobs, lane: str = "interactive",
               wait: bool = True, include_stats: bool = False) -> dict:
        """Submit a batch of :class:`SimJob` specs (or pre-encoded
        dicts); returns the decoded response body."""
        specs = [job_to_dict(job) if isinstance(job, SimJob) else job
                 for job in jobs]
        return self._json("POST", "/v1/jobs", {
            "jobs": specs, "lane": lane, "wait": wait,
            "include_stats": include_stats})

    def batch_status(self, batch_id: str) -> dict:
        return self._json("GET", f"/v1/batches/{batch_id}")

    def stream(self, batch_id: str):
        """Yield the NDJSON progress lines of a batch as dicts (jobs
        in completion order, then the summary line).  Lines are read
        incrementally — each arrives as the server finishes the job."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        try:
            self._conn.request("GET",
                               f"/v1/batches/{batch_id}/stream")
            response = self._conn.getresponse()
        except (ConnectionError, http.client.HTTPException,
                socket.timeout, OSError) as exc:
            self.close()
            raise ServeUnavailableError(
                f"no server at http://{self.host}:{self.port}: "
                f"{exc}") from None
        if response.status >= 400:
            data = response.read()
            self.close()
            try:
                message = json.loads(data).get("error", "")
            except ValueError:
                message = data.decode(errors="replace")
            raise ServeError(f"HTTP {response.status}: {message}")
        try:
            for raw in response:  # close-delimited: reads until EOF
                if raw.strip():
                    yield json.loads(raw)
        finally:
            self.close()

    def shutdown(self) -> None:
        """Ask the server to stop (used by tests and CI teardown)."""
        try:
            self._json("POST", "/v1/shutdown")
        except ServeUnavailableError:
            pass  # it stopped before the response drained; fine
        finally:
            self.close()
