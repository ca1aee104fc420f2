"""The ``serve-mixed`` load generator: one process, at most ``nproc``
keep-alive connections.

:func:`open_loop` sends request ``i`` when it falls due, whatever the
server is doing, on whichever connection is free; a request is timed
from its due time, so a stall also charges the requests queued behind
it, and how late each send was is recorded separately (the
generator's own lateness).
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    """One request: its due, send and completion times and reply."""

    due: float
    sent: float
    done: float
    ok: bool
    reply: object  #: the ``send`` return value, or the exception

    @property
    def latency(self) -> float:
        """Seconds from the due time to the completed reply."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the send started after the due time."""
        return self.sent - self.due


def open_loop(dues, send, connect, connections: int,
              lead: float = 0.05) -> list[Outcome]:
    """Issue request ``i`` at ``start + dues[i]`` (``start`` is
    ``lead`` seconds from now) over ``connections`` threads, each
    owning one connection from ``connect()``; ``send(conn, i)``
    performs request ``i`` and raises on failure."""
    n = len(dues)
    outcomes: list[Outcome | None] = [None] * n
    order = itertools.count()
    start = time.perf_counter() + lead

    def worker():
        conn = connect()
        try:
            while (i := next(order)) < n:
                due = start + dues[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    reply, ok = send(conn, i), True
                except Exception as exc:  # counted as a failed request
                    reply, ok = exc, False
                outcomes[i] = Outcome(due, sent, time.perf_counter(), ok,
                                      reply)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


class HttpPoster:
    """Sends pre-encoded JSON requests to one server."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host, self.port, self.timeout = host, port, timeout

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def request(self, conn, method: str, path: str,
                body: bytes | None = None) -> tuple[int, bytes]:
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()  # the next request reconnects
            raise
