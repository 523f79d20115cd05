"""Serve load: an in-process ``RecurrenceServer`` and its clients.

One process holds both the server (on a daemon-thread event loop) and
the client threads.  Clients use at most ``nproc`` keep-alive
connections, send sparse ``patch`` payloads and ask for ``digest``
replies, so the wire cost stays small and the timings measure the
serving path.  Replies are checked against the workload's oracle after
each burst, outside the timed region.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.serve import RecurrenceServer, ServeClient, ServeConfig, ServeError

CONNECTIONS = os.cpu_count() or 1


class Served:
    """A started server with one registered problem (default options).

    ``session`` is the server's own pinned ``Session``, leased from its
    pool, so direct solves and served requests share one plan.
    """

    def __init__(self, system: Any):
        self.server = RecurrenceServer(ServeConfig(port=0))
        self.fingerprint = self.server.register(system).fingerprint
        self.session = self.server.pool.acquire(system)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="perfbench-serve", daemon=True
        )
        self._thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=30)

    def warm(self) -> None:
        """One request, so the server's own session is pinned."""
        with ServeClient(self.host, self.port) as client:
            client.solve(self.fingerprint, reply="digest")

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def close(self) -> None:
        self.server.pool.release(self.session)
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout=60)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=60)
            self._loop.close()


@dataclass
class Reply:
    payload: int
    due: float
    sent: float
    done: float
    doc: Optional[Dict[str, Any]]
    error: Optional[str] = None
    connection: int = 0


def _send(client: ServeClient, fingerprint: str, patch, j: int,
          due: float, spans, parent) -> Reply:
    sent = time.perf_counter()
    with spans.span("serve.client.request", parent=parent,
                    trace=f"req-{parent}-{j}-{sent:.6f}", payload=j):
        try:
            doc = client.solve(
                fingerprint, patch=patch, reply="digest", tenant=f"t{j % 4}"
            )
            error = None
        except (ServeError, OSError) as exc:
            doc, error = None, f"{type(exc).__name__}: {exc}"
    return Reply(j, due, sent, time.perf_counter(), doc, error)


def open_loop(served: Served, patches: Sequence[Dict[int, Any]],
              rate: float, seconds: float, *, start_index: int, spans,
              parent=None) -> List[Reply]:
    """Requests due every ``1/rate`` s for ``seconds``, on at most
    ``CONNECTIONS`` connections.  A request waiting for a free
    connection is late; its latency still counts from when it was due.
    """
    total = max(1, int(rate * seconds))
    lock = threading.Lock()
    state = {"next": 0}
    replies: List[Reply] = []
    t0 = time.perf_counter() + 0.01

    def worker() -> None:
        with ServeClient(served.host, served.port) as client:
            while True:
                with lock:
                    k = state["next"]
                    if k >= total:
                        return
                    state["next"] = k + 1
                due = t0 + k / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                j = (start_index + k) % len(patches)
                reply = _send(
                    client, served.fingerprint, patches[j], j, due, spans,
                    parent,
                )
                with lock:
                    replies.append(reply)

    _run_threads(worker, min(CONNECTIONS, total))
    return replies


def closed_loop(served: Served, patches: Sequence[Dict[int, Any]],
                seconds: float, *, start_index: int, spans, parent=None):
    """Each of ``CONNECTIONS`` clients sends its next request when the
    previous reply arrives, until ``seconds`` have passed.  Returns the
    replies and, per connection, ``(replies, seconds to its last
    reply)`` -- so a connection idling while another finishes its last
    request adds no idle time."""
    lock = threading.Lock()
    replies: List[Reply] = []
    start = time.perf_counter()
    stop = start + seconds

    def worker(cid: int) -> None:
        k = start_index + cid
        with ServeClient(served.host, served.port) as client:
            while time.perf_counter() < stop:
                j = k % len(patches)
                k += CONNECTIONS
                reply = _send(
                    client, served.fingerprint, patches[j], j,
                    time.perf_counter(), spans, parent,
                )
                reply.connection = cid
                with lock:
                    replies.append(reply)

    _run_threads(worker, CONNECTIONS, with_index=True)
    per_connection = []
    for cid in range(CONNECTIONS):
        mine = [r for r in replies if r.connection == cid]
        if mine:
            per_connection.append((len(mine), max(r.done for r in mine) - start))
    return replies, per_connection


def _run_threads(target, count: int, *, with_index: bool = False) -> None:
    threads = [
        threading.Thread(
            target=target, args=((i,) if with_index else ()), daemon=True
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        if t.is_alive():
            raise RuntimeError("serve client thread did not finish")
