"""The asyncio HTTP/JSON serving front end.

:class:`RecurrenceServer` owns a
:class:`~repro.engine.session.SessionPool` of pinned sessions keyed by
problem fingerprint and fans requests through per-(problem, options)
:class:`~repro.serve.coalescer.CoalesceLane`\\ s.  Routes:

``POST /v1/problems``
    Register a problem: ``{"system": <system_to_dict wire form>,
    "options": <EngineOptions wire form>, "window_ms": ...,
    "max_batch": ...}``.  Builds + pins the session (plan and backend
    resolved once) and returns ``{"fingerprint", "family", "n",
    "batch_capable", "deadline_s"}``.

``POST /v1/solve``
    Solve against a registered problem: ``{"fingerprint": ...,
    "values": [...] | "patch": {"3": 1.5}, "tenant": "...",
    "request_id": "...", "reply": "values" | "digest"}``.  The
    response carries the stable :class:`~repro.engine.api.EngineResult`
    envelope fields (``request_id`` / ``coalesced`` /
    ``queue_wait_s`` / ``backend`` / ``failover_from``) plus either
    the full ``values`` or a BLAKE2 ``digest`` + sampled cells.

``GET /metrics``
    Prometheus 0.0.4 exposition of the process registry (the
    ``serve.*`` series plus everything the engine emits).

``GET /v1/stats``
    JSON operational snapshot (pool occupancy, per-lane queues,
    per-tenant in-flight counts).

Admission control: per-tenant in-flight quotas (429), a global
pending-request cap (503 backpressure), and deadline-based rejection
-- a lane whose estimated wait already exceeds the request's deadline
is refused up front (503) instead of queued to time out.  Deadlines
come from the registered ``EngineOptions`` policy (a pure
``timeout_s`` policy is enforced at this layer so coalescing stays
legal; see :func:`~repro.serve.coalescer.split_serve_policy`) or a
per-request ``deadline_s`` override.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.serialize import system_from_dict
from ..engine import EngineOptions, SessionPool
from ..engine.api import EngineResult
from ..errors import ReproError, exit_code_for
from ..obs import enable_metrics, get_registry, to_prometheus
from ..obs.recorder import record_event
from .coalescer import CoalesceLane, split_serve_policy
from .protocol import (
    HttpError,
    HttpRequest,
    json_response_bytes,
    read_request,
)

__all__ = ["ServeConfig", "RecurrenceServer", "run"]


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs for one server instance (see docs/SERVING.md
    for the deployment guide)."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: Default gather window per lane; individual problems may override
    #: at registration.  ``0`` disables coalescing (naive mode).
    window_ms: float = 2.0
    #: Largest number of requests merged into one stacked sweep.
    max_batch: int = 256
    #: Per-tenant in-flight request cap (429 beyond it).
    tenant_quota: int = 64
    #: Global in-flight cap across all tenants (503 beyond it).
    max_pending: int = 1024
    #: Session pool capacity (idle-LRU beyond it).
    pool_capacity: int = 32
    #: Fallback deadline when neither the registered policy nor the
    #: request carries one; ``None`` means unbounded.
    default_deadline_s: Optional[float] = None
    #: Threads running synchronous engine solves.
    solver_threads: int = 4


class _Problem:
    """One registered problem: its source, options, and lane."""

    __slots__ = ("system", "options", "lane", "fingerprint")

    def __init__(self, system, options, lane, fingerprint):
        self.system = system
        self.options = options
        self.lane = lane
        self.fingerprint = fingerprint


def _digest(values) -> str:
    """Stable content digest of a result vector (float64 bytes when
    the values are numeric, repr bytes otherwise)."""
    try:
        import numpy as np

        payload = np.asarray(values, dtype=np.float64).tobytes()
    except (ValueError, TypeError, OverflowError):
        payload = repr(values).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class RecurrenceServer:
    """Multi-tenant serving front end over the engine's session pool."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.pool = SessionPool(capacity=self.config.pool_capacity)
        self._problems: Dict[Tuple[str, tuple], _Problem] = {}
        self._by_fingerprint: Dict[str, _Problem] = {}
        self._tenant_inflight: Dict[str, int] = {}
        self._total_inflight = 0
        self._request_seq = itertools.count(1)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.solver_threads,
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        enable_metrics()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self.address
        record_event("serve.start", host=host, port=port)
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for problem in self._problems.values():
            self.pool.release(problem.lane.session)
        self._problems.clear()
        self._by_fingerprint.clear()
        self._executor.shutdown(wait=True)
        record_event("serve.stop")

    # -- registration ------------------------------------------------------

    def register(
        self,
        system,
        *,
        options: Any = None,
        window_ms: Optional[float] = None,
        max_batch: Optional[int] = None,
    ) -> _Problem:
        """Register a problem (also callable in-process, pre-start)."""
        opts = EngineOptions.from_value(options, where="serve options")
        engine_opts, deadline_s = split_serve_policy(opts)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        session = self.pool.acquire(system, options=engine_opts)
        key = (session.fingerprint, engine_opts.key())
        existing = self._problems.get(key)
        if existing is not None:
            self.pool.release(session)
            return existing
        window = (
            self.config.window_ms if window_ms is None else window_ms
        ) / 1000.0
        lane = CoalesceLane(
            session,
            options=engine_opts,
            base_values=list(system.initial),
            window_s=window,
            max_batch=max_batch or self.config.max_batch,
            deadline_s=deadline_s,
            executor=self._executor,
        )
        problem = _Problem(system, opts, lane, session.fingerprint)
        self._problems[key] = problem
        self._by_fingerprint[session.fingerprint] = problem
        registry = get_registry()
        if registry is not None:
            registry.gauge("serve.problems").set(len(self._problems))
        record_event(
            "serve.problem.registered",
            fingerprint=session.fingerprint[:12],
            family=session.family,
            backend=session.backend,
        )
        return problem

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response_bytes(
                            exc.status,
                            {"error": exc.message},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                payload = await self._dispatch(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        registry = get_registry()
        route = (request.method, request.path)
        try:
            if route == ("POST", "/v1/solve"):
                return await self._route_solve(request)
            if route == ("POST", "/v1/problems"):
                return self._route_register(request)
            if route == ("GET", "/metrics"):
                return self._route_metrics(request)
            if route == ("GET", "/v1/stats"):
                return self._route_stats(request)
            if route == ("GET", "/healthz"):
                return json_response_bytes(
                    200, {"ok": True}, keep_alive=request.keep_alive
                )
            return json_response_bytes(
                404,
                {"error": f"no route {request.method} {request.path}"},
                keep_alive=request.keep_alive,
            )
        except HttpError as exc:
            return json_response_bytes(
                exc.status,
                {"error": exc.message},
                keep_alive=request.keep_alive,
            )
        except ReproError as exc:
            # The structured taxonomy: surface the category + the CLI
            # exit code so clients can key on it.
            return json_response_bytes(
                400,
                {
                    "error": str(exc),
                    "category": getattr(exc, "category", "error"),
                    "code": exit_code_for(exc),
                },
                keep_alive=request.keep_alive,
            )
        except (ValueError, KeyError, TypeError) as exc:
            return json_response_bytes(
                400, {"error": str(exc)}, keep_alive=request.keep_alive
            )
        except Exception as exc:  # pragma: no cover - last resort
            if registry is not None:
                registry.counter("serve.errors", kind="internal").inc()
            return json_response_bytes(
                500,
                {"error": f"internal error: {exc}"},
                keep_alive=request.keep_alive,
            )

    # -- routes ------------------------------------------------------------

    def _route_register(self, request: HttpRequest) -> bytes:
        doc = request.json()
        if "system" not in doc:
            raise HttpError(400, 'body must carry a "system" document')
        system = system_from_dict(doc["system"])
        options = (
            EngineOptions.from_dict(doc["options"])
            if doc.get("options")
            else None
        )
        problem = self.register(
            system,
            options=options,
            window_ms=doc.get("window_ms"),
            max_batch=doc.get("max_batch"),
        )
        session = problem.lane.session
        return json_response_bytes(
            200,
            {
                "fingerprint": problem.fingerprint,
                "family": session.family,
                "backend": session.backend,
                "n": len(problem.lane.base_values),
                "batch_capable": problem.lane.batchable,
                "deadline_s": problem.lane.deadline_s,
                "window_ms": problem.lane.window_s * 1000.0,
            },
            keep_alive=request.keep_alive,
        )

    def _reject(
        self,
        request: HttpRequest,
        status: int,
        reason: str,
        message: str,
        *,
        tenant: str,
    ) -> bytes:
        registry = get_registry()
        if registry is not None:
            registry.counter(
                "serve.rejected", reason=reason, tenant=tenant
            ).inc()
        return json_response_bytes(
            status,
            {"error": message, "reason": reason},
            keep_alive=request.keep_alive,
        )

    async def _route_solve(self, request: HttpRequest) -> bytes:
        loop = asyncio.get_running_loop()
        started = loop.time()
        doc = request.json()
        fingerprint = doc.get("fingerprint")
        if not fingerprint:
            raise HttpError(400, 'body must carry a "fingerprint"')
        problem = self._by_fingerprint.get(fingerprint)
        if problem is None:
            raise HttpError(
                404, f"no registered problem {fingerprint[:12]}..."
            )
        lane = problem.lane
        tenant = str(doc.get("tenant", "anonymous"))
        request_id = str(
            doc.get("request_id") or f"r{next(self._request_seq)}"
        )
        values = doc.get("values")
        patch_doc = doc.get("patch")
        patch = (
            {int(k): v for k, v in patch_doc.items()}
            if patch_doc is not None
            else None
        )
        if values is not None and patch is not None:
            raise HttpError(400, 'send "values" or "patch", not both')
        deadline_s = doc.get("deadline_s", lane.deadline_s)
        reply = str(doc.get("reply", "values"))

        registry = get_registry()
        # Admission control: quota, global backpressure, then the
        # deadline feasibility estimate.
        if self._tenant_inflight.get(tenant, 0) >= self.config.tenant_quota:
            return self._reject(
                request,
                429,
                "quota",
                f"tenant {tenant!r} is at its in-flight quota "
                f"({self.config.tenant_quota})",
                tenant=tenant,
            )
        if self._total_inflight >= self.config.max_pending:
            return self._reject(
                request,
                503,
                "backpressure",
                f"server is at max_pending={self.config.max_pending}",
                tenant=tenant,
            )
        if (
            deadline_s is not None
            and lane.estimated_wait_s() > float(deadline_s)
        ):
            return self._reject(
                request,
                503,
                "deadline",
                f"estimated wait {lane.estimated_wait_s():.3f}s exceeds "
                f"deadline {float(deadline_s):.3f}s",
                tenant=tenant,
            )

        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        self._total_inflight += 1
        try:
            future = lane.submit(
                values=values,
                patch=patch,
                request_id=request_id,
                encode=reply == "digest",
            )
            if deadline_s is not None:
                try:
                    result = await asyncio.wait_for(
                        future, timeout=float(deadline_s)
                    )
                except asyncio.TimeoutError:
                    return self._reject(
                        request,
                        504,
                        "timeout",
                        f"deadline of {float(deadline_s):.3f}s elapsed "
                        "before the solve completed",
                        tenant=tenant,
                    )
            else:
                result = await future
        finally:
            self._tenant_inflight[tenant] -= 1
            if self._tenant_inflight[tenant] <= 0:
                self._tenant_inflight.pop(tenant, None)
            self._total_inflight -= 1

        latency = loop.time() - started
        digest = (
            lane.encode_once(result.values, _digest)
            if reply == "digest"
            else None
        )
        if registry is not None:
            registry.histogram(
                "serve.request.latency_s",
                family=result.family,
                coalesced=str(result.coalesced).lower(),
            ).observe(latency)
            registry.counter(
                "serve.requests", outcome="ok", tenant=tenant
            ).inc()
        return json_response_bytes(
            200,
            self._result_doc(
                result, reply=reply, latency=latency, digest=digest
            ),
            keep_alive=request.keep_alive,
        )

    @staticmethod
    def _result_doc(
        result: EngineResult,
        *,
        reply: str,
        latency: float,
        digest: Optional[str] = None,
    ) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "request_id": result.request_id,
            "backend": result.backend,
            "family": result.family,
            "cache_hit": result.cache_hit,
            "failover_from": result.failover_from,
            "coalesced": result.coalesced,
            "queue_wait_s": result.queue_wait_s,
            "latency_s": latency,
        }
        if reply == "digest":
            values = result.values
            n = len(values)
            stride = max(1, n // 8)
            doc["digest"] = digest
            doc["n"] = n
            doc["sample"] = [
                [i, values[i]] for i in range(0, n, stride)
            ]
        else:
            doc["values"] = list(result.values)
        return doc

    def _route_metrics(self, request: HttpRequest) -> bytes:
        registry = get_registry()
        text = to_prometheus(registry.snapshot()) if registry else ""
        from .protocol import response_bytes

        return response_bytes(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
            keep_alive=request.keep_alive,
        )

    def _route_stats(self, request: HttpRequest) -> bytes:
        lanes = [
            {
                "fingerprint": problem.fingerprint[:12],
                "family": problem.lane.session.family,
                "backend": problem.lane.session.backend,
                "batchable": problem.lane.batchable,
                "window_ms": problem.lane.window_s * 1000.0,
                "inflight": problem.lane.inflight,
                "ewma_flush_s": problem.lane.ewma_flush_s,
                "deadline_s": problem.lane.deadline_s,
            }
            for problem in self._problems.values()
        ]
        return json_response_bytes(
            200,
            {
                "pool": self.pool.stats(),
                "lanes": lanes,
                "inflight": self._total_inflight,
                "tenants": dict(self._tenant_inflight),
                "config": {
                    "tenant_quota": self.config.tenant_quota,
                    "max_pending": self.config.max_pending,
                    "window_ms": self.config.window_ms,
                    "max_batch": self.config.max_batch,
                },
            },
            keep_alive=request.keep_alive,
        )


def run(config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point: start a server and serve until
    interrupted (the ``repro serve`` CLI verb)."""
    server = RecurrenceServer(config)

    async def _main() -> None:
        host, port = await server.start()
        print(f"repro.serve listening on http://{host}:{port}")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
