"""Request coalescing: many concurrent solves, one stacked sweep.

This is the serving layer's core mechanism.  Each registered
``(problem fingerprint, EngineOptions identity)`` pair owns a
:class:`CoalesceLane`.  Concurrent solve requests land in the lane's
gather window (a few milliseconds); when it closes, the lane

1. **dedups** identical payloads -- a hot working set collapses to its
   distinct rows, every duplicate shares one solve;
2. **stacks** the distinct rows into one
   :meth:`~repro.engine.session.Session.solve_batch` call when the
   pinned backend is batch-capable and no engine policy is attached
   (the Moebius affine path runs the whole stack as one ``(k, n)``
   coefficient sweep; ordinary typed operators as one ``(k, m)``
   matrix replay);
3. **fans out** each row's result to every waiting request future as a
   standard :class:`~repro.engine.api.EngineResult` with the serving
   envelope fields (``request_id`` / ``coalesced`` / ``queue_wait_s``)
   filled in.

A structured mid-batch backend failure
(:data:`~repro.engine.failover.FAILOVER_TRIP`) reroutes the whole
window to the per-row path, where each :meth:`Session.solve` carries
the engine's own failover ladder -- so one poisoned stacked sweep
degrades to per-row service instead of failing ``k`` requests, and
``failover_from`` stays visible per response.  Lanes with an attached
engine policy (round budgets, ``partial`` semantics) always serve
per-row: budgets are per-request contracts and must not be shared
across tenants in a stacked sweep.

Engine solves are synchronous CPU work, so lanes run them in a small
thread pool via ``run_in_executor`` and serialize per-session access
with an ``asyncio.Lock`` (a pinned ``Session`` is not thread-safe).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine import EngineOptions, Session
from ..engine.api import EngineResult
from ..engine.failover import FAILOVER_TRIP
from ..obs import get_registry

__all__ = [
    "CoalesceLane",
    "PendingSolve",
    "payload_key",
    "split_serve_policy",
]


def payload_key(values: Optional[Sequence[Any]], patch: Optional[Dict[int, Any]]) -> tuple:
    """Hashable identity of one request payload, for dedup.

    Full value vectors hash by content; sparse patches by their sorted
    ``(index, value)`` pairs.  ``(None, None)`` -- "solve the
    registered initial values" -- is its own singleton key.
    """
    if values is not None:
        return ("v", tuple(values))
    if patch is not None:
        return ("p", tuple(sorted(patch.items())))
    return ("base",)


@dataclass
class PendingSolve:
    """One queued request waiting for its window to flush."""

    key: tuple
    values: Optional[List[Any]]
    request_id: str
    future: "asyncio.Future[EngineResult]"
    enqueued: float = field(default_factory=time.monotonic)
    #: The caller will ask :meth:`CoalesceLane.encode_once` for an
    #: encoding of this request's result.
    encode: bool = False


class CoalesceLane:
    """The per-(problem, options) gather queue + flusher.

    ``window_s=0`` disables gathering: every request flushes
    immediately (the naive one-solve-per-request baseline the load
    bench compares against -- still serialized per session).
    """

    def __init__(
        self,
        session: Session,
        *,
        options: EngineOptions,
        base_values: Sequence[Any],
        window_s: float = 0.002,
        max_batch: int = 256,
        deadline_s: Optional[float] = None,
        executor=None,
    ):
        self.session = session
        self.options = options
        self.base_values = list(base_values)
        self.window_s = window_s
        self.max_batch = max_batch
        #: Serve-level deadline stripped from a pure-timeout ``raise``
        #: policy at registration (the engine policy stays ``None`` so
        #: stacking remains legal; admission control enforces this).
        self.deadline_s = deadline_s
        self._executor = executor
        self._pending: List[PendingSolve] = []
        self._flusher: Optional[asyncio.Task] = None
        self._serial = asyncio.Lock()
        #: EWMA of recent flush latency, feeding admission control.
        self.ewma_flush_s = 0.0
        self.inflight = 0
        # Materialized rows by payload key, for the requests gathered
        # until the next window starts solving.
        self._rows: Dict[tuple, List[Any]] = {}
        # Reply encodings of results shared by several requests, keyed
        # by the shared values list's id: ``[values, encoding,
        # consumers left, window]``.  An entry goes when its last
        # consumer has it, or two windows later if a consumer vanished
        # (a cancelled request), so no result outlives its replies.
        self._encoded: Dict[int, List[Any]] = {}
        self._windows = 0

    # -- admission ---------------------------------------------------------

    @property
    def batchable(self) -> bool:
        return self.session.batch_capable and self.session.policy is None

    def estimated_wait_s(self) -> float:
        """Pessimistic time-to-result for a request admitted now: the
        gather window, any flush already running, and one solve."""
        backlog = 1 + (self.inflight // max(1, self.max_batch))
        return self.window_s + self.ewma_flush_s * backlog

    # -- intake ------------------------------------------------------------

    def submit(
        self,
        *,
        values: Optional[Sequence[Any]],
        patch: Optional[Dict[int, Any]],
        request_id: str,
        encode: bool = False,
    ) -> "asyncio.Future[EngineResult]":
        """Queue one request; returns the future its result lands on.
        ``encode`` announces that the caller will fetch an encoding of
        the result through :meth:`encode_once`."""
        key = payload_key(values, patch)
        row = self._rows.get(key)
        if row is None:
            row = self._materialize(values, patch)
            if row is not None:
                self._rows[key] = row
        loop = asyncio.get_running_loop()
        pending = PendingSolve(
            key=key,
            values=row,
            request_id=request_id,
            future=loop.create_future(),
            encode=encode,
        )
        self._pending.append(pending)
        self.inflight += 1
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_after_window())
        return pending.future

    def _materialize(
        self,
        values: Optional[Sequence[Any]],
        patch: Optional[Dict[int, Any]],
    ) -> Optional[List[Any]]:
        if values is not None:
            return list(values)
        if patch is not None:
            row = list(self.base_values)
            for idx, val in patch.items():
                if not 0 <= idx < len(row):
                    raise ValueError(
                        f"patch index {idx} outside [0, {len(row)})"
                    )
                row[idx] = val
            return row
        return None  # the registered initial values

    def encode_once(self, values: List[Any], encode) -> Any:
        """``encode(values)`` for a request submitted with
        ``encode=True``, computed once per distinct result: every
        request of a window that shared a payload receives the same
        ``values`` list, so its reply encoding (the digest) is derived
        once, not once per request."""
        entry = self._encoded.get(id(values))
        if entry is None:  # a result no other request shares
            return encode(values)
        if entry[1] is None:
            entry[1] = encode(values)
        entry[2] -= 1
        if entry[2] == 0:
            del self._encoded[id(values)]
        return entry[1]

    # -- flushing ----------------------------------------------------------

    async def _flush_after_window(self) -> None:
        if self.window_s > 0:
            await asyncio.sleep(self.window_s)
        while self._pending:
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            async with self._serial:
                await self._flush(batch)

    async def _flush(self, batch: List[PendingSolve]) -> None:
        registry = get_registry()
        if registry is not None:
            registry.histogram(
                "serve.coalesce.width", family=self.session.family
            ).observe(len(batch))
        started = time.monotonic()
        self._rows = {}
        # Dedup: one solve per distinct payload, shared across every
        # request that carried it.
        order: List[tuple] = []
        rows: Dict[tuple, Optional[List[Any]]] = {}
        for item in batch:
            if item.key not in rows:
                rows[item.key] = item.values
                order.append(item.key)
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor, self._solve_rows, order, rows
            )
        except Exception as exc:
            # A failure outside the per-row guards (executor teardown,
            # a batch-path error that is not a reroute trigger): the
            # whole window shares it.
            results = {key: exc for key in order}
        finally:
            flush_s = time.monotonic() - started
            # EWMA (alpha 0.3): reactive enough for admission control,
            # smooth enough to ignore one slow flush.
            self.ewma_flush_s = (
                flush_s
                if self.ewma_flush_s == 0.0
                else 0.7 * self.ewma_flush_s + 0.3 * flush_s
            )
        coalesced = len(batch) > 1
        now = time.monotonic()
        if registry is not None and len(batch) > len(order):
            registry.counter(
                "serve.coalesce.deduped", family=self.session.family
            ).inc(len(batch) - len(order))
        shared: Dict[int, List[Any]] = {}
        for item in batch:
            self.inflight -= 1
            if item.future.done():
                continue  # caller gave up (deadline) before the flush
            base = results[item.key]
            if isinstance(base, BaseException):
                item.future.set_exception(base)
                continue
            if item.encode:
                # the entry holds ``values``, so its id is not reused
                shared.setdefault(
                    id(base.values), [base.values, None, 0, self._windows]
                )[2] += 1
            item.future.set_result(
                EngineResult(
                    values=base.values,
                    stats=base.stats,
                    backend=base.backend,
                    family=base.family,
                    plan=None,
                    cache_hit=True,
                    metrics=base.metrics,
                    failover_from=base.failover_from,
                    request_id=item.request_id,
                    coalesced=coalesced,
                    queue_wait_s=now - item.enqueued,
                )
            )
        self._encoded = {
            key: entry
            for key, entry in self._encoded.items()
            if entry[3] >= self._windows - 1
        }
        self._encoded.update(
            (key, entry) for key, entry in shared.items() if entry[2] > 1
        )
        self._windows += 1

    # Runs on the executor thread; pure synchronous engine work.
    def _solve_rows(
        self,
        order: List[tuple],
        rows: Dict[tuple, Optional[List[Any]]],
    ) -> Dict[tuple, Any]:
        session = self.session
        if len(order) > 1 and self.batchable:
            stacked: List[List[Any]] = [
                rows[key] if rows[key] is not None else list(self.base_values)
                for key in order
            ]
            try:
                outs = session.solve_batch(stacked)
            except FAILOVER_TRIP + (ValueError,):
                # Mid-batch backend failure (or a stack the backend
                # refused): reroute the window to per-row service,
                # where each solve carries the engine's own ladder.
                registry = get_registry()
                if registry is not None:
                    registry.counter(
                        "serve.coalesce.reroutes", family=session.family
                    ).inc()
            else:
                return {
                    key: EngineResult(
                        values=out,
                        stats=None,
                        backend=session.backend,
                        family=session.family,
                        plan=None,
                        cache_hit=True,
                    )
                    for key, out in zip(order, outs)
                }
        # Per-row service: each payload succeeds or fails on its own
        # (a policy `raise` on one tenant's row must not poison the
        # window's other requests).
        results: Dict[tuple, Any] = {}
        for key in order:
            try:
                results[key] = session.solve(rows[key])
            except Exception as exc:
                results[key] = exc
        return results


def split_serve_policy(
    options: EngineOptions,
) -> Tuple[EngineOptions, Optional[float]]:
    """Split a pure-deadline policy off the engine options.

    A ``SolvePolicy(timeout_s=...)`` with no round budget and
    ``on_exhaustion="raise"`` is a *latency contract*, not an
    execution-semantics knob -- enforcing it per request at the serve
    layer (admission control + response deadline) keeps the engine
    policy ``None``, which is what lets the coalescer stack the window
    into one sweep.  Policies that change execution semantics
    (``max_rounds``, ``fallback`` / ``partial``) stay on the session
    and force the per-row path.
    """
    policy = options.policy
    if (
        policy is not None
        and policy.timeout_s is not None
        and policy.max_rounds is None
        and policy.on_exhaustion == "raise"
    ):
        return options.replace(policy=None), float(policy.timeout_s)
    return options, None
