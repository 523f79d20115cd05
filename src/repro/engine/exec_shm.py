"""Master-side drivers of the ``shm`` backend.

The shared-memory executor is the first *real-parallelism* backend:
where ``pram`` replays the paper's EREW schedule on one core, ``shm``
fans each pointer-jumping round's active set out across OS processes
over ``multiprocessing.shared_memory`` (see
:mod:`repro.engine.shm_pool` for the pool/barrier protocol).  It
covers

* the **ordinary** family with NumPy-typed operators (``vector_fn`` +
  ``dtype``) -- object monoids cannot cross a process boundary without
  serialization, which would defeat the shared-memory design;
* the **GIR** family for operators that are additionally *power-typed*
  (``vector_power`` + int64-reducible exponents): the plan's CSR power
  table ships through the fingerprint-keyed upload path once, each
  worker evaluates a Brent-style contiguous shard of table rows in one
  round, and the master scatters the row values onto the output cells
  -- bit-identical to the numpy backend's batched evaluator, which
  runs the same kernel (:func:`repro.engine.exec_gir.
  eval_rows_vectorized`); and
* the **Moebius affine** fast path (the ``(a, b)`` coefficient sweep),
  with the standard guard/escalation ladder running master-side.

Per-solve flow: truncate the plan's round schedule under a
:class:`~repro.resilience.SolvePolicy` (``max_rounds`` master-side,
``timeout_s`` cooperatively in the workers), initialize the shared
value buffer, drive the rounds through the persistent pool, and -- on
a worker crash *or a supervisor-detected hang* -- respawn the dead
ranks and retry the whole job from freshly initialized buffers (the
solve is deterministic, so retries are idempotent), up to a bounded
retry budget, before raising the structured
:class:`~repro.errors.FaultError` (CLI exit code 7).  Each job arms
the pool's :class:`~repro.resilience.supervisor.PoolSupervisor` with
a policy-derived watchdog budget; chaos-injection payloads
(:mod:`repro.chaos`) ride the job dict into the workers.

Observability: spans ``solver.ordinary`` / ``solver.moebius`` with
``engine="shm"``-prefixed labels, plus ``engine.shm.*`` counters --
solves, rounds, worker gauge, per-round shard-size histogram, the
per-worker barrier-wait histogram, plan uploads vs reuses, and
respawns.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.equations import OrdinaryIRSystem
from ..core.gir import GIRSolveStats
from ..core.moebius import classify_scalars, run_moebius_sequential
from ..core.ordinary import SolveStats, _maybe_check, _sequential_baseline
from ..core.sequential import run_gir
from ..errors import (
    FaultError,
    IterationBudgetExceeded,
    PoolSpawnError,
    SolveTimeoutError,
)
from ..obs import get_registry, get_tracer, maybe_span, merge_worker_snapshots
from ..obs.recorder import record_event
from .plan import GIRPlan, MoebiusPlan, OrdinaryPlan
from .shm_pool import (
    BARRIER_TIMEOUT_S,
    CTRL_CRASH,
    CTRL_SLOTS,
    CTRL_STOP,
    DEFAULT_WORKERS,
    RunOutcome,
    ShmWorkerPool,
    get_pool,
)

__all__ = [
    "execute_ordinary",
    "execute_gir",
    "execute_moebius",
    "DEFAULT_WORKERS",
]

#: Watchdog budget when neither ``watchdog_s`` nor a policy timeout is
#: given: generous enough that no honest solve trips it, far below the
#: 120 s barrier backstop so hangs recover in bounded time.
DEFAULT_WATCHDOG_S = 60.0
#: Slack added on top of a policy-derived watchdog so the cooperative
#: stop flag (checked at round boundaries) gets first shot at a
#: timeout before the supervisor starts killing ranks.
WATCHDOG_GRACE_S = 5.0
#: Crash/hang retry budget per solve (the historical behaviour:
#: one respawn-and-retry before the structured FaultError).
DEFAULT_RETRIES = 1


def _watchdog_budget(policy, override) -> Optional[float]:
    """The heartbeat-staleness budget for one job.

    Explicit ``watchdog_s`` option wins (``0``/negative disables
    supervision); otherwise a policy wall-clock budget plus grace;
    otherwise :data:`DEFAULT_WATCHDOG_S`.
    """
    if override is not None:
        budget = float(override)
        return budget if budget > 0 else None
    if policy is not None and policy.timeout_s is not None:
        return policy.timeout_s + WATCHDOG_GRACE_S
    return DEFAULT_WATCHDOG_S


def _get_pool(workers: int):
    """Spawn failures surface as the structured, failover-eligible
    :class:`~repro.errors.PoolSpawnError` instead of a raw OSError."""
    try:
        return get_pool(workers)
    except (OSError, RuntimeError) as exc:
        record_event("shm.spawn_failed", workers=workers, error=repr(exc))
        raise PoolSpawnError(
            f"could not spawn the shm worker pool ({workers} workers): "
            f"{exc!r}"
        ) from exc


def _record_exhausted(label: str, reason: str) -> None:
    registry = get_registry()
    if registry is not None:
        registry.counter(
            "resilience.policy.exhausted", label=label, reason=reason
        ).inc()


def _policy_preamble(
    policy, label: str, rounds_total: int
) -> Tuple[int, Optional[str], Optional[float]]:
    """Apply ``max_rounds`` up front; returns ``(rounds_to_run,
    rounds_exhaustion, deadline)``.  ``rounds_exhaustion`` is set when
    the schedule was truncated (the caller applies the policy's
    ``on_exhaustion`` behaviour); ``deadline`` is the absolute
    wall-clock bound workers check cooperatively."""
    rounds_to_run = rounds_total
    exhausted = None
    deadline = None
    if policy is not None:
        if policy.max_rounds is not None and rounds_total > policy.max_rounds:
            exhausted = "rounds"
            rounds_to_run = policy.max_rounds
            _record_exhausted(label, "rounds")
            if policy.on_exhaustion == "raise":
                raise IterationBudgetExceeded(
                    f"{label}: iteration budget of {policy.max_rounds} "
                    "round(s) exhausted",
                    rounds=policy.max_rounds,
                    budget=policy.max_rounds,
                )
        if policy.timeout_s is not None:
            deadline = time.time() + policy.timeout_s
    return rounds_to_run, exhausted, deadline


def _record_chaos(outcome: RunOutcome) -> None:
    """Flight-record every chaos event the workers report firing."""
    registry = get_registry()
    for reply in outcome.replies.values():
        for fired in reply.get("chaos_fired", ()):
            # The fired dict's own "kind" is the *fault* kind; the
            # recorder's first argument is the event kind.
            fields = {
                ("fault" if k == "kind" else k): v for k, v in fired.items()
            }
            record_event("chaos.injected", **fields)
            if registry is not None:
                registry.counter(
                    "engine.chaos.injected", kind=fired.get("kind", "?")
                ).inc()


def _drive(
    pool: ShmWorkerPool,
    job: Dict[str, Any],
    *,
    deadline: Optional[float],
    init_buffers: Callable[[], None],
    retries: int = DEFAULT_RETRIES,
    watchdog_s: Optional[float] = None,
) -> RunOutcome:
    """Run ``job``; on a crash or supervisor-detected hang, respawn the
    dead ranks and retry from scratch up to ``retries`` times (the
    solve is deterministic, so retries are idempotent)."""
    registry = get_registry()
    for attempt in range(retries + 1):
        job["attempt"] = attempt  # chaos events target attempts
        init_buffers()
        outcome = pool.run(job, deadline=deadline, watchdog_s=watchdog_s)
        _record_chaos(outcome)
        if outcome.ok:
            return outcome
        if outcome.errors:
            detail = "; ".join(e["message"] for e in outcome.errors)
            raise FaultError(f"shm worker raised: {detail}")
        dead = sorted(set(outcome.crashed + outcome.wedged))
        hung = sorted(outcome.hung)
        # The failing round: crashed ranks die silently, but their
        # siblings' broken-barrier replies say how far the sweep got.
        rounds_reached = sorted(
            {r for r in outcome.aborted_rounds.values() if r is not None}
        )
        record_event(
            "shm.crash",
            kind_of_job=job.get("kind"),
            attempt=attempt,
            crashed=dead,
            hung=hung,
            aborted=sorted(outcome.aborted),
            round=rounds_reached[-1] if rounds_reached else None,
        )
        respawned = pool.repair()
        record_event("worker.respawn", ranks=respawned, attempt=attempt)
        if registry is not None:
            registry.counter("engine.shm.respawns").inc(
                max(len(respawned), 1)
            )
        if attempt == retries:
            how = "hung (watchdog kill)" if hung else "crashed"
            raise FaultError(
                f"shm worker rank(s) {dead} {how} again after a respawn; "
                f"giving up after {retries} retr"
                f"{'y' if retries == 1 else 'ies'}"
            )
    raise AssertionError("unreachable")


def _observe_run(
    family: str,
    workers: int,
    executed: int,
    active_sizes: List[int],
    outcome: Optional[RunOutcome],
) -> None:
    record_event(
        "round", family=family, engine="shm", rounds=executed, workers=workers
    )
    registry = get_registry()
    if registry is None:
        return
    registry.counter("engine.shm.solves", family=family).inc()
    registry.gauge("engine.shm.workers").set(workers)
    if executed:
        registry.counter("engine.shm.rounds", family=family).inc(executed)
    shard_hist = registry.histogram("engine.shm.shard_cells", family=family)
    for size in active_sizes[:executed]:
        shard_hist.observe(-(-size // workers))  # ceil(active / P)
    if outcome is not None:
        wait_hist = registry.histogram("engine.shm.barrier_wait_s")
        for reply in outcome.replies.values():
            wait_hist.observe(reply["barrier_wait_s"])
        # Fold the workers' own registries in: once per rank under
        # proc=worker-N, once rolled up across the fleet.
        merge_worker_snapshots(registry, outcome.worker_metrics)


def _schedule_entry(pool: ShmWorkerPool, plan: OrdinaryPlan) -> Dict[str, Any]:
    entry, uploaded = pool.schedule_blocks(plan)
    registry = get_registry()
    if registry is not None:
        name = "engine.shm.plan.uploads" if uploaded else "engine.shm.plan.reuses"
        registry.counter(name).inc()
    return entry


def _timeout_error(label: str, policy, started: float) -> SolveTimeoutError:
    elapsed = time.time() - started
    return SolveTimeoutError(
        f"{label}: wall-clock budget of {policy.timeout_s}s exhausted",
        elapsed=elapsed,
        timeout=policy.timeout_s,
    )


# ---------------------------------------------------------------------------
# Ordinary family
# ---------------------------------------------------------------------------


def execute_ordinary(
    system,
    plan: OrdinaryPlan,
    *,
    workers: int = DEFAULT_WORKERS,
    collect_stats: bool = False,
    f_initial: Optional[List[Any]] = None,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    crash: Optional[Dict[str, Any]] = None,
    chaos: Optional[Dict[str, Any]] = None,
    watchdog_s: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
) -> Tuple[List[Any], Optional[SolveStats]]:
    """Replay ``plan`` over ``system``'s values across the worker pool.

    Requires a typed operator; round semantics (operand order, active
    sets) are identical to the ``numpy`` backend, so typed results are
    bit-identical to it.  ``crash`` is the test-only fault-injection
    hook (``{"rank": r, "round": k, "once": bool}``); ``chaos`` is a
    resolved :meth:`repro.chaos.ChaosPlan.resolve` payload;
    ``watchdog_s`` overrides the supervisor's hang budget (see
    :func:`_watchdog_budget`); ``retries`` bounds respawn-and-retry.
    """
    op = system.op
    if op.vector_fn is None or op.dtype is None:
        raise ValueError(
            "the shm backend needs a NumPy-typed operator (vector_fn + "
            f"dtype); operator {op.name!r} is object-typed -- use "
            "backend='numpy' or backend='python' instead"
        )
    n = plan.n
    label = "ordinary.shm"
    started = time.time()
    rounds_to_run, rounds_exhausted, deadline = _policy_preamble(
        policy, label, plan.rounds
    )
    stats = (
        SolveStats(n=n, init_ops=plan.init_ops) if collect_stats else None
    )
    if rounds_exhausted == "rounds" and policy.on_exhaustion == "fallback":
        out = _sequential_baseline(system, f_initial)
        _maybe_check(system, out, f_initial, checked, check_sample)
        return out, stats

    S = system.initial
    dtype = np.dtype(op.dtype)
    init = np.asarray(S, dtype=dtype)
    finit = (
        init if f_initial is None else np.asarray(f_initial, dtype=dtype)
    )

    tracer = get_tracer()
    with maybe_span(
        tracer, "solver.ordinary", engine="shm", n=n, workers=workers
    ) as root:
        pool = _get_pool(workers)
        entry = _schedule_entry(pool, plan)
        val_shm = pool.data_block("ordinary.val", n * dtype.itemsize)
        scratch_shm = pool.data_block("ordinary.scratch", n * dtype.itemsize)
        ctrl_shm = pool.data_block("ctrl", CTRL_SLOTS * 8)
        ctrl = np.ndarray((CTRL_SLOTS,), dtype="int64", buffer=ctrl_shm.buf)
        ctrl[CTRL_CRASH] = 0
        val = np.ndarray((n,), dtype=dtype, buffer=val_shm.buf)

        def init_buffers() -> None:
            ctrl[CTRL_STOP] = 0
            val[:] = init[plan.g]
            t = plan.terminal_idx
            if t.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    val[t] = op.vector_fn(finit[plan.f[t]], val[t])

        job = {
            "kind": "ordinary",
            "rounds": rounds_to_run,
            "offsets": entry["offsets"],
            "total": entry["total"],
            "n": n,
            "dtype": str(dtype),
            "sched_active": entry["active"].name,
            "sched_src": entry["src"].name,
            "ctrl": ctrl_shm.name,
            "data": {"val": val_shm.name, "scratch": scratch_shm.name},
            "op": op.vector_fn,
            "deadline": deadline,
            "barrier_timeout": BARRIER_TIMEOUT_S,
            "crash": crash,
            "chaos": chaos,
            "obs": get_registry() is not None,
        }
        outcome: Optional[RunOutcome] = None
        if rounds_to_run > 0:
            outcome = _drive(
                pool,
                job,
                deadline=deadline,
                init_buffers=init_buffers,
                retries=retries,
                watchdog_s=_watchdog_budget(policy, watchdog_s),
            )
            executed = outcome.rounds
            timed_out = outcome.exhausted == "timeout" or bool(outcome.wedged)
        else:
            init_buffers()
            executed = 0
            timed_out = False

        _observe_run("ordinary", workers, executed, plan.active_per_round, outcome)
        if stats is not None:
            stats.rounds = executed
            stats.active_per_round = plan.active_per_round[:executed]
        if root is not None:
            root.set_attribute("rounds", executed)

        if timed_out:
            _record_exhausted(label, "timeout")
            if policy.on_exhaustion == "raise":
                raise _timeout_error(label, policy, started)
            if policy.on_exhaustion == "fallback":
                out = _sequential_baseline(system, f_initial)
                _maybe_check(system, out, f_initial, checked, check_sample)
                return out, stats

        out = list(S)
        solved = val.tolist()
        for i, cell in enumerate(plan.g.tolist()):
            out[cell] = solved[i]
        partial = timed_out or rounds_exhausted is not None
        if not partial:
            _maybe_check(system, out, f_initial, checked, check_sample)
        return out, stats


# ---------------------------------------------------------------------------
# GIR family
# ---------------------------------------------------------------------------


def execute_gir(
    system,
    problem,
    plan: Optional[GIRPlan],
    *,
    workers: int = DEFAULT_WORKERS,
    collect_stats: bool = False,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    crash: Optional[Dict[str, Any]] = None,
    chaos: Optional[Dict[str, Any]] = None,
    watchdog_s: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
) -> Tuple[List[Any], Optional[GIRSolveStats], GIRPlan]:
    """Evaluate a GIR plan's power table across the worker pool.

    Planning (renaming, dependence graph, CAP) runs master-side via
    :func:`repro.engine.exec_gir.build_plan`; the CSR table arrays are
    uploaded once per ``(fingerprint, power period)`` and every worker
    evaluates a contiguous shard of trace rows with the same vectorized
    kernel the numpy backend uses, so typed results are bit-identical
    to it.  Requires a *power-typed* operator: ``vector_fn`` +
    ``vector_power`` + ``dtype``, with exponents reducible into int64
    (either directly or through the operator's ``power_period``).

    Ordinary-shaped systems dispatch to :func:`execute_ordinary` on the
    nested plan, exactly as the in-process executors dispatch.

    A :class:`~repro.resilience.SolvePolicy` acts in two places: its
    iteration budget bounds the CAP doubling loop at *plan* time (as on
    every backend), and its wall clock rides the job as the workers'
    cooperative deadline.  ``crash`` / ``chaos`` / ``watchdog_s`` /
    ``retries`` behave as in :func:`execute_ordinary`.
    """
    from . import exec_gir

    if plan is None:
        system.validate()
        dispatch = exec_gir._should_dispatch(system, problem)
    else:
        dispatch = plan.dispatch is not None

    if dispatch:
        from . import exec_ordinary

        ordinary = OrdinaryIRSystem(
            initial=list(system.initial),
            g=system.g,
            f=system.f,
            op=system.op,
        )
        if plan is None:
            plan = GIRPlan(
                fingerprint=problem.fingerprint(),
                n=system.n,
                m=system.m,
                dispatch=exec_ordinary.build_plan(
                    ordinary, problem.fingerprint()
                ),
            )
        out, ord_stats = execute_ordinary(
            ordinary,
            plan.dispatch,
            workers=workers,
            collect_stats=collect_stats,
            policy=policy,
            crash=crash,
            chaos=chaos,
            watchdog_s=watchdog_s,
            retries=retries,
        )
        stats = None
        if collect_stats:
            assert ord_stats is not None
            stats = GIRSolveStats(
                n=system.n,
                cap_iterations=0,
                cap_edge_work=0,
                power_ops=0,
                combine_ops=ord_stats.total_ops,
                reduction_depth=ord_stats.depth,
                renamed=False,
                ordinary_dispatch=True,
            )
        if checked:
            from ..resilience.verify import differential_check

            differential_check("gir", system, out, sample=check_sample)
        return out, stats, plan

    op = system.op
    op.require_commutative()
    if op.vector_fn is None or op.vector_power is None or op.dtype is None:
        raise ValueError(
            "the shm backend needs a power-typed operator (vector_fn + "
            f"vector_power + dtype); operator {op.name!r} cannot evaluate "
            "traces across a process boundary -- use backend='numpy' or "
            "backend='python' instead"
        )
    dtype = np.dtype(op.dtype)
    try:
        initial_arr = np.asarray(system.initial, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(
            f"initial values do not fit operator dtype {op.dtype!r} for "
            f"the shm backend ({exc!r}) -- use backend='numpy' or "
            "backend='python' instead"
        ) from exc
    domain_check = getattr(op.vector_power, "domain_check", None)
    if domain_check is not None and not domain_check(initial_arr):
        raise ValueError(
            f"initial values fall outside operator {op.name!r}'s "
            "vectorized domain for the shm backend -- use "
            "backend='numpy' or backend='python' instead"
        )

    label = "gir.shm"
    started = time.time()
    deadline = None
    if policy is not None and policy.timeout_s is not None:
        deadline = time.time() + policy.timeout_s

    tracer = get_tracer()
    registry = get_registry()
    with maybe_span(
        tracer, "solver.gir", engine="shm", n=system.n, workers=workers
    ) as root:
        if plan is None:
            plan = exec_gir.build_plan(system, problem, policy=policy)
        table = plan.table
        period = op.power_period
        if table.reduced_exponents(period) is None:
            raise ValueError(
                "the shm backend needs int64-reducible trace exponents; "
                f"operator {op.name!r} has no power period and this "
                "system's path counts overflow int64 -- use "
                "backend='numpy' or backend='python' instead"
            )
        n_rows = table.rows
        power_ops = table.power_entry_count
        combine_ops = table.nnz - table.rows
        stats = None
        if collect_stats:
            stats = GIRSolveStats(
                n=n_rows,
                cap_iterations=plan.cap_iterations,
                cap_edge_work=plan.cap_edge_work,
                power_ops=power_ops,
                combine_ops=combine_ops,
                reduction_depth=table.reduction_depth,
                renamed=plan.renamed,
            )

        pool = _get_pool(workers)
        entry, uploaded = pool.gir_blocks(plan, period)
        if registry is not None:
            name = (
                "engine.shm.plan.uploads"
                if uploaded
                else "engine.shm.plan.reuses"
            )
            registry.counter(name).inc()
        init_shm = pool.data_block(
            "gir.init", initial_arr.size * dtype.itemsize
        )
        out_shm = pool.data_block("gir.out", n_rows * dtype.itemsize)
        ctrl_shm = pool.data_block("ctrl", CTRL_SLOTS * 8)
        ctrl = np.ndarray((CTRL_SLOTS,), dtype="int64", buffer=ctrl_shm.buf)
        ctrl[CTRL_CRASH] = 0
        init_view = np.ndarray(
            (initial_arr.size,), dtype=dtype, buffer=init_shm.buf
        )
        out_view = np.ndarray((n_rows,), dtype=dtype, buffer=out_shm.buf)

        def init_buffers() -> None:
            ctrl[CTRL_STOP] = 0
            init_view[:] = initial_arr
            out_view[:] = 0  # retry hygiene: stale rows never leak

        job = {
            "kind": "gir",
            "rounds": 1,
            "offsets": [0, n_rows],
            "total": n_rows,
            "n": n_rows,
            "dtype": str(dtype),
            "gir": {
                "row_ptr": entry["row_ptr"].name,
                "cells": entry["cells"].name,
                "exps": entry["exps"].name,
                "nnz": entry["nnz"],
                "init_len": int(initial_arr.size),
            },
            "ctrl": ctrl_shm.name,
            "data": {"init": init_shm.name, "out": out_shm.name},
            "op": {"fn": op.vector_fn, "power": op.vector_power},
            "deadline": deadline,
            "barrier_timeout": BARRIER_TIMEOUT_S,
            "crash": crash,
            "chaos": chaos,
            "obs": registry is not None,
        }
        outcome = _drive(
            pool,
            job,
            deadline=deadline,
            init_buffers=init_buffers,
            retries=retries,
            watchdog_s=_watchdog_budget(policy, watchdog_s),
        )
        executed = outcome.rounds
        timed_out = outcome.exhausted == "timeout" or bool(outcome.wedged)

        _observe_run("gir", workers, executed, [n_rows], outcome)
        if root is not None:
            root.set_attribute("cap_iterations", plan.cap_iterations)
            root.set_attribute("renamed", plan.renamed)
            root.set_attribute("power_ops", power_ops)
            root.set_attribute("combine_ops", combine_ops)
        if registry is not None:
            registry.counter("solver.solves", engine="gir").inc()
            registry.counter("gir.power_ops").inc(power_ops)
            registry.counter("gir.combine_ops").inc(combine_ops)

        if timed_out:
            _record_exhausted(label, "timeout")
            if policy.on_exhaustion == "raise":
                raise _timeout_error(label, policy, started)
            if policy.on_exhaustion == "fallback":
                out = run_gir(system)
                return out, stats, plan
            # "partial": the single evaluation round never ran, so the
            # partial result is the untouched initial array.
            return list(system.initial), stats, plan

        values = out_view.copy()
        out = exec_gir._scatter(plan, system, values, initial_arr)

    if checked:
        from ..resilience.verify import differential_check

        differential_check("gir", system, out, sample=check_sample)
    return out, stats, plan


# ---------------------------------------------------------------------------
# Moebius affine fast path
# ---------------------------------------------------------------------------


def execute_moebius(
    rec,
    problem,
    plan: Optional[MoebiusPlan],
    *,
    workers: int = DEFAULT_WORKERS,
    path: str = "auto",
    guard: Any = "auto",
    collect_stats: bool = False,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    crash: Optional[Dict[str, Any]] = None,
    chaos: Optional[Dict[str, Any]] = None,
    watchdog_s: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    prepared=None,
) -> Tuple[List[Any], Optional[SolveStats], MoebiusPlan]:
    """Moebius front door of the shm backend: the affine fast path
    only, with the standard guard/escalation ladder on top (escalation
    rungs run master-side on the exact object engine).  ``prepared``
    is the recurrence's pinned :func:`~repro.engine.exec_moebius.
    prepare` state, built (and ``rec`` validated) here when absent."""
    from . import exec_moebius
    from ..resilience.guard import NumericGuard, default_guard

    prepared = exec_moebius._prepared(rec, prepared)
    auto = path == "auto"
    if isinstance(guard, str):
        if guard != "auto":
            raise ValueError(f"unknown guard mode {guard!r}")
        guard_obj: Optional[NumericGuard] = default_guard() if auto else None
    else:
        guard_obj = guard
    initial_types = classify_scalars(rec.initial)
    resolved = prepared.resolve(path, initial_types)
    if resolved != "affine":
        raise ValueError(
            "the shm backend covers the NumPy-typed affine fast path; this "
            f"recurrence resolves to the {resolved!r} path -- use "
            "backend='numpy' (or 'python') for object/rational solves"
        )
    if plan is None:
        plan = exec_moebius.build_plan(rec, problem.fingerprint())

    X, stats, assigned = _execute_affine(
        rec,
        plan,
        prepared,
        initial_types,
        workers=workers,
        collect_stats=collect_stats,
        policy=policy,
        crash=crash,
        chaos=chaos,
        watchdog_s=watchdog_s,
        retries=retries,
    )
    if guard_obj is not None:
        X, stats = exec_moebius._escalate_if_unhealthy(
            rec,
            plan,
            X,
            stats,
            engine="shm.affine",
            guard=guard_obj,
            collect_stats=collect_stats,
            policy=policy,
            assigned=assigned,
        )
    if checked:
        from ..resilience.verify import differential_check

        differential_check("moebius", rec, X, sample=check_sample)
    return X, stats, plan


def _execute_affine(
    rec,
    plan: MoebiusPlan,
    prepared,
    initial_types,
    *,
    workers: int,
    collect_stats: bool,
    policy,
    crash: Optional[Dict[str, Any]],
    chaos: Optional[Dict[str, Any]] = None,
    watchdog_s: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
) -> Tuple[List[Any], Optional[SolveStats], Optional[np.ndarray]]:
    """The worker sweep; returns ``(values, stats, assigned)`` with
    ``assigned`` the final ``b`` (``None`` after a sequential
    fallback), for the guard."""
    from .exec_moebius import _folded, _scatter

    sched = plan.ordinary
    n = rec.n
    label = "moebius.shm"
    started = time.time()
    rounds_to_run, rounds_exhausted, deadline = _policy_preamble(
        policy, label, sched.rounds
    )
    stats = (
        SolveStats(n=n, init_ops=sched.init_ops) if collect_stats else None
    )
    if rounds_exhausted == "rounds" and policy.on_exhaustion == "fallback":
        return run_moebius_sequential(rec), stats, None

    initial = np.asarray(rec.initial, dtype=np.float64)
    a0, b0 = _folded(rec, prepared, initial, sched)

    tracer = get_tracer()
    with maybe_span(
        tracer, "solver.moebius", engine="shm.affine", n=n, workers=workers
    ) as root:
        pool = _get_pool(workers)
        entry = _schedule_entry(pool, sched)
        blocks = {
            role: pool.data_block(f"affine.{role}", n * 8)
            for role in ("a", "b", "sa", "sb")
        }
        ctrl_shm = pool.data_block("ctrl", CTRL_SLOTS * 8)
        ctrl = np.ndarray((CTRL_SLOTS,), dtype="int64", buffer=ctrl_shm.buf)
        ctrl[CTRL_CRASH] = 0
        a = np.ndarray((n,), dtype="float64", buffer=blocks["a"].buf)
        b = np.ndarray((n,), dtype="float64", buffer=blocks["b"].buf)

        def init_buffers() -> None:
            ctrl[CTRL_STOP] = 0
            a[:] = a0
            b[:] = b0

        job = {
            "kind": "affine",
            "rounds": rounds_to_run,
            "offsets": entry["offsets"],
            "total": entry["total"],
            "n": n,
            "dtype": "float64",
            "sched_active": entry["active"].name,
            "sched_src": entry["src"].name,
            "ctrl": ctrl_shm.name,
            "data": {role: blocks[role].name for role in blocks},
            "op": None,
            "deadline": deadline,
            "barrier_timeout": BARRIER_TIMEOUT_S,
            "crash": crash,
            "chaos": chaos,
            "obs": get_registry() is not None,
        }
        outcome: Optional[RunOutcome] = None
        if rounds_to_run > 0:
            outcome = _drive(
                pool,
                job,
                deadline=deadline,
                init_buffers=init_buffers,
                retries=retries,
                watchdog_s=_watchdog_budget(policy, watchdog_s),
            )
            executed = outcome.rounds
            timed_out = outcome.exhausted == "timeout" or bool(outcome.wedged)
        else:
            init_buffers()
            executed = 0
            timed_out = False

        _observe_run("moebius", workers, executed, sched.active_per_round, outcome)
        if stats is not None:
            stats.rounds = executed
            stats.active_per_round = sched.active_per_round[:executed]
        if root is not None:
            root.set_attribute("rounds", executed)

        if timed_out:
            _record_exhausted(label, "timeout")
            if policy.on_exhaustion == "raise":
                raise _timeout_error(label, policy, started)
            if policy.on_exhaustion == "fallback":
                return run_moebius_sequential(rec), stats, None

        assigned = b.copy()  # completed maps end constant: value = b
        return (
            _scatter(rec.initial, initial, initial_types, sched.g, assigned),
            stats,
            assigned,
        )
